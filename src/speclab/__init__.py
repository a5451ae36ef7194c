"""Desk-scale lossless speculative decoding over exact tabular language models.

The package wires four layers together: tabular models (targets and
drafters), parallel masked-token drafting with optional target-feature
injection, lossless stochastic/greedy verification with full acceptance
traces, and confidence-adaptive drafter training with a closed-form tabular
optimizer. A CLI (``speclab``) runs the gen / train / bench / analyze
pipeline end to end.
"""

from .models import (
    GREEDY,
    TabularModel,
    Vocabulary,
    as_distribution,
    load_model,
    lookup_rows,
    make_synthetic_target,
    next_distribution,
    sample_sequences,
    save_model,
)
from .drafting import GateConfig, apply_gate
from .verification import DEPENDENT, INDEPENDENT, STOCHASTIC, DecodeTrace, decode_loop
from .training import (
    CAT,
    DECAY,
    UNIFORM,
    TrainConfig,
    TrainingWindows,
    build_training_windows,
    cat_weights,
    sample_corpus,
    train_tabular_drafter,
    window_losses,
)
from .bench import BenchReport, run_bench

__version__ = "0.1.0"
