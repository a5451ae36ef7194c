"""Desk-scale lossless speculative decoding over exact tabular language models.

The package wires four layers together: tabular models (targets and
drafters), parallel masked-token drafting with optional target-feature
injection, lossless stochastic/greedy verification with full acceptance
traces, and confidence-adaptive drafter training with a closed-form tabular
optimizer. A CLI (``speclab``) runs the gen / train / bench / analyze
pipeline end to end.

Importing the package sets the process's malloc policy on glibc (see
:func:`_keep_freed_heap`).
"""

import ctypes

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


#: glibc's ``mallopt`` parameter numbers (``malloc.h``).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap() -> None:
    """Keep freed heap in the process, so one stage's NumPy temporaries are
    reused by the next instead of being returned to the OS and faulted in
    again.

    glibc serves blocks of 128 KiB and more with mmap and trims the heap
    top once 128 KiB of it is free; it raises both thresholds as larger
    blocks are freed, up to 32 MiB for mmap. This pins mmap at that ceiling
    and the trim threshold at twice it, the ratio glibc's own rule keeps.
    Setting either one stops glibc's adjustment of both, so both are set.
    Freed heap then stays resident up to 64 MiB. Output is unchanged.
    Where libc has no ``mallopt`` (macOS, Windows) or refuses the value
    (musl, 32-bit glibc), nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to load, or no mallopt
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_heap()
