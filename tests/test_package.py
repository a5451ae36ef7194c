"""Tests for the package's public names."""

import importlib

import pytest

import speclab

#: Every name the package exported before its export list was written once,
#: less the per-window training types and loss that left the package.
PUBLIC_NAMES = [
    "GREEDY", "SAMPLE", "TabularModel", "Vocabulary", "as_distribution",
    "build_ngram_model", "generate_autoregressive", "greedy_token", "load_model",
    "make_synthetic_target", "next_distribution", "padded_suffix", "sample_token",
    "save_model", "DraftProposal", "GateConfig", "apply_gate", "compute_feature",
    "masked_context", "propose", "DEPENDENT", "INDEPENDENT", "STOCHASTIC", "DecodeTrace",
    "PositionRecord", "VerificationOutcome", "accept_prob", "decode_loop",
    "expected_accept_length", "residual_distribution", "verify_greedy", "verify_stochastic",
    "CAT", "DECAY", "UNIFORM", "TrainConfig", "TrainingWindows", "build_training_windows",
    "cat_weights", "sample_corpus", "train_tabular_drafter", "BenchReport", "CostModel",
    "run_bench",
]
REMOVED_NAMES = ["CatWeights", "TrainingWindow", "window_loss"]


def test_every_public_name_still_imports_from_the_package():
    assert [name for name in PUBLIC_NAMES if not hasattr(speclab, name)] == []


def test_window_losses_is_public():
    from speclab import training, window_losses

    assert window_losses is training.window_losses


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_name_is_gone(name):
    for module in ("speclab", "speclab.training"):
        assert not hasattr(importlib.import_module(module), name)
