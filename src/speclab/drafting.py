"""Parallel masked-token drafting with optional target-feature injection.

A drafter proposes all K tokens in one conceptual pass: position k is
conditioned on the committed prefix (optionally extended by one feature
symbol distilled from the target) followed by k mask placeholders, never on
previously drafted tokens. Dropping the feature symbol entirely gives the
target-independent mode; a stochastic gate decides per training instance
which regime the drafter sees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import (
    RNG,
    Symbol,
    TabularModel,
    Vocabulary,
    next_distribution,  # noqa: F401 - perfbench's tracer test patches it here
)


@dataclass(frozen=True)
class GateConfig:
    """Drop probability for target-feature injection (kept with prob 1-rho)."""

    rho: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")


def masked_contexts(
    prefixes: np.ndarray, features: np.ndarray, positions: np.ndarray, vocab: Vocabulary,
    order: int,
) -> np.ndarray:
    """Drafter contexts at draft ``positions``, for the decoder and the trainer.

    ``prefixes`` (..., order) holds pad-filled order-``order`` suffixes of
    committed tokens and ``features`` (...) their feature symbols. Entry
    [..., j, :] of the (..., len(positions), order) result is the order-wide
    suffix of (prefix ++ feature slot ++ k masks) for k = ``positions[j]``.
    The sentinel ``vocab.none_feature_id`` leaves no slot, so the
    target-independent context carries zero residue of any target. Every
    k >= ``order`` gives the all-mask context.
    """
    prefixes, features = np.asarray(prefixes), np.asarray(features)
    # Each row lays out prefix ++ slot ++ masks, and the context is the
    # order-wide slice that ends after k masks; a sentinel row has a mask in
    # its slot and starts its slice one symbol earlier.
    rows = np.full(prefixes.shape[:-1] + (2 * order + 1,), vocab.mask_id, dtype=np.intp)
    rows[..., :order] = prefixes
    featured = features != vocab.none_feature_id
    rows[..., order] = np.where(featured, features, vocab.mask_id)
    start = featured[..., None] + np.minimum(positions, order)
    return np.take_along_axis(rows[..., None, :], start[..., None] + np.arange(order), axis=-1)


def apply_gate(
    feature: Symbol | np.ndarray, gate: GateConfig, vocab: Vocabulary, rng: RNG
) -> Symbol | np.ndarray:
    """Keep the feature with probability 1-rho, else return the sentinel.

    ``feature`` is one symbol or an array of symbols. An array of n draws
    ``rng.random(n)`` once, the same stream as n single draws. rho = 0 and
    rho = 1 are exact shortcuts, not draws.
    """
    if gate.rho <= 0.0:
        return feature
    if np.ndim(feature) == 0:
        if gate.rho >= 1.0 or rng.random() < gate.rho:
            return vocab.none_feature_id
        return feature
    if gate.rho >= 1.0:
        return np.full_like(feature, vocab.none_feature_id)
    return np.where(rng.random(len(feature)) < gate.rho, vocab.none_feature_id, feature)


def has_feature_contexts(model: TabularModel) -> bool:
    """Whether any stored context contains a feature symbol.

    A drafter trained with rho = 1 never saw features; running it in
    target-dependent mode falls back on every feature-bearing context.
    """
    features = model.vocab.feature_ids
    return bool(((model.contexts >= features.start) & (model.contexts < features.stop)).any())
