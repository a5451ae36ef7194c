"""Parallel masked-token drafting with optional target-feature injection.

A drafter proposes all K tokens in one conceptual pass: position k is
conditioned on the committed prefix (optionally extended by one feature
symbol distilled from the target) followed by k mask placeholders, never on
previously drafted tokens. Dropping the feature symbol entirely gives the
target-independent mode; a stochastic gate decides per training instance
which regime the drafter sees.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .models import (
    GREEDY,
    RNG,
    SAMPLE,
    Context,
    Symbol,
    TabularModel,
    Token,
    Vocabulary,
    greedy_token,
    next_distribution,
)


@dataclass(frozen=True)
class GateConfig:
    """Drop probability for target-feature injection (kept with prob 1-rho)."""

    rho: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")


@dataclass(frozen=True)
class DraftProposal:
    """K drafted tokens plus the per-position drafter distributions."""

    tokens: tuple[Token, ...]
    dists: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.dists):
            raise ValueError("tokens and dists must have equal length")


def compute_feature(target: TabularModel, prefix: Sequence[Token]) -> Symbol:
    """Target's top-1 next-token prediction at the prefix end, as a feature symbol.

    The symbol lies in ``vocab.feature_ids``. Deterministic per prefix; two
    prefixes with the same order-d suffix yield the same feature.
    """
    if len(prefix) == 0:
        raise ValueError("prefix must be nonempty")
    top = greedy_token(next_distribution(target, prefix))
    return target.vocab.feature_for(top)


def masked_context(
    prefix: Sequence[Token], feature: Symbol, k: int, vocab: Vocabulary, order: int
) -> Context:
    """Drafter context at position k: the pad-filled order-``order`` suffix
    of (prefix ++ feature slot ++ k masks), for :func:`propose` and the trainer.

    The sentinel ``vocab.none_feature_id`` leaves no slot, so the
    target-independent context carries zero residue of any target. Every
    k >= ``order`` gives the all-mask context.
    """
    tail = tuple(prefix[-order:])
    if feature != vocab.none_feature_id:
        tail += (feature,)
    tail += (vocab.mask_id,) * k
    if len(tail) < order:
        tail = (vocab.pad_id,) * (order - len(tail)) + tail
    return tail[-order:]


def masked_contexts(
    prefixes: np.ndarray, features: np.ndarray, k: int, vocab: Vocabulary, order: int
) -> np.ndarray:
    """Array form of :func:`masked_context` for the trainer: row i is
    ``masked_context(prefixes[i], features[i], k, vocab, order)``, where
    ``prefixes`` (n, order) holds pad-filled order-``order`` suffixes."""
    n = len(prefixes)
    # Each row lays out prefix ++ slot ++ masks, and the context is the
    # order-wide slice that ends after k masks; a sentinel row has a mask in
    # its slot and starts its slice one symbol earlier.
    rows = np.full((n, 2 * order + 1), vocab.mask_id, dtype=np.intp)
    rows[:, :order] = prefixes
    featured = features != vocab.none_feature_id
    rows[featured, order] = features[featured]
    start = min(k, order) + featured
    return np.take_along_axis(rows, start[:, None] + np.arange(order), axis=1)


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


def propose(
    drafter: TabularModel,
    prefix: Sequence[Token],
    draft_len: int,
    feature: Symbol,
    mode: str = GREEDY,
    rng: RNG | None = None,
) -> DraftProposal:
    """Draft ``draft_len`` tokens in parallel from mask-placeholder contexts.

    Position k sees :func:`masked_context`. No drafted token ever appears in
    a context, which is what makes the K positions independently computable.

    Every position k >= d sees the same all-mask context, so only the first
    min(K, d + 1) distributions are looked up and the last one is reused.
    Greedy mode takes one argmax per distinct distribution. Sample mode draws
    all K uniforms with one ``rng.random(K)`` call, the same stream as K
    single draws, and inverts the K CDFs at once exactly as
    :func:`~speclab.models.sample_token` inverts one.
    """
    if draft_len < 1:
        raise ValueError(f"draft_len must be >= 1, got {draft_len}")
    if mode not in (GREEDY, SAMPLE):
        raise ValueError(f"mode must be '{GREEDY}' or '{SAMPLE}', got {mode!r}")
    if mode == SAMPLE and rng is None:
        raise ValueError("sample mode requires an rng")
    vocab = drafter.vocab
    for t in prefix:
        if not vocab.is_real(int(t)):
            raise ValueError(f"prefix must contain only real tokens, got {t}")
    if feature != vocab.none_feature_id and feature not in vocab.feature_ids:
        raise ValueError(f"feature symbol out of range: {feature}")

    distinct = [
        next_distribution(drafter, masked_context(prefix, feature, k, vocab, drafter.order))
        for k in range(min(draft_len, drafter.order + 1))
    ]
    repeats = draft_len - len(distinct)
    dists = tuple(distinct) + (distinct[-1],) * repeats
    if mode == GREEDY:
        tops = [greedy_token(dist) for dist in distinct]
        tokens = tuple(tops) + (tops[-1],) * repeats
    else:
        cdf = np.cumsum(np.stack(dists), axis=1)
        # Row-wise searchsorted(side="right"): count the entries <= the draw.
        u = rng.random(draft_len) * cdf[:, -1]
        tokens = tuple((cdf <= u[:, None]).sum(axis=1).tolist())
    return DraftProposal(tokens=tokens, dists=dists)


def has_feature_contexts(model: TabularModel) -> bool:
    """Whether any stored context contains a feature symbol.

    A drafter trained with rho = 1 never saw features; running it in
    target-dependent mode falls back on every feature-bearing context.
    """
    features = model.vocab.feature_ids
    return bool(((model.contexts >= features.start) & (model.contexts < features.stop)).any())
