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
    TabularModel,
    Token,
    Vocabulary,
    greedy_token,
    next_distribution,
)


@dataclass(frozen=True)
class Feature:
    """One context symbol in the reserved feature range, or the sentinel."""

    symbol: int


def feature_of(vocab: Vocabulary, token: Token) -> Feature:
    return Feature(vocab.feature_for(token))


def no_feature(vocab: Vocabulary) -> Feature:
    return Feature(vocab.none_feature_id)


@dataclass(frozen=True)
class GateConfig:
    """Drop probability for target-feature injection (kept with prob 1-rho)."""

    rho: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")


@dataclass(frozen=True)
class DraftProposal:
    """K drafted tokens plus the per-position drafter distributions."""

    tokens: tuple[Token, ...]
    dists: tuple[np.ndarray, ...]
    feature_used: Feature

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.dists):
            raise ValueError("tokens and dists must have equal length")


def compute_feature(target: TabularModel, prefix: Sequence[Token]) -> Feature:
    """Target's top-1 next-token prediction at the prefix end, as a feature symbol.

    Deterministic per prefix; two prefixes with the same order-d suffix yield
    the same feature.
    """
    if len(prefix) == 0:
        raise ValueError("prefix must be nonempty")
    top = greedy_token(next_distribution(target, prefix))
    return feature_of(target.vocab, top)


def apply_gate(feature: Feature, gate: GateConfig, vocab: Vocabulary, rng: RNG) -> Feature:
    """Keep the feature with probability 1-rho, else return the sentinel.

    rho = 0 and rho = 1 are exact shortcuts, not draws.
    """
    if gate.rho <= 0.0:
        return feature
    if gate.rho >= 1.0:
        return no_feature(vocab)
    if rng.random() < gate.rho:
        return no_feature(vocab)
    return feature


def propose(
    drafter: TabularModel,
    prefix: Sequence[Token],
    draft_len: int,
    feature: Feature,
    mode: str = GREEDY,
    rng: RNG | None = None,
) -> DraftProposal:
    """Draft ``draft_len`` tokens in parallel from mask-placeholder contexts.

    Position k sees the order-d suffix of (prefix ++ feature-slot ++ k masks);
    the feature slot is present only when ``feature`` is not the sentinel, so
    the target-independent path carries zero residue of any target. No drafted
    token ever appears in a context, which is what makes the K positions
    independently computable.

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

    base = tuple(int(t) for t in prefix)
    if feature.symbol != vocab.none_feature_id:
        if feature.symbol not in vocab.feature_ids:
            raise ValueError(f"feature symbol out of range: {feature.symbol}")
        base = base + (feature.symbol,)

    distinct = [
        next_distribution(drafter, base + (vocab.mask_id,) * k)
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
    return DraftProposal(tokens=tokens, dists=dists, feature_used=feature)


def has_feature_contexts(model: TabularModel) -> bool:
    """Whether any stored context contains a feature symbol.

    A drafter trained with rho = 1 never saw features; running it in
    target-dependent mode falls back on every feature-bearing context.
    """
    lo, hi = model.vocab.size + 1, 2 * model.vocab.size + 1
    return any(any(lo <= s < hi for s in ctx) for ctx in model.table)
