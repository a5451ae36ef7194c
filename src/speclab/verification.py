"""Lossless draft verification and the full draft/verify decode loop.

Stochastic verification walks the drafted tokens in order, accepting token y
with probability min(1, p(y)/q(y)) and sampling a correction from the
normalized positive part of p - q on the first rejection; with a bonus token
on full acceptance, the committed stream is distributed exactly as if the
target had generated it alone. Greedy verification is the temperature-0
counterpart: accept while the draft matches the target's argmax.

Verification always conditions the target on real committed tokens; mask
placeholders exist only inside the drafter.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .drafting import DraftProposal, compute_feature, propose
from .models import (
    GREEDY,
    RNG,
    SAMPLE,
    TabularModel,
    Token,
    next_distribution,
    sample_token,
    greedy_token,
)

STOCHASTIC = "stochastic"
VERIFIERS = (STOCHASTIC, GREEDY)

DEPENDENT = "dependent"
INDEPENDENT = "independent"
MODES = (DEPENDENT, INDEPENDENT)

#: Equal-width bins over the target's probability of the drafted token.
NUM_CONFIDENCE_BINS = 10


def accept_prob(p: np.ndarray, q: np.ndarray, token: Token) -> float:
    """min(1, p[token]/q[token]); the drafter must give the token positive mass."""
    qt = float(q[token])
    if qt <= 0.0:
        raise ValueError(f"drafter proposed an impossible token (q[{token}] = {qt})")
    return min(1.0, float(p[token]) / qt)


def residual_distribution(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Correction-token distribution normalize(max(0, p - q)).

    Raises ValueError when p equals q coordinatewise (zero residual mass);
    callers then sample from p directly, which is marginal-preserving because
    the rejection probability is zero in that case.
    """
    diff = np.clip(np.asarray(p, dtype=np.float64) - q, 0.0, None)
    mass = float(diff.sum())
    if mass <= 0.0:
        raise ValueError("identical distributions leave no residual to sample")
    out = diff / mass
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PositionRecord:
    """One attempted draft position inside a verification round."""

    position: int
    token: Token
    accept_prob: float
    accepted: bool
    #: Target's probability of the drafted token; drives confidence binning.
    target_prob: float


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of one draft/verify round.

    ``committed`` is the accepted prefix plus one extra token: the bonus on
    full acceptance, the correction on rejection. Accepted flags always form
    a contiguous true-prefix of the attempted positions.
    """

    accepted_len: int
    committed: tuple[Token, ...]
    per_position: tuple[PositionRecord, ...]

    def __post_init__(self) -> None:
        if len(self.committed) != self.accepted_len + 1:
            raise ValueError("committed must hold accepted_len + 1 tokens")


def verify_stochastic(
    target: TabularModel,
    prefix: Sequence[Token],
    proposal: DraftProposal,
    rng: RNG,
) -> VerificationOutcome:
    """Accept the longest valid draft prefix; correct or extend with one token.

    Target conditionals are recomputed with the accepted draft tokens (real
    tokens) appended to the prefix. The committed stream is distributed
    exactly as target-only sampling.
    """
    ctx = [int(t) for t in prefix]
    records: list[PositionRecord] = []
    committed: list[Token] = []
    for k, (tok, q) in enumerate(zip(proposal.tokens, proposal.dists)):
        p = next_distribution(target, ctx)
        a = accept_prob(p, q, tok)
        accepted = rng.random() < a
        records.append(
            PositionRecord(
                position=k,
                token=tok,
                accept_prob=a,
                accepted=accepted,
                target_prob=float(p[tok]),
            )
        )
        if not accepted:
            try:
                correction_dist = residual_distribution(p, q)
            except ValueError:
                correction_dist = p
            committed.append(sample_token(correction_dist, rng))
            return VerificationOutcome(
                accepted_len=k,
                committed=tuple(committed),
                per_position=tuple(records),
            )
        ctx.append(tok)
        committed.append(tok)
    bonus = sample_token(next_distribution(target, ctx), rng)
    committed.append(bonus)
    return VerificationOutcome(
        accepted_len=len(proposal.tokens),
        committed=tuple(committed),
        per_position=tuple(records),
    )


def verify_greedy(
    target: TabularModel,
    prefix: Sequence[Token],
    proposal: DraftProposal,
) -> VerificationOutcome:
    """Temperature-0 verification: accept while the draft matches the argmax.

    On the first mismatch the target's greedy token is committed instead; on
    full acceptance the greedy bonus token is appended.
    """
    ctx = [int(t) for t in prefix]
    records: list[PositionRecord] = []
    committed: list[Token] = []
    for k, tok in enumerate(proposal.tokens):
        p = next_distribution(target, ctx)
        best = greedy_token(p)
        accepted = tok == best
        records.append(
            PositionRecord(
                position=k,
                token=tok,
                accept_prob=1.0 if accepted else 0.0,
                accepted=accepted,
                target_prob=float(p[tok]),
            )
        )
        if not accepted:
            committed.append(best)
            return VerificationOutcome(
                accepted_len=k,
                committed=tuple(committed),
                per_position=tuple(records),
            )
        ctx.append(tok)
        committed.append(tok)
    committed.append(greedy_token(next_distribution(target, ctx)))
    return VerificationOutcome(
        accepted_len=len(proposal.tokens),
        committed=tuple(committed),
        per_position=tuple(records),
    )


@dataclass
class DecodeTrace:
    """Aggregate acceptance statistics across draft/verify rounds.

    Counts merge by addition, so traces from independent prompts combine
    associatively via :meth:`combine`.
    """

    draft_len: int
    steps: int = 0
    accepted_per_step: list[int] = field(default_factory=list)
    position_attempts: np.ndarray = field(init=False)
    position_accepts: np.ndarray = field(init=False)
    bin_attempts: np.ndarray = field(init=False)
    bin_accepts: np.ndarray = field(init=False)
    total_tokens: int = 0

    def __post_init__(self) -> None:
        if self.draft_len < 1:
            raise ValueError(f"draft_len must be >= 1, got {self.draft_len}")
        self.position_attempts = np.zeros(self.draft_len, dtype=np.int64)
        self.position_accepts = np.zeros(self.draft_len, dtype=np.int64)
        self.bin_attempts = np.zeros(NUM_CONFIDENCE_BINS, dtype=np.int64)
        self.bin_accepts = np.zeros(NUM_CONFIDENCE_BINS, dtype=np.int64)

    def record(self, outcome: VerificationOutcome) -> None:
        self.steps += 1
        self.accepted_per_step.append(outcome.accepted_len)
        self.total_tokens += len(outcome.committed)
        for rec in outcome.per_position:
            self.position_attempts[rec.position] += 1
            b = min(int(rec.target_prob * NUM_CONFIDENCE_BINS), NUM_CONFIDENCE_BINS - 1)
            self.bin_attempts[b] += 1
            if rec.accepted:
                self.position_accepts[rec.position] += 1
                self.bin_accepts[b] += 1

    @property
    def tau(self) -> float:
        """Mean accepted draft tokens per round, bonus/correction excluded."""
        if self.steps == 0:
            return 0.0
        return float(np.mean(self.accepted_per_step))

    @property
    def committed_per_step(self) -> float:
        if self.steps == 0:
            return 0.0
        return self.total_tokens / self.steps

    @classmethod
    def combine(cls, traces: Sequence["DecodeTrace"]) -> "DecodeTrace":
        """Merge traces by pure count addition (order preserved for per-step lists)."""
        if not traces:
            raise ValueError("need at least one trace to combine")
        draft_len = traces[0].draft_len
        if any(t.draft_len != draft_len for t in traces):
            raise ValueError("traces disagree on draft length")
        merged = cls(draft_len=draft_len)
        for t in traces:
            merged.steps += t.steps
            merged.accepted_per_step.extend(t.accepted_per_step)
            merged.position_attempts += t.position_attempts
            merged.position_accepts += t.position_accepts
            merged.bin_attempts += t.bin_attempts
            merged.bin_accepts += t.bin_accepts
            merged.total_tokens += t.total_tokens
        return merged

    def to_json_dict(self) -> dict:
        return {
            "steps": self.steps,
            "tau": self.tau,
            "committed_per_step": self.committed_per_step,
            "position_stats": [
                {
                    "k": k,
                    "attempts": int(self.position_attempts[k]),
                    "accepts": int(self.position_accepts[k]),
                }
                for k in range(self.draft_len)
            ],
            "confidence_bins": [
                {
                    "lo": b / NUM_CONFIDENCE_BINS,
                    "hi": (b + 1) / NUM_CONFIDENCE_BINS,
                    "attempts": int(self.bin_attempts[b]),
                    "accepts": int(self.bin_accepts[b]),
                }
                for b in range(NUM_CONFIDENCE_BINS)
            ],
            "total_tokens": self.total_tokens,
        }


def decode_loop(
    target: TabularModel,
    drafter: TabularModel,
    prompt: Sequence[Token],
    max_tokens: int,
    draft_len: int,
    mode: str,
    verify: str,
    rng: RNG | None = None,
) -> tuple[list[Token], DecodeTrace]:
    """Run draft/verify rounds until at least ``max_tokens`` are committed.

    In dependent mode the feature is recomputed from the committed prefix
    before every proposal; in independent mode the drafter never touches the
    target. Stochastic verification pairs with sampled drafts (required for
    losslessness), greedy verification with greedy drafts. The returned token
    list is truncated to ``max_tokens``; the trace keeps the untruncated
    counts, so the loop overshoots by at most ``draft_len`` tokens.

    The whole prompt is checked once, here. After that the loop carries only
    the last max(target order, drafter order) committed tokens, which is all
    any lookup reads, and hands that window to the feature, proposal and
    verification steps, so a round costs the same however long the output
    grows.
    """
    if len(prompt) == 0:
        raise ValueError("prompt must be nonempty")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if verify not in VERIFIERS:
        raise ValueError(f"verify must be one of {VERIFIERS}, got {verify!r}")
    if target.vocab.size != drafter.vocab.size:
        raise ValueError("target and drafter must share a vocabulary size")
    if verify == STOCHASTIC and rng is None:
        raise ValueError("stochastic verification requires an rng")
    for t in prompt:
        if not target.vocab.is_real(int(t)):
            raise ValueError(f"prompt must contain only real tokens, got {t}")

    draw_mode = SAMPLE if verify == STOCHASTIC else GREEDY
    width = max(target.order, drafter.order)
    window = [int(t) for t in prompt[-width:]]
    generated: list[Token] = []
    trace = DecodeTrace(draft_len=draft_len)
    while len(generated) < max_tokens:
        if mode == DEPENDENT:
            feature = compute_feature(target, window)
        else:
            feature = drafter.vocab.none_feature_id
        proposal = propose(drafter, window, draft_len, feature, mode=draw_mode, rng=rng)
        if verify == STOCHASTIC:
            outcome = verify_stochastic(target, window, proposal, rng)
        else:
            outcome = verify_greedy(target, window, proposal)
        trace.record(outcome)
        window = (window + list(outcome.committed))[-width:]
        generated.extend(outcome.committed)
    return generated[:max_tokens], trace
