"""Independent oracle implementations used by the test suite.

Everything here recomputes expected values through a different arithmetic
path than the library: exhaustive enumeration over branch outcomes,
brute-force counting, Monte Carlo simulation, and a projected-gradient
numeric optimizer. The oracles deliberately avoid calling the code paths
they are used to check.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple
from unittest import mock

import numpy as np

from speclab import models
from speclab.models import (
    GREEDY,
    RNG,
    Context,
    Symbol,
    TabularModel,
    Token,
    Vocabulary,
)
from speclab.training import CAT, CONFIDENCE_EPS, DECAY, TrainingWindows
from speclab.verification import DEPENDENT, MODES, NUM_CONFIDENCE_BINS, STOCHASTIC, VERIFIERS


# --- dict-built tables and scalar model paths ---------------------------------

SAMPLE = "sample"


def sample_token(dist: np.ndarray, rng: RNG) -> Token:
    """Draw one token by inverse CDF over token ids.

    Cumulative sums run in token-id order, so draws are bit-reproducible for
    a given seed. The uniform draw is scaled by the CDF's own total, which
    keeps it below the last cumulative sum even when rounding leaves that
    sum under one, so a draw never lands on a zero-probability token.
    """
    cdf = np.cumsum(dist)
    return int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))


def greedy_token(dist: np.ndarray) -> Token:
    """Argmax token id; ties break toward the lowest id."""
    return int(np.argmax(dist))



def model_from_table(order: int, vocab: Vocabulary, table: dict, fallback) -> TabularModel:
    """The array model of a context -> row dict, in the dict's order."""
    return TabularModel(order, vocab, list(table), list(table.values()), fallback)


def load_model_by_split(path) -> TabularModel:
    """A model file read by ``models.load_model`` with every row split into
    Python strings, which :class:`TabularModel` then converts and checks row
    by row: the reference for the array parse of ``models.load_model``."""
    with mock.patch.object(models, "_parsed_file", return_value=None):
        return models.load_model(path)


def save_model_by_percent(model: TabularModel, path) -> None:
    """A model file written one row at a time by ``%`` formatting, ``%d``
    per context symbol and ``%.17g`` per probability: the reference for the
    array formatter of ``models.save_model``."""
    probs = " ".join(["%.17g"] * model.vocab.size) + "\n"
    line = " ".join(["%d"] * model.order) + "\t" + probs
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"ngram v={model.vocab.size} d={model.order}\n")
        out.write("*\t" + probs % tuple(model.fallback.tolist()))
        out.write("".join(line % (*ctx, *row) for ctx, row in
                          zip(model.contexts.tolist(), model.rows.tolist())))


def token_of_feature(vocab: Vocabulary, symbol: int) -> int:
    """The real token a feature symbol lifts; the inverse of ``vocab.feature_ids[t]``."""
    if symbol not in vocab.feature_ids:
        raise ValueError(f"not a feature symbol: {symbol}")
    return symbol - vocab.size - 1


def padded_suffix(symbols, order: int, pad_id: int) -> tuple:
    """Order-sized suffix of ``symbols``, left-filled with the pad symbol."""
    tail = tuple(map(int, symbols[-order:])) if order > 0 else ()
    if len(tail) < order:
        tail = (pad_id,) * (order - len(tail)) + tail
    return tail


_ROW_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def next_row(model: TabularModel, context) -> np.ndarray:
    """The model's row for the pad-filled order-d suffix of ``context``, else
    its fallback, read from a dict built once per model from
    ``model.contexts`` and ``model.rows``. The scalar oracles read rows here,
    not through the library lookup that they are used to check."""
    table = _ROW_TABLES.get(model)
    if table is None:
        table = _ROW_TABLES[model] = dict(zip(map(tuple, model.contexts.tolist()), model.rows))
    return table.get(padded_suffix(context, model.order, model.vocab.pad_id), model.fallback)


def generate_autoregressive(model: TabularModel, prefix, n: int, mode: str = GREEDY,
                            rng=None) -> list[int]:
    """Generate ``n`` tokens one at a time, each conditioned on the running
    suffix: one :func:`next_row` and one draw per token."""
    if mode not in (GREEDY, SAMPLE):
        raise ValueError(f"mode must be one of {(GREEDY, SAMPLE)}, got {mode!r}")
    if mode == SAMPLE and rng is None:
        raise ValueError("sample mode requires an rng")
    for t in prefix:
        if not 0 <= int(t) < model.vocab.size:
            raise ValueError(f"prefix must contain only real tokens, got {t}")
    seq = [int(t) for t in prefix]
    out: list[int] = []
    for _ in range(n):
        dist = next_row(model, seq)
        tok = greedy_token(dist) if mode == GREEDY else sample_token(dist, rng)
        seq.append(tok)
        out.append(tok)
    return out


def build_ngram_model(corpus, order: int, vocab_size: int, smoothing: float = 0.1
                      ) -> TabularModel:
    """Estimate an order-d model by add-k counting over a token corpus.

    Every position of every sequence contributes one (context, token) event,
    with contexts left-padded at sequence starts. Each stored distribution is
    (count + k) / (total + k*V); the fallback is the add-k unigram over all
    events. An empty corpus with k = 0 has no valid distributions and raises.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if smoothing < 0:
        raise ValueError(f"smoothing must be >= 0, got {smoothing}")
    vocab = Vocabulary(vocab_size)
    counts: dict[tuple, np.ndarray] = {}
    unigram = np.zeros(vocab_size, dtype=np.float64)
    for seq in corpus:
        toks = [int(t) for t in seq]
        for t in toks:
            if not 0 <= t < vocab.size:
                raise ValueError(f"corpus token out of range [0, {vocab_size}): {t}")
        for i, tok in enumerate(toks):
            ctx = padded_suffix(toks[:i], order, vocab.pad_id)
            counts.setdefault(ctx, np.zeros(vocab_size, dtype=np.float64))[tok] += 1.0
            unigram[tok] += 1.0
    total = float(unigram.sum())
    if total == 0.0 and smoothing == 0.0:
        raise ValueError("empty corpus with zero smoothing has no valid distributions")
    table = {
        ctx: (vec + smoothing) / (vec.sum() + smoothing * vocab_size)
        for ctx, vec in counts.items()
    }
    fallback = (unigram + smoothing) / (total + smoothing * vocab_size)
    return model_from_table(order, vocab, table, fallback)


# --- scalar weight and reach recursions ---------------------------------------


def decay_weights(gamma: float, draft_len: int) -> list[float]:
    """Fixed position-wise decay gamma**k; gamma = 1 gives uniform weights."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if draft_len < 1:
        raise ValueError(f"draft_len must be >= 1, got {draft_len}")
    weights = [1.0]
    for _ in range(draft_len - 1):
        weights.append(weights[-1] * gamma)
    return weights


def expected_accept_length(accept_probs) -> float:
    """Expected number of accepted draft tokens, sum over k of prod_{j<=k} a_j."""
    total = 0.0
    running = 1.0
    for a in accept_probs:
        a = float(a)
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"acceptance probability out of [0, 1]: {a}")
        running *= a
        total += running
    return total


def prefix_reach_probs(accept_probs) -> list[float]:
    """Probability that each position is reached: s_0 = 1, s_k = prod_{j<k} a_j."""
    reach = [1.0]
    for a in accept_probs[:-1]:
        a = float(a)
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"acceptance probability out of [0, 1]: {a}")
        reach.append(reach[-1] * a)
    return reach[: len(accept_probs)]


# --- exact enumeration of the stochastic draft/verify process ---------------


def round_block_distribution(
    target: TabularModel, drafter: TabularModel, context: tuple, draft_len: int
) -> dict[tuple, float]:
    """Exact committed-block distribution of one stochastic draft/verify round.

    Mirrors the sampled process: drafted token y at position k appears with
    probability q_k(y), is accepted with min(1, p_k(y)/q_k(y)), a rejection
    draws a correction from normalize(max(0, p_k - q_k)), and full acceptance
    draws a bonus token from p_K. Because parallel drafting never conditions
    on drafted tokens, positions enumerate independently given the accepted
    prefix.
    """
    vocab = drafter.vocab
    qs = [
        next_row(drafter, tuple(context) + (vocab.mask_id,) * k)
        for k in range(draft_len)
    ]
    out: dict[tuple, float] = defaultdict(float)

    def walk(k: int, accepted: tuple, prob: float) -> None:
        p = next_row(target, tuple(context) + accepted)
        if k == draft_len:
            for b, pb in enumerate(p):
                if pb > 0.0:
                    out[accepted + (b,)] += prob * pb
            return
        q = qs[k]
        reject_mass = 0.0
        for y, qy in enumerate(q):
            if qy <= 0.0:
                continue
            a = min(1.0, float(p[y]) / float(qy))
            if a > 0.0:
                walk(k + 1, accepted + (y,), prob * float(qy) * a)
            reject_mass += float(qy) * (1.0 - a)
        if reject_mass > 0.0:
            diff = np.clip(np.asarray(p) - q, 0.0, None)
            mass = float(diff.sum())
            corr = diff / mass if mass > 0.0 else np.asarray(p)
            for w, rw in enumerate(corr):
                if rw > 0.0:
                    out[accepted + (w,)] += prob * reject_mass * float(rw)

    walk(0, (), 1.0)
    return dict(out)


def decode_sequence_distribution(
    target: TabularModel,
    drafter: TabularModel,
    prefix: tuple,
    draft_len: int,
    horizon: int,
) -> dict[tuple, float]:
    """Exact distribution of the first ``horizon`` committed tokens.

    Chains round enumerations until every branch reaches the horizon,
    truncating overshoot. Requires order-1 models so a round's outcome
    depends only on the last committed token.
    """
    if target.order != 1 or drafter.order != 1:
        raise ValueError("enumeration oracle assumes order-1 models")
    cache: dict[int, dict[tuple, float]] = {}
    final: dict[tuple, float] = defaultdict(float)

    def outcomes(last: int) -> dict[tuple, float]:
        if last not in cache:
            cache[last] = round_block_distribution(target, drafter, (last,), draft_len)
        return cache[last]

    def go(tail: tuple, prob: float) -> None:
        if len(tail) >= horizon:
            final[tail[:horizon]] += prob
            return
        last = tail[-1] if tail else int(prefix[-1])
        for block, bp in outcomes(last).items():
            go(tail + block, prob * bp)

    go((), 1.0)
    return dict(final)


def ar_sequence_distribution(
    target: TabularModel, prefix: tuple, horizon: int
) -> dict[tuple, float]:
    """Exact autoregressive distribution over length-``horizon`` continuations."""
    final: dict[tuple, float] = {}

    def go(tail: tuple, prob: float) -> None:
        if len(tail) == horizon:
            final[tail] = prob
            return
        p = next_row(target, tuple(prefix) + tail)
        for y, py in enumerate(p):
            if py > 0.0:
                go(tail + (y,), prob * float(py))

    go((), 1.0)
    return final


def random_order1_model(vocab_size: int, rng: np.random.Generator) -> TabularModel:
    """Full-support order-1 model with entries for real, mask, and pad symbols."""
    vocab = Vocabulary(vocab_size)
    alpha = np.ones(vocab_size)
    symbols = list(range(vocab_size)) + [vocab.mask_id, vocab.pad_id]
    table = {(s,): rng.dirichlet(alpha) for s in symbols}
    return model_from_table(1, vocab, table, rng.dirichlet(alpha))


def sparse_row(vocab_size: int, rng: np.random.Generator) -> np.ndarray:
    """Random distribution with about 30% of its entries zero, never all."""
    p = rng.dirichlet(np.ones(vocab_size))
    p[rng.random(vocab_size) < 0.3] = 0.0
    if p.sum() == 0.0:
        p[rng.integers(vocab_size)] = 1.0
    return p / p.sum()


def sparse_order1_pair(
    vocab_size: int, rng: np.random.Generator
) -> tuple[TabularModel, TabularModel]:
    """Order-1 target and drafter whose rows have zero entries.

    The real-token contexts take three relations in turn, in a random order
    of the tokens: the drafter is zero on a token the target gives mass, the
    target is zero on a token the drafter gives mass, and p = q. With
    vocab_size >= 3 every pair has all three. The other rows (the mask and
    pad contexts, both fallbacks) are independent sparse rows.
    """
    vocab = Vocabulary(vocab_size)

    def zero_where_positive(base):
        r = sparse_row(vocab_size, rng)
        j = int(rng.choice(np.flatnonzero(base > 0.0)))
        r[j] = 0.0
        if r.sum() == 0.0:
            r[(j + 1) % vocab_size] = 1.0
        return r / r.sum()

    target: dict[tuple, np.ndarray] = {}
    drafter: dict[tuple, np.ndarray] = {}
    for rank, token in enumerate(rng.permutation(vocab_size).tolist()):
        if rank % 3 == 0:
            p = sparse_row(vocab_size, rng)
            q = zero_where_positive(p)
        elif rank % 3 == 1:
            q = sparse_row(vocab_size, rng)
            p = zero_where_positive(q)
        else:
            p = q = sparse_row(vocab_size, rng)
        target[(token,)], drafter[(token,)] = p, q
    for symbol in (vocab.mask_id, vocab.pad_id):
        target[(symbol,)] = sparse_row(vocab_size, rng)
        drafter[(symbol,)] = sparse_row(vocab_size, rng)
    return tuple(model_from_table(1, vocab, table, sparse_row(vocab_size, rng))
                 for table in (target, drafter))


# --- scalar draft/verify round ----------------------------------------------
#
# One prompt and one round at a time, one row per lookup: the reference that
# the batch decode loop is held to token for token.


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
    top = greedy_token(next_row(target, prefix))
    return target.vocab.feature_ids[top]


def masked_context(
    prefix: Sequence[Token], feature: Symbol, k: int, vocab: Vocabulary, order: int
) -> Context:
    """Drafter context at position k: the pad-filled order-``order`` suffix
    of (prefix ++ feature slot ++ k masks), for :func:`propose`.

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
    :func:`sample_token` inverts one.
    """
    if draft_len < 1:
        raise ValueError(f"draft_len must be >= 1, got {draft_len}")
    if mode not in (GREEDY, SAMPLE):
        raise ValueError(f"mode must be '{GREEDY}' or '{SAMPLE}', got {mode!r}")
    if mode == SAMPLE and rng is None:
        raise ValueError("sample mode requires an rng")
    vocab = drafter.vocab
    for t in prefix:
        if not 0 <= int(t) < vocab.size:
            raise ValueError(f"prefix must contain only real tokens, got {t}")
    if feature != vocab.none_feature_id and feature not in vocab.feature_ids:
        raise ValueError(f"feature symbol out of range: {feature}")

    distinct = [
        next_row(drafter, masked_context(prefix, feature, k, vocab, drafter.order))
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
        p = next_row(target, ctx)
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
    bonus = sample_token(next_row(target, ctx), rng)
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
        p = next_row(target, ctx)
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
    committed.append(greedy_token(next_row(target, ctx)))
    return VerificationOutcome(
        accepted_len=len(proposal.tokens),
        committed=tuple(committed),
        per_position=tuple(records),
    )


def trace_counts(outcomes, draft_len: int) -> dict:
    """The counts a decode trace keeps, tallied one scalar round at a time."""
    hist, attempts, accepts = [0] * (draft_len + 1), [0] * draft_len, [0] * draft_len
    bin_attempts, bin_accepts = [0] * NUM_CONFIDENCE_BINS, [0] * NUM_CONFIDENCE_BINS
    for outcome in outcomes:
        hist[outcome.accepted_len] += 1
        for rec in outcome.per_position:
            b = min(int(rec.target_prob * NUM_CONFIDENCE_BINS), NUM_CONFIDENCE_BINS - 1)
            attempts[rec.position] += 1
            bin_attempts[b] += 1
            if rec.accepted:
                accepts[rec.position] += 1
                bin_accepts[b] += 1
    return {
        "steps": len(outcomes),
        "total_tokens": sum(len(o.committed) for o in outcomes),
        "accept_hist": hist,
        "position_attempts": attempts,
        "position_accepts": accepts,
        "bin_attempts": bin_attempts,
        "bin_accepts": bin_accepts,
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
) -> tuple[list[Token], list[VerificationOutcome]]:
    """Run one prompt's draft/verify rounds until at least ``max_tokens``
    are committed; returns the first ``max_tokens`` tokens and every round.

    In dependent mode the feature is recomputed from the committed prefix
    before every proposal; in independent mode the drafter never touches the
    target. Stochastic verification pairs with sampled drafts, greedy
    verification with greedy drafts. The loop carries only the last
    max(target order, drafter order) committed tokens, which is all any
    lookup reads.
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
        if not 0 <= int(t) < target.vocab.size:
            raise ValueError(f"prompt must contain only real tokens, got {t}")

    draw_mode = SAMPLE if verify == STOCHASTIC else GREEDY
    width = max(target.order, drafter.order)
    window = [int(t) for t in prompt[-width:]]
    generated: list[Token] = []
    outcomes = []
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
        outcomes.append(outcome)
        window = (window + list(outcome.committed))[-width:]
        generated.extend(outcome.committed)
    return generated[:max_tokens], outcomes


# --- full-prefix reference decode loop ---------------------------------------


def propose_per_position(drafter, prefix, draft_len, feature, mode, rng) -> DraftProposal:
    """Reference drafter pass: one lookup and one draw per position, in order.

    Position k is looked up on the whole prefix plus the feature slot and k
    masks, and sampled with its own ``sample_token`` call.
    """
    vocab = drafter.vocab
    base = tuple(int(t) for t in prefix)
    if feature != vocab.none_feature_id:
        base = base + (feature,)
    tokens, dists = [], []
    for k in range(draft_len):
        dist = next_row(drafter, base + (vocab.mask_id,) * k)
        tokens.append(greedy_token(dist) if mode == GREEDY else sample_token(dist, rng))
        dists.append(dist)
    return DraftProposal(tokens=tuple(tokens), dists=tuple(dists))


def decode_loop_full_prefix(
    target, drafter, prompt, max_tokens, draft_len, mode, verify, rng=None
) -> tuple[list[int], list[VerificationOutcome]]:
    """Reference draft/verify loop that hands the whole committed prefix to
    every feature, proposal and verification step."""
    draw_mode = SAMPLE if verify == STOCHASTIC else GREEDY
    seq = [int(t) for t in prompt]
    generated: list[int] = []
    outcomes = []
    while len(generated) < max_tokens:
        if mode == DEPENDENT:
            feature = compute_feature(target, seq)
        else:
            feature = drafter.vocab.none_feature_id
        proposal = propose_per_position(drafter, seq, draft_len, feature, draw_mode, rng)
        if verify == STOCHASTIC:
            outcome = verify_stochastic(target, seq, proposal, rng)
        else:
            outcome = verify_greedy(target, seq, proposal)
        outcomes.append(outcome)
        seq.extend(outcome.committed)
        generated.extend(outcome.committed)
    return generated[:max_tokens], outcomes


# --- perfect-drafter constructions ------------------------------------------


def constant_model(vocab_size: int, order: int, token: int) -> TabularModel:
    """Model that emits ``token`` deterministically from every context."""
    vocab = Vocabulary(vocab_size)
    onehot = np.zeros(vocab_size)
    onehot[token] = 1.0
    symbols = list(range(vocab_size)) + [vocab.pad_id]
    table = {c: onehot for c in itertools.product(symbols, repeat=order)}
    return model_from_table(order, vocab, table, onehot)


def mask_closed_self_drafter(base: TabularModel, draft_len: int) -> TabularModel:
    """Extend an order-1 base so the model can serve as its own exact drafter.

    The extension has order draft_len - 1 + 1: real contexts keep the base's
    conditionals (so target behavior is unchanged), while every mask-suffixed
    context carries a one-hot at the base's greedy rollout continuation. A
    greedy proposal from this model therefore reproduces the base's greedy
    continuation at every draft position, making self-drafting exact.
    """
    if base.order != 1:
        raise ValueError("mask-closed construction assumes an order-1 base")
    vocab = base.vocab
    V = vocab.size
    order = draft_len
    rollouts = {}
    for s in range(V):
        seq = [s]
        for _ in range(draft_len + 1):
            seq.append(greedy_token(next_row(base, seq)))
        rollouts[s] = seq[1:]
    onehots = []
    for t in range(V):
        v = np.zeros(V)
        v[t] = 1.0
        onehots.append(v)
    table: dict[tuple, np.ndarray] = {}
    for r in itertools.product(range(V), repeat=order):
        table[r] = next_row(base, r)
    for k in range(1, draft_len):
        for r in itertools.product(range(V), repeat=order - k):
            table[r + (vocab.mask_id,) * k] = onehots[rollouts[r[-1]][k]]
    return model_from_table(order, vocab, table, base.fallback)


# --- masked-event add-k estimation (training reduction oracle) --------------


def rewritten_context(prefix, feature, k: int, vocab: Vocabulary, order: int) -> tuple:
    """Mask rewrite of one training event, by list arithmetic.

    The order-d (pad-filled) suffix of prefix + [feature] + [mask]*k, where
    the sentinel ``vocab.none_feature_id`` puts no feature in the list.
    """
    slot = [] if feature == vocab.none_feature_id else [feature]
    rewritten = [vocab.pad_id] * order + list(prefix) + slot + [vocab.mask_id] * k
    return tuple(rewritten[-order:])


def addk_masked_event_model(
    sequences, vocab: Vocabulary, order: int, draft_len: int, smoothing: float
) -> tuple[dict[tuple, np.ndarray], np.ndarray]:
    """Add-k n-gram estimation over the mask-rewritten window events.

    For each window start n >= 1 and offset k, the d tokens preceding label
    position n + k are rewritten so drafted positions become masks: the event
    context is the order-d (pad-filled) suffix of seq[:n] + [mask]*k and the
    label is seq[n+k]. Returns the per-context tables and the add-k unigram
    fallback over event labels, computed with plain counters.
    """
    V = vocab.size
    counts: dict[tuple, np.ndarray] = {}
    labels = np.zeros(V)
    for seq in sequences:
        seq = list(seq)
        if len(seq) < draft_len + 1:
            continue
        for n in range(1, len(seq) - draft_len + 1):
            for k in range(draft_len):
                ctx = rewritten_context(seq[:n], vocab.none_feature_id, k, vocab, order)
                vec = counts.setdefault(ctx, np.zeros(V))
                vec[seq[n + k]] += 1.0
                labels[seq[n + k]] += 1.0
    table = {
        c: (v + smoothing) / (v.sum() + smoothing * V) for c, v in counts.items()
    }
    fallback = (labels + smoothing) / (labels.sum() + smoothing * V)
    return table, fallback


# --- scalar trainer: one window and one position at a time ------------------


def target_confidences(target: TabularModel, sequence, n: int, draft_len: int) -> list[float]:
    """Teacher-forced probabilities of the ground-truth tokens after position n.

    Confidence k is the target's probability of sequence[n+k] conditioned on
    the true prefix sequence[:n+k]; drafted tokens and masks never enter.
    """
    if n < 0 or n + draft_len > len(sequence):
        raise ValueError("window [n, n + draft_len) must lie inside the sequence")
    d = target.order
    return [
        float(next_row(target, sequence[max(0, n + k - d) : n + k])[sequence[n + k]])
        for k in range(draft_len)
    ]


def scalar_cat_weights(confidences) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The clamped cumulative-product recursion, one position at a time:
    (clamped confidences, weights)."""
    clamped = []
    for c in confidences:
        c = float(c)
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"confidence out of [0, 1]: {c}")
        clamped.append(min(max(c, CONFIDENCE_EPS), 1.0))
    weights = [1.0]
    for c in clamped[:-1]:
        weights.append(weights[-1] * c)
    return tuple(clamped), tuple(weights)


class Window(NamedTuple):
    """One training window as a plain record, the unit of the scalar oracles.

    ``prefix_context`` is the pad-filled order-d suffix of the true prefix,
    ``target_dists`` the target's K teacher-forced conditionals, ``feature``
    the gated feature symbol or the sentinel, and ``confidences`` and
    ``weights`` the clamped confidences and their cumulative products.
    """

    prefix_context: tuple
    future_tokens: tuple
    target_dists: tuple
    feature: int
    confidences: tuple
    weights: tuple


def window_record(windows: TrainingWindows, i: int) -> Window:
    """Row i of the array container as a record; its target rows are views."""
    start = int(windows.starts[i])
    return Window(
        prefix_context=tuple(windows.prefix_contexts[i].tolist()),
        future_tokens=tuple(windows.future_tokens[i].tolist()),
        target_dists=tuple(windows.target_rows[start : start + windows.weights.shape[1]]),
        feature=int(windows.features[i]),
        confidences=tuple(windows.confidences[i].tolist()),
        weights=tuple(windows.weights[i].tolist()),
    )


def scalar_training_windows(target: TabularModel, corpus, config, rng) -> list[Window]:
    """Reference window builder: K target lookups, one gate draw and one
    weight recursion per window, in corpus order."""
    vocab = target.vocab
    d = target.order
    d_drafter = config.drafter_order if config.drafter_order is not None else d
    K = config.draft_len
    windows = []
    for seq in corpus:
        seq = [int(t) for t in seq]
        for t in seq:
            if not 0 <= t < vocab.size:
                raise ValueError(f"corpus token out of range [0, {vocab.size}): {t}")
        if len(seq) < K + 1:
            continue
        for n in range(1, len(seq) - K + 1):
            dists = tuple(
                next_row(target, seq[max(0, n + k - d) : n + k]) for k in range(K)
            )
            future = tuple(seq[n : n + K])
            feature = vocab.feature_ids[greedy_token(next_row(target, seq[:n]))]
            if 0.0 < config.rho < 1.0:
                if rng.random() < config.rho:
                    feature = vocab.none_feature_id
            elif config.rho >= 1.0:
                feature = vocab.none_feature_id
            if config.weighting == CAT:
                conf = target_confidences(target, seq, n, K)
            elif config.weighting == DECAY:
                conf = [config.gamma] * K
            else:
                conf = [1.0] * K
            windows.append(Window(
                rewritten_context(seq[:n], vocab.none_feature_id, 0, vocab, d_drafter),
                future, dists, feature, *scalar_cat_weights(conf),
            ))
    return windows


def scalar_train_drafter(windows: list[Window], config) -> TabularModel:
    """Reference closed-form solve: one soft-count update per window position,
    the distillation row before the one-hot, contexts kept in first-seen
    order and summed in that order into the fallback's aggregate."""
    if not windows:
        raise ValueError("cannot train a drafter from zero windows")
    vocab_size = len(windows[0].target_dists[0])
    order = len(windows[0].prefix_context)
    if len(windows[0].future_tokens) != config.draft_len:
        raise ValueError(
            f"windows built for draft_len {len(windows[0].future_tokens)}, "
            f"config says {config.draft_len}"
        )
    vocab = Vocabulary(vocab_size)
    soft: dict[tuple, np.ndarray] = {}
    for w in windows:
        for k, y in enumerate(w.future_tokens):
            s = w.weights[k]
            if s == 0.0:
                continue
            ctx = rewritten_context(w.prefix_context, w.feature, k, vocab, order)
            vec = soft.setdefault(ctx, np.zeros(vocab_size))
            if config.kd_weight > 0.0:
                vec += (s * config.kd_weight) * w.target_dists[k]
            if config.beta > 0.0:
                vec[y] += s * config.beta
    if not soft:
        raise ValueError("all window weights were zero; nothing to train on")
    smoothing = config.smoothing
    table = {}
    aggregate = np.zeros(vocab_size)
    for ctx, vec in soft.items():
        mass = float(vec.sum())
        if mass + smoothing * vocab_size == 0.0:
            raise ValueError("context received zero training mass; increase smoothing")
        table[ctx] = (vec + smoothing) / (mass + smoothing * vocab_size)
        aggregate += vec
    fallback = (aggregate + smoothing) / (aggregate.sum() + smoothing * vocab_size)
    return model_from_table(order, vocab, table, fallback)


def stack_windows(windows: list[Window]) -> TrainingWindows:
    """Array container of window records; each window gets its own K
    target rows, so window i's rows start at i * K."""
    draft_len = len(windows[0].future_tokens)
    rows = np.array([p for w in windows for p in w.target_dists], dtype=np.float64)
    return TrainingWindows(
        target_rows=rows.reshape(len(windows) * draft_len, -1),
        starts=np.arange(len(windows)) * draft_len,
        prefix_contexts=np.array([w.prefix_context for w in windows]),
        future_tokens=np.array([w.future_tokens for w in windows]),
        features=np.array([w.feature for w in windows]),
        confidences=np.array([w.confidences for w in windows]),
        weights=np.array([w.weights for w in windows]),
    )


def window_loss(drafter: TabularModel, windows: TrainingWindows, i: int, config) -> float:
    """Weighted CE + KD objective of window i, one position at a time.

    CE is -log q(ground truth), KD is forward KL(target || drafter); weights
    are constants and a zero-weight position is skipped. Returns inf when
    the drafter gives zero mass where the objective needs support.
    """
    w = window_record(windows, i)
    vocab = drafter.vocab
    total = 0.0
    for k, y in enumerate(w.future_tokens):
        s = w.weights[k]
        if s == 0.0:
            continue
        ctx = rewritten_context(w.prefix_context, w.feature, k, vocab, drafter.order)
        q = next_row(drafter, ctx)
        term = 0.0
        if config.beta > 0.0:
            qy = float(q[y])
            term += config.beta * (math.inf if qy <= 0.0 else -math.log(qy))
        if config.kd_weight > 0.0:
            p = w.target_dists[k]
            support = p > 0.0
            if np.any(support & (np.asarray(q) <= 0.0)):
                term += math.inf
            else:
                ps = p[support]
                term += config.kd_weight * float(np.sum(ps * (np.log(ps) - np.log(q[support]))))
        total += s * term
        if math.isinf(total):
            return math.inf
    return float(total)


# --- numeric minimizer for the tabular training objective -------------------


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(v) + 1)
    cond = u - (css - 1.0) / ks > 0
    rho = int(ks[cond][-1])
    theta = (css[rho - 1] - 1.0) / rho
    return np.clip(v - theta, 0.0, None)


def group_loss_terms(windows: TrainingWindows, vocab: Vocabulary, order: int) -> dict[tuple, list]:
    """Raw (weight, label, target_dist) loss terms grouped by masked context."""
    terms: dict[tuple, list] = {}
    for i in range(len(windows)):
        w = window_record(windows, i)
        base = w.prefix_context
        if w.feature != vocab.none_feature_id:
            base = base + (w.feature,)
        for k, y in enumerate(w.future_tokens):
            s = w.weights[k]
            if s == 0.0:
                continue
            ctx = (base + (vocab.mask_id,) * k)[-order:]
            terms.setdefault(ctx, []).append((s, y, np.asarray(w.target_dists[k])))
    return terms


def direct_context_loss(q: np.ndarray, terms, beta: float, kd_weight: float) -> float:
    """Direct summation of the weighted CE + KD objective for one context."""
    total = 0.0
    for s, y, p in terms:
        val = 0.0
        if beta > 0.0:
            val += beta * (np.inf if q[y] <= 0.0 else -np.log(q[y]))
        if kd_weight > 0.0:
            sup = p > 0.0
            if np.any(sup & (q <= 0.0)):
                val += np.inf
            else:
                val += kd_weight * float(np.sum(p[sup] * (np.log(p[sup]) - np.log(q[sup]))))
        total += s * val
    return float(total)


def _direct_context_grad(q: np.ndarray, terms, beta: float, kd_weight: float) -> np.ndarray:
    g = np.zeros_like(q)
    for s, y, p in terms:
        if beta > 0.0:
            g[y] -= s * beta / q[y]
        if kd_weight > 0.0:
            g -= s * kd_weight * p / q
    return g


def pgd_minimize_context(
    terms, vocab_size: int, beta: float, kd_weight: float, iters: int = 6000
) -> tuple[np.ndarray, float]:
    """Projected gradient descent with backtracking from the uniform start."""
    q = np.full(vocab_size, 1.0 / vocab_size)
    f = direct_context_loss(q, terms, beta, kd_weight)
    step = 1.0
    for _ in range(iters):
        g = _direct_context_grad(q, terms, beta, kd_weight)
        improved = False
        while step > 1e-18:
            cand = project_to_simplex(q - step * g)
            fc = direct_context_loss(cand, terms, beta, kd_weight)
            if fc < f:
                q, f = cand, fc
                step *= 1.5
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return q, f


# --- stand-in rng ------------------------------------------------------------


class FixedUniform:
    """Stand-in rng whose uniform draws all equal ``u``."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


# --- Monte Carlo oracles -----------------------------------------------------


def simulate_accept_lengths(
    accept_probs, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Sequential Bernoulli acceptance process; one accepted length per trial."""
    a = np.asarray(accept_probs, dtype=np.float64)
    draws = rng.random((trials, a.size))
    return np.cumprod(draws < a, axis=1).sum(axis=1)
