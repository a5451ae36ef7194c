"""Lossless draft verification: the batch draft/verify decode loop.

Stochastic verification walks the drafted tokens in order, accepting token y
with probability min(1, p(y)/q(y)) and sampling a correction from the
normalized positive part of p - q on the first rejection; with a bonus token
on full acceptance, the committed stream is distributed exactly as if the
target had generated it alone. Greedy verification is the temperature-0
counterpart: accept while the draft matches the target's argmax, so the
committed stream is exactly the target's greedy continuation.

:func:`decode_loop` decodes a whole batch of prompts in lockstep.
Verification always conditions the target on real committed tokens; mask
placeholders exist only inside the drafter. The one-prompt scalar round
(propose, then verify) lives on in ``tests/oracles.py`` as the reference the
batch loop is held to.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .drafting import masked_contexts
from .models import (
    GREEDY,
    RNG,
    TabularModel,
    Token,
    next_distribution,
)
from . import models

STOCHASTIC = "stochastic"
VERIFIERS = (STOCHASTIC, GREEDY)

DEPENDENT = "dependent"
INDEPENDENT = "independent"
MODES = (DEPENDENT, INDEPENDENT)

#: Equal-width bins over the target's probability of the drafted token.
NUM_CONFIDENCE_BINS = 10

#: Elements of one (prompts, positions, K) block of the greedy kernel.
_GREEDY_BLOCK = 1 << 16

#: Positions in the first segment of the greedy stream walk; each later
#: segment is twice as long as the one before.
_GREEDY_SEGMENT = 16


@dataclass
class DecodeTrace:
    """Acceptance statistics over draft/verify rounds.

    ``accept_hist[a]`` counts the rounds that accepted ``a`` of the K
    drafted tokens. A round attempts positions 0..min(a, K - 1) and commits
    a + 1 tokens, so the round count, the committed tokens and the
    per-position counts all follow from the histogram. The confidence bins
    count attempted and accepted positions by the target's probability of
    the drafted token. The trace holds counts only; the bench report lays
    them out.
    """

    draft_len: int
    accept_hist: np.ndarray = field(init=False)
    bin_attempts: np.ndarray = field(init=False)
    bin_accepts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.draft_len < 1:
            raise ValueError(f"draft_len must be >= 1, got {self.draft_len}")
        self.accept_hist = np.zeros(self.draft_len + 1, dtype=np.int64)
        self.bin_attempts = np.zeros(NUM_CONFIDENCE_BINS, dtype=np.int64)
        self.bin_accepts = np.zeros(NUM_CONFIDENCE_BINS, dtype=np.int64)

    def record(self, accepted: np.ndarray, target_probs: np.ndarray) -> None:
        """Add r rounds: their accepted lengths (r,) and the target's
        probability of each drafted token (r, K). Entries past a round's
        attempted positions are not read."""
        k = np.arange(self.draft_len)
        bins = np.minimum((target_probs * NUM_CONFIDENCE_BINS).astype(np.intp),
                          NUM_CONFIDENCE_BINS - 1)
        self.accept_hist += np.bincount(accepted, minlength=self.draft_len + 1)
        self.bin_attempts += np.bincount(bins[k <= accepted[:, None]],
                                         minlength=NUM_CONFIDENCE_BINS)
        self.bin_accepts += np.bincount(bins[k < accepted[:, None]],
                                        minlength=NUM_CONFIDENCE_BINS)

    @property
    def steps(self) -> int:
        return int(self.accept_hist.sum())

    @property
    def accepted_total(self) -> int:
        return int(np.arange(self.draft_len + 1) @ self.accept_hist)

    @property
    def total_tokens(self) -> int:
        return self.steps + self.accepted_total

    @property
    def position_attempts(self) -> np.ndarray:
        """Rounds that attempted position k: those that accepted >= k."""
        return np.cumsum(self.accept_hist[::-1])[::-1][:-1]

    @property
    def position_accepts(self) -> np.ndarray:
        """Rounds that accepted position k: those that accepted > k."""
        return np.cumsum(self.accept_hist[::-1])[::-1][1:]

    @property
    def tau(self) -> float:
        """Mean accepted draft tokens per round, bonus/correction excluded.

        The accepted total is an exact integer, so this is the same float as
        the mean of the per-round lengths.
        """
        steps = self.steps
        return self.accepted_total / steps if steps else 0.0


def decode_loop(
    target: TabularModel,
    drafter: TabularModel,
    prompts: Sequence[Sequence[Token]],
    max_tokens: int,
    draft_len: int,
    mode: str,
    verify: str,
    rngs: Sequence[RNG] | None = None,
) -> tuple[np.ndarray, DecodeTrace]:
    """Decode every prompt until each has at least ``max_tokens`` committed.

    In dependent mode the drafter's feature slot holds the target's greedy
    token at the committed prefix; in independent mode the drafter never
    touches the target. Stochastic verification pairs with sampled drafts
    (required for losslessness) and draws prompt i's uniforms from
    ``rngs[i]`` alone, in the order one prompt's scalar rounds draw them;
    greedy verification pairs with greedy drafts and draws nothing.

    Returns the (n, ``max_tokens``) committed tokens and one trace of every
    round. The trace keeps the untruncated counts, so a prompt overshoots by
    at most ``draft_len`` tokens. Every input is checked here, once; the
    rounds then read rows by exact context code, and a round costs the same
    however long the output grows.
    """
    if len(prompts) == 0:
        raise ValueError("prompts must be nonempty")
    if max_tokens < 1 or draft_len < 1:
        raise ValueError(f"max_tokens and draft_len must be >= 1, got {max_tokens} "
                         f"and {draft_len}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if verify not in VERIFIERS:
        raise ValueError(f"verify must be one of {VERIFIERS}, got {verify!r}")
    if target.vocab.size != drafter.vocab.size:
        raise ValueError("target and drafter must share a vocabulary size")
    if verify == STOCHASTIC and rngs is None:
        raise ValueError("stochastic verification requires rngs")
    if rngs is not None:
        if len(rngs) != len(prompts):
            raise ValueError(f"got {len(rngs)} rngs for {len(prompts)} prompts")
        if len({id(rng.bit_generator) for rng in rngs}) != len(rngs):
            raise ValueError("every prompt needs an rng of its own")
    lengths = np.array([len(p) for p in prompts])
    if (lengths == 0).any():
        raise ValueError("prompt must be nonempty")
    vocab = target.vocab
    try:
        flat = np.fromiter(map(operator.index, itertools.chain.from_iterable(prompts)),
                           dtype=np.int64, count=int(lengths.sum()))
        real = bool(((flat >= 0) & (flat < vocab.size)).all())
    except (OverflowError, TypeError):  # a token beyond int64, or not an integer
        real = False
    if not real:
        bad = next(t for t in itertools.chain.from_iterable(prompts) if not vocab.is_real(t))
        raise ValueError(f"prompt must contain only real tokens, got {bad}")

    # Row i holds prompt i's last ``width`` tokens (pad-filled on the left),
    # then its committed tokens; drafts are written past them and
    # overwritten by the next round's.
    width = max(target.order, drafter.order)
    ends = np.cumsum(lengths)
    take = ends[:, None] - width + np.arange(width)
    seq = np.full((len(prompts), width + max_tokens + draft_len), vocab.pad_id,
                  dtype=np.int64)
    seq[:, :width] = np.where(take >= (ends - lengths)[:, None], flat[take.clip(0)],
                              vocab.pad_id)
    trace = DecodeTrace(draft_len=draft_len)
    kernel = _decode_stochastic if verify == STOCHASTIC else _decode_greedy
    kernel(target, drafter, seq, max_tokens, draft_len, mode == DEPENDENT, trace, rngs)
    return seq[:, width : width + max_tokens], trace


def _drafter_step(target, drafter, draft_len, featured):
    """The draft step of both kernels: ``own_rows`` maps (..., width) round-start
    windows to the drafter's row ids (..., min(K, d_d)) at positions k < d_d,
    and the shared row is the one all positions k >= d_d read.

    Position k's context lays out the window's last d_d symbols, the feature
    slot (the target's greedy token at the window, in dependent mode) and
    masks as :func:`~speclab.drafting.masked_contexts` does, so its code is
    affine in those symbols; the layout is read off masked_contexts applied
    to placeholder labels past the symbol space.
    """
    vocab, order, ns = drafter.vocab, drafter.order, drafter.vocab.num_symbols
    labels = ns + np.arange(order + 1)
    feature = labels[order] if featured else vocab.none_feature_id
    layout = masked_contexts(labels[None, :order], np.array([feature]),
                             np.arange(min(draft_len, order)), vocab, order)[0]
    place = models.code_weights(ns, order)
    slots = layout[..., None] == labels                    # (k, slot j, label)
    weights = (slots * place[:, None]).sum(axis=1).T       # (label, k)
    offsets = (np.where(layout < ns, layout, 0) * place).sum(axis=1)

    def own_rows(windows: np.ndarray) -> np.ndarray:
        codes = np.dot(windows[..., -order:], weights[:order]) + offsets
        if featured:
            top = target.greedy_tokens[models.row_ids(target, windows[..., -target.order:])]
            # The feature symbol is vocab.feature_for(top) = V + 1 + top.
            codes += (vocab.size + 1 + top[..., None]) * weights[order]
        return drafter.code_rows(codes)

    return own_rows, next_distribution(drafter, (vocab.mask_id,) * order)


def _decode_greedy(target, drafter, seq, max_tokens, draft_len, featured, trace, rngs):
    """Greedy verification commits exactly the target's greedy stream, so the
    kernel works on positions. It walks every prompt's stream position by
    position until each prompt's stream repeats, and fills the rest of the
    stream by period. It then goes once through blocks of positions. In each
    block it drafts at every position at once, takes each position's match
    length by one compare, walks each prompt's round starts s -> s + A(s) + 1
    through the block and records those rounds.

    The greedy token is a function of the target's window before it, and so
    is the next window, so a stream repeats from the first window that
    recurs. The walk goes in segments of doubling length. After each, the
    window code before the segment's first position (its origin) is compared
    with the codes before every later position up to the segment's end: a
    match m positions on gives that prompt period m from its origin, and
    position t of the rest reads position origin + (t - origin) mod m. A
    prompt that repeats in one segment repeats again in every later, longer
    one, so the walk stops at the first check where every prompt repeats.
    Once an origin is past a stream's tail and a segment is at least its
    period long, the repeat is found (Brent's cycle detection)."""
    n, total = seq.shape
    width = total - max_tokens - draft_len
    d_t = target.order
    # The committed window before each position width + s.
    windows = np.lib.stride_tricks.sliding_window_view
    states = windows(seq, width, axis=1)
    # One dot and two gathers per position; the contexts are checked tokens.
    # Row j holds every prompt's target row before position width + j.
    greedy, row_of = target.greedy_tokens, target.code_rows
    place = models.code_weights(target.vocab.num_symbols, d_t)
    target_rows = np.empty((total - width, n), dtype=np.intp)
    start, size = width, _GREEDY_SEGMENT
    while start < total:
        end = min(total, start + size)
        for j, t in enumerate(range(start, end), start - width):
            target_rows[j] = row_of(np.dot(seq[:, t - d_t : t], place))
            seq[:, t] = greedy[target_rows[j]]
        if end < total:
            codes = np.dot(states[:, start - width : end - width + 1, -d_t:], place)
            repeat = codes[:, 1:] == codes[:, :1]
            if repeat.any(axis=1).all():
                period = repeat.argmax(axis=1)[:, None] + 1
                at = start + (np.arange(end, total) - start) % period
                seq[:, end:] = np.take_along_axis(seq, at, axis=1)
                target_rows[end - width :] = np.take_along_axis(target_rows, (at - width).T,
                                                                 axis=0)
                break
        start, size = end, 2 * size

    K, own = draft_len, min(draft_len, drafter.order)
    own_rows, shared = _drafter_step(target, drafter, K, featured)
    # The stream from each position s on.
    futures = windows(seq[:, width:-1], K, axis=1)
    block = max(1, _GREEDY_BLOCK // (n * K))
    ahead = [0] * n  # each prompt's next round start, less the block's first position
    k = np.arange(K)
    for s0 in range(0, max_tokens, block):
        s1 = min(max_tokens, s0 + block)
        drafts = np.full((n, s1 - s0, K), shared.argmax())
        drafts[..., :own] = drafter.greedy_tokens[own_rows(states[:, s0:s1])]
        accepted = np.logical_and.accumulate(drafts == futures[:, s0:s1], axis=2).sum(axis=2)
        # The block's rounds, as cells i * b + s - s0: one integer step per
        # round.
        b, steps, cells = s1 - s0, (accepted + 1).ravel().tolist(), []
        for i, end in enumerate(range(b, (n + 1) * b, b)):
            cell = end - b + ahead[i]
            while cell < end:
                cells.append(cell)
                cell += steps[cell]
            ahead[i] = cell - end
        row, s = np.divmod(np.array(cells, dtype=np.intp), b)
        # The target's probability of each drafted token: its row after the
        # accepted prefix, as in the stochastic kernel.
        p = target.rows[target_rows[s0 + s[:, None] + k, row[:, None]], drafts[row, s]]
        trace.record(accepted[row, s], p)


def _decode_stochastic(target, drafter, seq, max_tokens, draft_len, featured, trace, rngs):
    """Stochastic rounds of all live prompts in lockstep: feature, drafter
    rows, the K draws, the K + 1 target rows, accept tests, correction and
    bonus are each one array step.

    Each prompt draws its uniforms ahead in blocks from its own generator. A
    round reads K proposal draws, one accept draw per attempted position and
    one correction or bonus draw: K + A + 2, or 2K + 1 on full acceptance. At
    the end each generator is put back to its entry state and advanced by
    what its prompt used.
    """
    n, total = seq.shape
    width = total - max_tokens - draft_len
    K, d_t, own = draft_len, target.order, min(draft_len, drafter.order)
    own_rows, shared = _drafter_step(target, drafter, K, featured)
    shared_cdf = np.cumsum(shared)  # one CDF for every prompt and round
    # Offsets into ``seq`` from a prompt's window start.
    window_at = np.arange(width)
    verify_at = width - d_t + np.arange(K + 1)[:, None] + np.arange(d_t)
    draft_at = width + np.arange(K)
    own_at = np.arange(own)
    draws = 2 * K + 1
    draw_at = np.arange(draws)

    # Flat indices: ``head`` of each prompt's window in ``seq``, ``cursor``
    # of its next unread uniform in its block.
    block = 4 * (max_tokens + draws)
    states = [rng.bit_generator.state for rng in rngs]
    uniforms = np.stack([rng.random(block) for rng in rngs])
    drawn = np.full(n, block)
    flat, flat_u = seq.ravel(), uniforms.ravel()
    head = np.arange(n) * total
    stop = head + max_tokens
    cursor = np.arange(n) * block
    block_end = cursor + block
    live = np.arange(n)
    while len(live):
        for i in live[cursor[live] + draws > block_end[live]].tolist():
            rest = uniforms[i, cursor[i] - i * block :].copy()
            uniforms[i, : len(rest)] = rest
            uniforms[i, len(rest) :] = rngs[i].random(block - len(rest))
            drawn[i] += block - len(rest)
            cursor[i] = i * block
        m = np.arange(len(live))
        h = head[live]
        u = flat_u[cursor[live][:, None] + draw_at]
        window = flat[h[:, None] + window_at]

        # Draft: own-context rows for k < d_d, the shared row after.
        q_rows = drafter.rows[own_rows(window)]
        cdf = np.cumsum(q_rows, axis=2)
        drafts = np.empty((len(live), K), dtype=np.intp)
        drafts[:, :own] = (cdf <= (u[:, :own] * cdf[..., -1])[..., None]).sum(axis=2)
        drafts[:, own:] = np.searchsorted(shared_cdf, u[:, own:K] * shared_cdf[-1],
                                          side="right")
        q = np.empty((len(live), K))
        q[:, :own] = q_rows[m[:, None], own_at, drafts[:, :own]]
        q[:, own:] = shared[drafts[:, own:]]
        flat[h[:, None] + draft_at] = drafts

        # Verify: the target's rows after each accepted-prefix length 0..K.
        p_rows = models.row_ids(target, flat[h[:, None, None] + verify_at])
        p = target.rows[p_rows[:, :K], drafts]
        accepted = np.logical_and.accumulate(u[:, K : 2 * K] < np.minimum(1.0, p / q),
                                             axis=1).sum(axis=1)
        # The correction (from normalize(max(0, p - q)), or p when that is
        # zero) or the bonus (from the target's row after all K drafts).
        final = target.rows[p_rows[m, accepted]]
        q_final = np.where((accepted < own)[:, None],
                           q_rows[m, np.minimum(accepted, own - 1)], shared)
        residual = np.maximum(final - q_final, 0.0)
        mass = residual.sum(axis=1)
        corrected = (accepted < K) & (mass > 0.0)
        np.divide(residual, mass[:, None], out=final, where=corrected[:, None])
        final_cdf = np.cumsum(final, axis=1)
        used = K + np.minimum(accepted + 1, K)
        final_u = u[m, used] * final_cdf[:, -1]
        flat[h + width + accepted] = (final_cdf <= final_u[:, None]).sum(axis=1)

        trace.record(accepted, p)
        head[live] = h = h + accepted + 1
        cursor[live] += used + 1
        live = live[h < stop[live]]

    for i, rng in enumerate(rngs):
        rng.bit_generator.state = states[i]
        rng.random(drawn[i] - (block_end[i] - cursor[i]))
