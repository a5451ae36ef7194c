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

#: Elements of a greedy (prompts, positions, K) block; stochastic drafts per record.
_BLOCK = 1 << 16

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


def _drafter_step(target, drafter, positions, featured):
    """The draft step of both kernels: ``own_rows`` maps (..., width) round-start
    windows to the drafter's row ids at draft positions 0..positions - 1, and
    ``shared`` is the all-mask row, the one every position k >= d_d reads.

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
                             np.arange(positions), vocab, order)[0]
    place = models.code_weights(ns, order)
    slots = layout[..., None] == labels                    # (k, slot j, label)
    weights = (slots * place[:, None]).sum(axis=1).T       # (label, k)
    offsets = (np.where(layout < ns, layout, 0) * place).sum(axis=1)
    features = vocab.size + 1 + target.greedy_tokens if featured else None  # by target row

    def own_rows(windows: np.ndarray) -> np.ndarray:
        codes = windows[..., -order:] @ weights[:order] + offsets
        if featured:
            top_rows = models.row_ids(target, windows[..., -target.order:])
            codes += features[top_rows][..., None] * weights[order]
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
    own_rows, shared = _drafter_step(target, drafter, own, featured)
    # The stream from each position s on.
    futures = windows(seq[:, width:-1], K, axis=1)
    block = max(1, _BLOCK // (n * K))
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
    """Stochastic rounds of all live prompts in lockstep: the drafter rows
    at positions 0..K (own rows, then the all-mask row), the K draws from
    their cached CDFs, the K + 1 target rows, the accept tests, and the
    correction or bonus are each one array step. Rounds are recorded once per
    call (or per ``_BLOCK`` drafts); a prompt with its tokens leaves the live arrays.

    Each prompt draws its uniforms once, from its own generator. A round
    that accepts A of K drafts reads K proposal draws, min(A + 1, K) accept
    draws and one correction or bonus draw, at most (K + 2)(A + 1) for its
    A + 1 tokens. A prompt short of ``max_tokens`` has read at most
    (K + 2)(max_tokens - 1) and its round slices 2K + 1 more, so ``need`` =
    (K + 2) max_tokens + K - 1 suffices; one that always rejects at position 0
    reaches the last. The uniforms take n x ``need`` float64, the worst case
    (2.4 MB for 64 prompts of 256 tokens at K = 16). At the end each
    generator is put back to its entry state and advanced by what it read.
    """
    n, total = seq.shape
    width = total - max_tokens - draft_len
    K, d_t = draft_len, target.order
    own_rows, _ = _drafter_step(target, drafter, K + 1, featured)
    # Offsets into ``seq`` from a prompt's window start.
    window_at = np.arange(width)
    verify_at = width - d_t + np.arange(K + 1)[:, None] + np.arange(d_t)
    draft_at = width + np.arange(K)
    draw_at = np.arange(2 * K + 1)
    last_at = K + np.minimum(np.arange(1, K + 2), K)  # a round's last draw, by A
    tests = np.zeros((n, K + 1), dtype=bool)  # column K stays False: argmin is A

    # Flat indices: ``head`` of each live prompt's window in ``seq``,
    # ``cursor`` of its next unread uniform in its row.
    need = (K + 2) * max_tokens + K - 1
    states = [rng.bit_generator.state for rng in rngs]
    uniforms = np.empty((n, need))
    for rng, row in zip(rngs, uniforms):
        rng.random(out=row)
    read = np.zeros(n, dtype=np.intp)  # uniforms read, set when a prompt finishes
    flat, flat_u = seq.ravel(), uniforms.ravel()
    live = np.arange(n)
    head, stop, cursor = live * total, live * total + max_tokens, live * need
    rounds = []
    while len(live):
        m = np.arange(len(live))
        u = flat_u[cursor[:, None] + draw_at]

        # Draft: a draw picks the first CDF entry above it (it is below the last).
        q_ids = own_rows(flat[head[:, None] + window_at])
        cdf = drafter.cdf.take(q_ids[:, :K], axis=0)
        drafts = (cdf > (u[:, :K] * cdf[..., -1])[..., None]).argmax(axis=2)
        q = drafter.rows[q_ids[:, :K], drafts]
        flat[head[:, None] + draft_at] = drafts

        # Verify: the target's rows after each accepted-prefix length 0..K;
        # u < p / q is u < min(1, p / q), as u < 1.
        p_ids = models.row_ids(target, flat[head[:, None, None] + verify_at])
        p = target.rows[p_ids[:, :K], drafts]
        np.less(u[:, K : 2 * K], p / q, out=tests[: len(live), :K])
        accepted = tests[: len(live)].argmin(axis=1)
        # The correction (from normalize(max(0, p - q)), or p when that is
        # zero) or the bonus (from the target's row after all K drafts).
        final = target.rows.take(p_ids[m, accepted], axis=0)
        residual = np.maximum(final - drafter.rows.take(q_ids[m, accepted], axis=0), 0.0)
        mass = residual.sum(axis=1)
        corrected = (accepted < K) & (mass > 0.0)
        np.divide(residual, mass[:, None], out=final, where=corrected[:, None])
        final_cdf = final.cumsum(axis=1)
        last = last_at[accepted]
        final_u = u[m, last] * final_cdf[:, -1]
        flat[head + width + accepted] = (final_cdf > final_u[:, None]).argmax(axis=1)

        head += accepted + 1
        cursor += last + 1
        done = head >= stop
        if done.any():
            read[live[done]] = cursor[done] - live[done] * need
            live, head, stop, cursor = (lane[~done] for lane in (live, head, stop, cursor))
        rounds.append((accepted, p))
        if len(rounds) * n * K >= _BLOCK or not len(live):
            trace.record(*map(np.concatenate, zip(*rounds)))
            rounds = []

    for i, rng in enumerate(rngs):
        rng.bit_generator.state = states[i]
        rng.random(read[i])
