"""Lossless draft verification: the batch draft/verify decode loop.

Stochastic verification walks the drafted tokens in order, accepting token y
with probability min(1, p(y)/q(y)) and sampling a correction from the
normalized positive part of p - q on the first rejection; with a bonus token
on full acceptance, the committed stream is distributed exactly as if the
target had generated it alone. Greedy verification is the temperature-0
counterpart: accept while the draft matches the target's argmax, so the
committed stream is exactly the target's greedy continuation.

:func:`decode_loop` decodes a whole batch of prompts at once and records its
rounds in one trace call. Stochastic rounds run in lockstep over the prompts
still decoding, prompt i drawing from ``default_rng([seed, i, 1])`` alone;
a round gathers and writes through strided views of the token buffer and
the uniforms, made once per call and indexed by each prompt's flat offset. A
greedy round is a function of its round-start window: greedy decoding maps
each window the prompts reach to its round (:func:`_greedy_rounds`) and
counts the rounds from each distinct start window (:func:`_round_counts`),
so ``run_bench``, which reads only :func:`decode_rounds`'s trace, costs
O(windows reached) whatever ``max_tokens`` is. Verification conditions the
target on real committed tokens only; masks exist only inside the drafter.
The one-prompt scalar round (propose, then verify) lives on in
``tests/oracles.py`` as the reference the batch loop is held to.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .drafting import masked_contexts
from .models import (
    GREEDY,
    TabularModel,
    Token,
    Vocabulary,
    checked_int,
    checked_tokens,
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
        self.draft_len = checked_int("draft_len", self.draft_len, 1)
        self.accept_hist = np.zeros(self.draft_len + 1, dtype=np.int64)
        self.bin_attempts = np.zeros(NUM_CONFIDENCE_BINS, dtype=np.int64)
        self.bin_accepts = np.zeros(NUM_CONFIDENCE_BINS, dtype=np.int64)

    def record(self, accepted: np.ndarray, target_probs: np.ndarray,
               counts: np.ndarray | int = 1) -> None:
        """Add r rounds: their accepted lengths (r,) and the target's
        probability of each drafted token (r, K), each row ``counts[i]``
        times (default once). Only a round's attempted positions
        0..min(a, K - 1) are read, by one ragged gather; they are all
        accepted but the last of a round that rejected (a < K)."""
        K = self.draft_len
        rejected = accepted < K
        attempts = accepted + rejected
        ends = np.add.accumulate(attempts)
        # Round i's attempted entries are the flat entries iK .. iK + attempts[i] - 1.
        at = np.arange(ends[-1] if len(ends) else 0) + (
            np.arange(0, K * len(ends), K) + attempts - ends).repeat(attempts)
        bins = np.minimum((target_probs.ravel().take(at) * NUM_CONFIDENCE_BINS).astype(np.intp),
                          NUM_CONFIDENCE_BINS - 1)
        # int64 sums: float bincount weights lose counts past 2**53
        counts = np.add(counts, np.zeros(accepted.shape, dtype=np.int64))
        np.add.at(self.accept_hist, accepted, counts)
        weights = counts.repeat(attempts)
        np.add.at(self.bin_attempts, bins, weights)
        weights[ends[rejected] - 1] = 0
        np.add.at(self.bin_accepts, bins, weights)

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
    seed: int = 0,
) -> tuple[np.ndarray, DecodeTrace]:
    """Decode every prompt until each has at least ``max_tokens`` committed.

    In dependent mode the drafter's feature slot holds the target's greedy
    token at the committed prefix; in independent mode the drafter never
    touches the target. Greedy verification pairs with greedy drafts and
    draws nothing. Stochastic verification pairs with sampled drafts
    (required for losslessness); prompt i draws its uniforms from
    ``default_rng([seed, i, 1])``, in the order its scalar rounds would.

    Returns the (n, ``max_tokens``) committed tokens and one trace of every
    round. The trace keeps the untruncated counts, so a prompt overshoots by
    at most ``draft_len`` tokens. The rounds are :func:`decode_rounds`'s; a
    greedy call's only O(``max_tokens``) cost is :func:`_expand_output`.
    """
    trace, tokens = decode_rounds(target, drafter, prompts, max_tokens, draft_len, mode, verify,
                                  seed)
    return tokens(), trace


def decode_rounds(
    target: TabularModel,
    drafter: TabularModel,
    prompts: Sequence[Sequence[Token]],
    max_tokens: int,
    draft_len: int,
    mode: str,
    verify: str,
    seed: int = 0,
) -> tuple[DecodeTrace, Callable[[], np.ndarray]]:
    """:func:`decode_loop`'s rounds: their trace, and a function that lays
    out the (n, ``max_tokens``) committed tokens. A caller that reads only
    the trace, as ``run_bench`` does, leaves the function uncalled.

    Every input is checked here, once; the rounds then read rows by exact
    context code, and a round costs the same however long the output grows.
    Both kernels start from each prompt's last ``width`` tokens, pad-filled
    on the left.
    """
    if len(prompts) == 0:
        raise ValueError("prompts must be nonempty")
    max_tokens = checked_int("max_tokens", max_tokens, 1)
    draft_len = checked_int("draft_len", draft_len, 1)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if verify not in VERIFIERS:
        raise ValueError(f"verify must be one of {VERIFIERS}, got {verify!r}")
    if target.vocab.size != drafter.vocab.size:
        raise ValueError("target and drafter must share a vocabulary size")
    seed = checked_int("seed", seed, 0)
    vocab = target.vocab
    lengths, flat = checked_tokens(prompts, vocab, "prompt")
    if 0 in lengths:
        raise ValueError("prompt must be nonempty")

    width = max(target.order, drafter.order)
    ends = np.add.accumulate(lengths)
    take = ends[:, None] + np.arange(-width, 0)
    windows = np.where(take >= (ends - lengths)[:, None], flat[np.maximum(take, 0)],
                       vocab.pad_id)
    args = (target, drafter, windows, max_tokens, draft_len, mode == DEPENDENT)
    if verify == STOCHASTIC:
        return _decode_stochastic(*args, seed)
    return _decode_greedy(*args)


@cache
def _draft_layout(vocab_size: int, order: int, positions: int, featured: bool):
    """The drafter's context code at draft positions 0..positions - 1 as an
    affine map of a round's symbols: read-only place values (label, k), with
    labels 0..order - 1 for the window's last ``order`` symbols and label
    ``order`` for the feature slot, and read-only offsets (k,) from the masks.

    Position k's context lays out those symbols and masks as
    :func:`~speclab.drafting.masked_contexts` does, so the layout is read off
    masked_contexts applied to placeholder labels past the symbol space.
    """
    vocab = Vocabulary(vocab_size)
    ns = vocab.num_symbols
    labels = ns + np.arange(order + 1)
    feature = labels[order] if featured else vocab.none_feature_id
    layout = masked_contexts(labels[None, :order], np.array([feature]),
                             np.arange(positions), vocab, order)[0]
    place = models.code_weights(ns, order)
    slots = layout[..., None] == labels                    # (k, slot j, label)
    weights = (slots * place[:, None]).sum(axis=1).T       # (label, k)
    offsets = (np.where(layout < ns, layout, 0) * place).sum(axis=1)
    weights.setflags(write=False)
    offsets.setflags(write=False)
    return weights, offsets


def _drafter_step(drafter, positions, featured):
    """The draft step of both kernels: ``own_rows(windows, top)`` maps (n, width)
    round-start windows to the drafter's row ids at draft positions
    0..positions - 1, and ``shared`` is the all-mask row, the one every
    position k >= d_d reads. In dependent mode the feature slot holds
    ``top``, the target's greedy token at each window, which the caller
    reads; its code term comes from a (V, positions) table, made once per
    call. Independent mode ignores ``top``."""
    vocab, order = drafter.vocab, drafter.order
    weights, offsets = _draft_layout(vocab.size, order, positions, featured)
    if featured:
        offsets = np.array(vocab.feature_ids)[:, None] * weights[order] + offsets

    def own_rows(windows: np.ndarray, top: np.ndarray | None) -> np.ndarray:
        codes = windows[:, -order:] @ weights[:order]
        codes += offsets[top] if featured else offsets
        return drafter.code_rows(codes)

    return own_rows, next_distribution(drafter, (vocab.mask_id,) * order)


def _decode_greedy(target, drafter, windows, max_tokens, draft_len, featured):
    """Every greedy round is a function of its round-start window, so the
    kernel works on the graph of reached windows (nodes), each looked up,
    drafted and scored once, however many prompts or tokens reach it.

    1. Discover: from each distinct start window, first seen first, walk
       the stream one scalar step per window. A window not yet expanded
       costs one target row lookup, which gives its greedy token and so its
       successor. The walk stops at a window whose successors are all
       expanded (one of its own, or a closed one), or after the
       ``max_tokens + K`` positions its rounds can read.
    2. :func:`_greedy_rounds` over all nodes at once.
    3. :func:`_round_counts` from each distinct start, weighted by its
       number of prompts; the counted nodes go to one ``record``.
    4. :func:`_expand_output`, only if called; steps 1-3 cost O(windows).
    """
    n, width = windows.shape
    K, d_t, ns = draft_len, target.order, target.vocab.num_symbols
    greedy, row_of = target.greedy_tokens, target.code_rows

    # Node x has window code codes[x] (a Python int), target row rows[x]
    # (-1, the fallback's, until expanded) and successor succ[x] (itself
    # until expanded). Dropping a window's first symbol is ``% high``; its
    # target context is its last d_t symbols, ``% low``.
    node_of, codes, rows, succ = {}, [], [], []
    high, low = ns ** (width - 1), ns**d_t
    closed = n  # the walk mark of a node whose successors are all expanded
    mark = []   # the last walk through each node, or ``closed``

    def node(code):
        x = node_of.setdefault(code, len(codes))
        if x == len(codes):
            codes.append(code)
            rows.append(-1)
            succ.append(x)
            mark.append(-1)
        return x

    place = models.code_weights(ns, width)
    start = [node(code) for code in np.dot(windows, place).tolist()]
    weights = [0] * len(codes)  # prompts per start; the starts were numbered first
    for x in start:
        weights[x] += 1
    for i in range(len(weights)):
        x, walked = i, []
        for _ in range(max_tokens + K):
            if mark[x] == closed or mark[x] == i:
                for y in walked:
                    mark[y] = closed
                break
            if rows[x] < 0:
                code = codes[x]
                rows[x] = row = row_of(code % low)
                succ[x] = node(code % high * ns + greedy.item(row))
            mark[x] = i
            walked.append(x)
            x = succ[x]

    node_windows = (np.array(codes, dtype=place.dtype)[:, None] // place % ns).astype(np.intp)
    rows, succ = np.array(rows, dtype=np.intp), np.array(succ, dtype=np.intp)
    drafts, path, accepted, following = _greedy_rounds(target, drafter, node_windows, rows, succ,
                                                       K, featured)
    count = _round_counts(range(len(weights)), weights, accepted + 1, following, max_tokens)
    counted = count.nonzero()[0]
    # The target's row after each accepted prefix, at the drafted token.
    p = target.rows[rows[path[counted, :K]], drafts[counted]]
    trace = DecodeTrace(draft_len=K)
    trace.record(accepted[counted], p, count[counted])
    return trace, lambda: _expand_output(succ, greedy[rows], start, max_tokens)


def _greedy_rounds(target, drafter, node_windows, rows, succ, K, featured):
    """Step 2 of the greedy kernel, the round map: for each node x (window
    ``node_windows[x]``, target row ``rows[x]``, successor ``succ[x]``), its K
    drafts, its stream nodes ``path`` (succ applied 0..K times), its accepted
    length A and the next round's node. About (3K + 2) x 8 bytes per node."""
    tokens = target.greedy_tokens[rows]
    own, nodes = min(K, drafter.order), np.arange(len(rows))
    own_rows, shared = _drafter_step(drafter, own, featured)
    drafts = np.full((len(rows), K), shared.argmax())
    drafts[:, :own] = drafter.greedy_tokens[own_rows(node_windows, tokens)]
    path = _walk(succ, nodes, K + 1)
    accepted = np.logical_and.accumulate(drafts == tokens[path[:, :K]], axis=1).sum(axis=1)
    following = succ[path[nodes, accepted]]
    return drafts, path, accepted, following


def _round_counts(starts, weights, advance, following, max_tokens):
    """Step 3 of the greedy kernel: the rounds that start at each node, up to
    ``max_tokens`` tokens from each of ``starts``, counted ``weights`` times
    (int64 for int weights). A round at x commits ``advance[x]`` tokens and
    the next starts at ``following[x]``. Once a node recurs, the rounds since
    repeat every D tokens, so they count floor((max_tokens - s) / D) at once."""
    advance, following = advance.tolist(), following.tolist()
    count = [0] * len(advance)
    for x, w in zip(starts, weights):
        s, seen, visits = 0, {}, []
        while s < max_tokens and x not in seen:
            seen[x] = len(visits), s
            visits.append(x)
            s, x = s + advance[x], following[x]
        if s < max_tokens:  # x recurs: the rounds since repeat
            first, s0 = seen[x]
            times = (max_tokens - s) // (s - s0)
            s += times * (s - s0)
            for y in visits[first:]:
                count[y] += w * times
        for y in visits:
            count[y] += w
        while s < max_tokens:
            count[x] += w
            s, x = s + advance[x], following[x]
    return np.array(count)


def _expand_output(succ, tokens, start, max_tokens):
    """Step 4 of the greedy kernel, the (n, ``max_tokens``) committed tokens:
    the greedy stream's first ``max_tokens`` nodes from each prompt's
    ``start`` node (step 1 expanded them all), by one :func:`_walk`."""
    return tokens[_walk(succ, np.array(start), max_tokens)]


def _walk(succ, starts, length):
    """(len(starts), length) nodes: succ applied 0..length - 1 times to
    each start, by doubling gathers (succ, succ o succ, ...)."""
    path = np.empty((len(starts), length), dtype=np.intp)
    path[:, 0] = starts
    filled, jump = 1, succ
    while filled < length:
        step = min(filled, length - filled)
        path[:, filled : filled + step] = jump[path[:, :step]]
        filled += step
        if filled < length:
            jump = jump[jump]
    return path


def _decode_stochastic(target, drafter, windows, max_tokens, draft_len, featured, seed):
    """Stochastic rounds of all live prompts in lockstep: the drafter rows
    at the drafter's own positions 0..min(K, d_d) - 1, the K draws, the
    K + 1 target rows, the accept tests, and the correction or bonus are
    each one array step. Every later position reads the all-mask row: it and
    its CDF, summed once per call, fill those positions' columns of per-call
    (n, K + 1, V) row and (n, K, V) CDF blocks (0.27 MB at 64 prompts,
    K = 16, V = 16), and a round writes only its own positions' columns.
    The rounds are recorded in one call at the end, holding at most
    n x max_tokens x (K + 1) values, less than the uniforms; a prompt with
    its tokens leaves the live arrays.

    Every gather and write of a round goes through strided views made once
    per call, indexed by each live prompt's flat offset: of the token buffer
    at its window start (the round-start window, the K draft slots, the
    (K + 1, d_t) verify contexts and the committed slot of each accepted
    length), and of the uniforms one before its next unread draw (a row of
    2K + 2). The final token's slot ``head + A`` also gives the next head,
    and one table of the final draw's column by A also gives the cursor step.

    Prompt i draws its uniforms once, from ``default_rng([seed, i, 1])``,
    into its row after one spare column. A round that accepts A of K drafts
    reads K proposal draws, min(A + 1, K) accept draws and one correction or
    bonus draw, at most (K + 2)(A + 1) for its A + 1 tokens. A prompt short
    of ``max_tokens`` has read at most (K + 2)(max_tokens - 1), and its
    round's row reaches 2K + 1 draws further, so ``need`` =
    (K + 2) max_tokens + K - 1 suffices; one that always rejects at position
    0 reaches the last. The uniforms take n x (``need`` + 1) float64, the
    worst case (2.4 MB for 64 prompts of 256 tokens at K = 16).
    """
    n, width = windows.shape
    K, d_t, V = draft_len, target.order, target.vocab.size
    # Row i holds prompt i's start window, then its committed tokens; drafts
    # are written past them and overwritten by the next round's.
    total = width + max_tokens + K
    seq = np.full((n, total), target.vocab.pad_id, dtype=np.int64)
    seq[:, :width] = windows
    own = min(K, drafter.order)
    own_rows, shared = _drafter_step(drafter, own, featured)
    # The j-th live prompt's drafter rows at positions 0..K and CDFs at
    # 0..K - 1: its own positions are rewritten every round, the all-mask
    # ones filled once. Position K drafts nothing: its infinite row leaves a
    # bonus no residual.
    q_rows, cdfs = np.empty((n, K + 1, V)), np.empty((n, K, V))
    q_rows[:, own:K] = shared
    q_rows[:, K] = np.inf
    cdfs[:, own:] = np.cumsum(shared)
    lanes = np.arange(n)
    q_at = (lanes[:, None] * (K + 1) + np.arange(K)) * V  # q_rows.ravel() offsets
    tests = np.zeros((n, K + 1), dtype=bool)  # column K stays False: argmin is A

    # Prompt i's uniforms follow one spare column in row i. The round's row
    # of 2K + 2 starts one before its next unread draw and holds its K
    # proposal draws at 1..K, its accept draws at K + 1..2K and its final
    # draw at ``next_at[A]``, where the next round's row starts.
    need = (K + 2) * max_tokens + K - 1
    uniforms = np.zeros((n, need + 1))
    for i, row in enumerate(uniforms):
        np.random.default_rng([seed, i, 1]).random(out=row[1:])
    next_at = K + 1 + np.minimum(np.arange(1, K + 2), K)
    # Item s of each view starts at flat offset s. ``head`` is each live
    # prompt's window offset, ``cursor`` that of its round's row of uniforms.
    flat = seq.ravel()
    window_of, drafts_of = _at_each(flat, 0, (width,)), _at_each(flat, width, (K,))
    contexts_of, committed = _at_each(flat, width - d_t, (K + 1, d_t)), flat[width:]
    draws_of, flat_q = _at_each(uniforms.ravel(), 0, (2 * K + 2,)), q_rows.ravel()
    head, cursor = lanes * total, lanes * (need + 1)
    stop = head + max_tokens
    rounds = []
    while len(head):
        live = len(head)
        m = lanes[:live]
        u = draws_of[cursor]

        # Draft: a draw picks the first CDF entry above it (it is below the last).
        windows = window_of[head]
        top = (target.greedy_tokens[models.row_ids(target, windows[:, width - d_t:])]
               if featured else None)
        q_ids = own_rows(windows, top)
        drafter.rows.take(q_ids, axis=0, out=q_rows[:live, :own])
        drafter.cdf.take(q_ids, axis=0, out=cdfs[:live, :own])
        cdf = cdfs[:live]
        drafts = (cdf > (u[:, 1 : K + 1] * cdf[..., -1])[..., None]).argmax(axis=2)
        q = flat_q.take(q_at[:live] + drafts)
        drafts_of[head] = drafts

        # Verify: the target's rows after each accepted-prefix length 0..K;
        # u < p / q is u < min(1, p / q), as u < 1.
        p_ids = models.row_ids(target, contexts_of[head])
        p = target.rows[p_ids[:, :K], drafts]
        np.less(u[:, K + 1 : 2 * K + 1], p / q, out=tests[:live, :K])
        accepted = tests[:live].argmin(axis=1)
        # The correction (from normalize(max(0, p - q)), or p when that is
        # zero) or the bonus (from the target's row after all K drafts).
        final = target.rows.take(p_ids[m, accepted], axis=0)
        residual = np.maximum(final - q_rows[m, accepted], 0.0)
        mass = np.add.reduce(residual, axis=1)
        np.divide(residual, mass[:, None], out=final, where=(mass > 0.0)[:, None])
        final_cdf = final.cumsum(axis=1)
        step = next_at[accepted]
        final_u = u[m, step] * final_cdf[:, -1]
        at = head + accepted
        committed[at] = (final_cdf > final_u[:, None]).argmax(axis=1)

        head = at + 1
        cursor += step
        done = head >= stop
        if np.count_nonzero(done):
            head, stop, cursor = (lane[~done] for lane in (head, stop, cursor))
        rounds.append((accepted, p))

    trace = DecodeTrace(draft_len=K)
    trace.record(*map(np.concatenate, zip(*rounds)))
    return trace, lambda: seq[:, width : width + max_tokens]


def _at_each(flat, offset, shape):
    """The ``shape`` block of ``flat`` that starts ``offset`` items past each
    flat offset s, as a view whose item s is that block (unit steps on
    every axis): writes through it write ``flat``."""
    step = flat.itemsize
    count = flat.size - offset - sum(shape) + len(shape)
    return np.ndarray((count, *shape), flat.dtype, flat, offset * step, (step,) * (len(shape) + 1))
