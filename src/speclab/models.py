"""Exact tabular categorical language models.

A :class:`TabularModel` maps every fixed-width context to a full next-token
distribution and keeps a fallback distribution for unseen contexts, so lookup
never fails. The tables are exact, which is the whole point: acceptance
probabilities, expected acceptance lengths, and training objectives computed
on top of them can be checked against brute-force enumeration.

Reserved symbols extend the real-token alphabet: a mask placeholder for
not-yet-drafted positions, one feature symbol per real token for
target-feature injection, a no-feature sentinel, and a pad symbol that
left-fills short histories so context keys stay fixed width.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

Token = int
Symbol = int
Context = tuple[Symbol, ...]
RNG = np.random.Generator

#: Absolute tolerance for "probabilities sum to one" checks.
PROB_SUM_TOL = 1e-9

GREEDY = "greedy"
SAMPLE = "sample"
_DRAW_MODES = (GREEDY, SAMPLE)


@dataclass(frozen=True)
class Vocabulary:
    """Real-token alphabet ``[0, size)`` plus derived reserved symbol ids."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"vocabulary size must be positive, got {self.size}")

    @cached_property
    def mask_id(self) -> Symbol:
        """Placeholder symbol standing in for not-yet-drafted positions."""
        return self.size

    @cached_property
    def feature_ids(self) -> range:
        """Reserved range holding one feature symbol per real token."""
        return range(self.size + 1, 2 * self.size + 1)

    @cached_property
    def none_feature_id(self) -> Symbol:
        """Sentinel meaning "no target feature injected"."""
        return 2 * self.size + 1

    @cached_property
    def pad_id(self) -> Symbol:
        """Left-fill symbol for histories shorter than the model order."""
        return 2 * self.size + 2

    @cached_property
    def num_symbols(self) -> int:
        return 2 * self.size + 3

    def is_real(self, symbol: Symbol) -> bool:
        return 0 <= symbol < self.size

    def feature_for(self, token: Token) -> Symbol:
        """Lift a real token id into the reserved feature range."""
        if not self.is_real(token):
            raise ValueError(f"not a real token id: {token}")
        return self.size + 1 + token

    def token_of_feature(self, symbol: Symbol) -> Token:
        if symbol not in self.feature_ids:
            raise ValueError(f"not a feature symbol: {symbol}")
        return symbol - self.size - 1


def as_distribution(probs: Iterable[float], vocab_size: int) -> np.ndarray:
    """Validate a probability vector and return it as a frozen float64 array.

    Entries must be nonnegative and sum to one within ``PROB_SUM_TOL``. The
    sum test is written so that a NaN entry (whose sum is NaN) fails it.
    """
    arr = np.array(probs, dtype=np.float64)
    if arr.shape != (vocab_size,):
        raise ValueError(f"distribution must have shape ({vocab_size},), got {arr.shape}")
    if np.any(arr < 0.0):
        raise ValueError("distribution has a negative entry")
    total = float(arr.sum())
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise ValueError(f"distribution sums to {total!r}, expected 1 within {PROB_SUM_TOL}")
    arr.setflags(write=False)
    return arr


def padded_suffix(symbols: Sequence[Symbol], order: int, pad_id: Symbol) -> Context:
    """Order-sized suffix of ``symbols``, left-filled with the pad symbol."""
    tail = tuple(map(int, symbols[-order:])) if order > 0 else ()
    if len(tail) < order:
        tail = (pad_id,) * (order - len(tail)) + tail
    return tail


def _checked_row(
    key: Context, probs: Iterable[float], order: int, vocab: Vocabulary
) -> np.ndarray:
    """One table row, checked: key width, key symbols, then the distribution."""
    if len(key) != order:
        raise ValueError(f"context {key} does not match model order {order}")
    for s in key:
        if not 0 <= s < vocab.num_symbols:
            raise ValueError(f"context symbol out of range: {s}")
    return as_distribution(probs, vocab.size)


def _checked_rows(keys: list[Context], values: list, order: int, vocab: Vocabulary) -> np.ndarray:
    """All table rows as one read-only (R, V) float64 array.

    The checks of :func:`_checked_row` run in one pass over the whole array.
    If any row fails them, the rows are checked again one by one in table
    order, so the error raised is the one of the first faulty row.
    """
    V = vocab.size
    try:
        rows = np.array(values, dtype=np.float64) if values else np.zeros((0, V))
        symbols = np.array(keys, dtype=np.int64) if keys else np.zeros((0, order), np.int64)
    except (ValueError, OverflowError):  # ragged rows or keys, or non-numbers
        rows = symbols = None
    valid = (
        rows is not None
        and rows.shape == (len(values), V)
        and symbols.shape == (len(keys), order)
        and bool(np.all((symbols >= 0) & (symbols < vocab.num_symbols)))
        and not np.any(rows < 0.0)
        and bool(np.all(np.abs(rows.sum(axis=1) - 1.0) <= PROB_SUM_TOL))
    )
    if not valid:
        rows = np.array(
            [_checked_row(key, probs, order, vocab) for key, probs in zip(keys, values)]
        ).reshape(-1, V)
    rows.setflags(write=False)
    return rows


@dataclass
class TabularModel:
    """Finite-order conditional table with a total-lookup fallback.

    Immutable after construction; safe to share read-only across workers.
    The table's rows are views of one read-only (R, V) array.
    """

    order: int
    vocab: Vocabulary
    table: dict[Context, np.ndarray]
    fallback: np.ndarray

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"model order must be >= 1, got {self.order}")
        self.fallback = as_distribution(self.fallback, self.vocab.size)
        keys = [tuple(map(int, key)) for key in self.table]
        rows = _checked_rows(keys, list(self.table.values()), self.order, self.vocab)
        self.table = dict(zip(keys, rows))


def next_distribution(model: TabularModel, context: Sequence[Symbol]) -> np.ndarray:
    """Conditional next-token distribution for the order-d suffix of ``context``.

    Short contexts are left-padded; unseen contexts return the fallback, so
    lookup is total. Only the padded order-d key is read, and only the key is
    range-checked: a symbol id in it outside the model's symbol space raises
    ValueError, while symbols before the last d are never looked at. The
    cost is O(d), whatever the length of ``context``.
    """
    key = padded_suffix(context, model.order, model.vocab.pad_id)
    num_symbols = model.vocab.num_symbols
    for s in key:
        if not 0 <= s < num_symbols:
            raise ValueError(f"context symbol out of range: {s}")
    return model.table.get(key, model.fallback)


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


def generate_autoregressive(
    model: TabularModel,
    prefix: Sequence[Token],
    n: int,
    mode: str = GREEDY,
    rng: RNG | None = None,
) -> list[Token]:
    """Generate ``n`` tokens one at a time, each conditioned on the running suffix."""
    if mode not in _DRAW_MODES:
        raise ValueError(f"mode must be one of {_DRAW_MODES}, got {mode!r}")
    if mode == SAMPLE and rng is None:
        raise ValueError("sample mode requires an rng")
    for t in prefix:
        if not model.vocab.is_real(int(t)):
            raise ValueError(f"prefix must contain only real tokens, got {t}")
    seq = [int(t) for t in prefix]
    out: list[Token] = []
    for _ in range(n):
        dist = next_distribution(model, seq)
        tok = greedy_token(dist) if mode == GREEDY else sample_token(dist, rng)
        seq.append(tok)
        out.append(tok)
    return out


def build_ngram_model(
    corpus: Iterable[Sequence[Token]],
    order: int,
    vocab_size: int,
    smoothing: float = 0.1,
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
    counts: dict[Context, np.ndarray] = {}
    unigram = np.zeros(vocab_size, dtype=np.float64)
    for seq in corpus:
        toks = [int(t) for t in seq]
        for t in toks:
            if not vocab.is_real(t):
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
    return TabularModel(order=order, vocab=vocab, table=table, fallback=fallback)


def make_synthetic_target(
    seed: int,
    vocab_size: int,
    order: int,
    concentration: float,
) -> TabularModel:
    """Random model with one symmetric-Dirichlet draw per context.

    Small concentrations give peaked (high-confidence) rows, large ones are
    near uniform. Contexts cover every combination of real tokens and the pad
    symbol so padded lookups hit real entries. Deterministic per seed: one
    ``rng.dirichlet`` call draws the fallback first, then the contexts in
    ``itertools.product`` order, the same stream as one call per row.
    """
    if vocab_size < 2:
        raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if concentration <= 0:
        raise ValueError(f"concentration must be > 0, got {concentration}")
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(vocab_size)
    alpha = np.full(vocab_size, float(concentration))
    symbols = list(range(vocab_size)) + [vocab.pad_id]
    contexts = itertools.product(symbols, repeat=order)
    rows = rng.dirichlet(alpha, size=len(symbols) ** order + 1)
    table = dict(zip(contexts, rows[1:]))
    return TabularModel(order=order, vocab=vocab, table=table, fallback=rows[0])


# Model files are line oriented: a header, the fallback row keyed by "*", then
# one row per context sorted by key. 17 significant digits round-trip float64
# exactly, so save/load is lossless and byte-stable.

_FALLBACK_KEY = "*"


def _format_probs(probs: np.ndarray) -> str:
    return " ".join(format(float(p), ".17g") for p in probs)


def save_model(model: TabularModel, path: str | Path) -> None:
    """Write a model in the text format ``CONTEXT<TAB>p_0 ... p_{V-1}``."""
    lines = [f"ngram v={model.vocab.size} d={model.order}"]
    lines.append(_FALLBACK_KEY + "\t" + _format_probs(model.fallback))
    for ctx in sorted(model.table):
        key = " ".join(str(s) for s in ctx)
        lines.append(key + "\t" + _format_probs(model.table[ctx]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> TabularModel:
    """Read a model written by :func:`save_model`; validates on construction.

    A context (or the fallback) given on two rows raises ValueError.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"empty model file: {path}")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "ngram":
        raise ValueError(f"bad model header: {lines[0]!r}")
    try:
        vocab_size = int(header[1].removeprefix("v="))
        order = int(header[2].removeprefix("d="))
    except ValueError as exc:
        raise ValueError(f"bad model header: {lines[0]!r}") from exc
    fallback: np.ndarray | None = None
    table: dict[Context, np.ndarray] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, sep, tail = line.partition("\t")
        if not sep:
            raise ValueError(f"malformed model line: {line!r}")
        probs = np.array([float(x) for x in tail.split()], dtype=np.float64)
        if key == _FALLBACK_KEY:
            if fallback is not None:
                raise ValueError(f"duplicate fallback row in model file: {path}")
            fallback = probs
        else:
            ctx = tuple(int(s) for s in key.split())
            if ctx in table:
                raise ValueError(f"duplicate row for context {ctx} in model file: {path}")
            table[ctx] = probs
    if fallback is None:
        raise ValueError(f"model file missing fallback line: {path}")
    return TabularModel(order=order, vocab=Vocabulary(vocab_size), table=table, fallback=fallback)
