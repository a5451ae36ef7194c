"""Exact tabular categorical language models.

A :class:`TabularModel` maps every fixed-width context to a full next-token
distribution and keeps a fallback distribution for unseen contexts, so lookup
never fails. Its rows are one array, found by each context's exact
mixed-radix code: :func:`lookup_rows` reads many contexts at once, and
:func:`next_distribution` is its one-context case. The tables are exact,
which is the whole point: acceptance probabilities, expected acceptance
lengths, and training objectives computed on top of them can be checked
against brute-force enumeration.

Reserved symbols extend the real-token alphabet: a mask placeholder for
not-yet-drafted positions, one feature symbol per real token for
target-feature injection, a no-feature sentinel, and a pad symbol that
left-fills short histories so context keys stay fixed width.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from collections.abc import Iterable, Iterator, Mapping, Sequence, Sized
from dataclasses import dataclass
from functools import cache, cached_property, partial
from pathlib import Path

import numpy as np
from numpy.typing import ArrayLike

Token = int
Symbol = int
Context = tuple[Symbol, ...]
RNG = np.random.Generator

#: Absolute tolerance for "probabilities sum to one" checks.
PROB_SUM_TOL = 1e-9

GREEDY = "greedy"


def checked_int(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """``operator.index(value)``, the one rule for an integer setting:
    ValueError naming ``name`` if the value is not an integer (a float such
    as 2.5 or 2.0 included) or lies below ``low`` or above ``high``."""
    try:
        v = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if high is not None and not low <= v <= high:
        raise ValueError(f"{name} must be in {low}..{high}, got {v}")
    if low is not None and v < low:
        raise ValueError(f"{name} must be >= {low}, got {v}")
    return v


@dataclass(frozen=True)
class Vocabulary:
    """Real-token alphabet ``[0, size)`` plus derived reserved symbol ids."""

    size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", checked_int("vocabulary size", self.size, 1))

    @cached_property
    def mask_id(self) -> Symbol:
        """Placeholder symbol standing in for not-yet-drafted positions."""
        return self.size

    @cached_property
    def feature_ids(self) -> range:
        """Reserved range of feature symbols: token t's symbol is ``feature_ids[t]``."""
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


def checked_tokens(sequences: Sequence[Sequence[Token]], vocab: Vocabulary,
                   what: str) -> tuple[list[int], np.ndarray]:
    """The one rule for token sequences: their lengths and their tokens
    back to back as int64, else ValueError for the first fault in order,
    named for ``what`` (``"prompt"``, ``"corpus"``): an entry that is not a
    sequence, a token that is not an integer, or one outside [0, V)."""
    try:
        lengths = [len(seq) for seq in sequences]
        flat = np.fromiter(map(operator.index, itertools.chain.from_iterable(sequences)),
                           dtype=np.int64, count=sum(lengths))
        # A negative token wraps past V as uint64: one compare checks both ends.
        if not np.count_nonzero(flat.view(np.uint64) >= vocab.size):
            return lengths, flat
    except (OverflowError, TypeError):  # not a sequence, a token beyond int64 or not an integer
        pass
    for i, seq in enumerate(sequences):
        if not isinstance(seq, Sized):
            raise ValueError(f"{what} entry {i} is not a sequence of tokens: {seq!r}")
        for t in seq:
            if not hasattr(type(t), "__index__"):
                raise ValueError(f"{what} token is not an integer: {t!r}")
            if not 0 <= operator.index(t) < vocab.size:
                raise ValueError(f"{what} token out of range [0, {vocab.size}): {t}")


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


def _checked_rows(
    contexts: ArrayLike, rows: ArrayLike, order: int, vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray]:
    """Stored contexts (R, order) and rows (R, V) as arrays, checked.

    Integer contexts and numeric rows are checked (context width, symbol
    range, then the distribution) in one pass over the whole arrays. Any
    other input (text, ragged rows, non-integer symbols), and any input with
    a faulty row, is walked row by row in the given order instead: text is
    parsed as ``int()`` and ``float()`` parse it, and the first faulty row's
    first fault is raised.
    """
    V = vocab.size
    try:
        keys = np.asarray(contexts) if len(contexts) else np.zeros((0, order), np.int64)
        probs = np.asarray(rows, dtype=np.float64) if len(rows) else np.zeros((0, V))
    except (ValueError, OverflowError, TypeError):  # ragged rows or keys, or non-numbers
        keys = probs = None
    if (
        keys is not None
        and keys.dtype.kind in "biu"
        and probs.shape == (len(contexts), V)
        and keys.shape == (len(contexts), order)
        and bool(np.all((keys >= 0) & (keys < vocab.num_symbols)))
        and not np.any(probs < 0.0)
        and bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= PROB_SUM_TOL))
    ):
        return keys.astype(np.int64, copy=False), probs
    keys, probs = [], []
    for key, row in zip(contexts, rows):
        if not np.iterable(key):  # one symbol, not a row of them
            raise ValueError(f"contexts must have shape (R, {order}) and rows (R, {V})")
        key = tuple(int(s) if isinstance(s, str) else checked_int("context symbol", s) for s in key)
        if len(key) != order:
            raise ValueError(f"context {key} does not match model order {order}")
        for s in key:
            if not 0 <= s < vocab.num_symbols:
                raise ValueError(f"context symbol out of range: {s}")
        keys.append(key)
        probs.append(as_distribution(row, V))
    if len(contexts) != len(rows):
        raise ValueError(f"contexts must have shape (R, {order}) and rows (R, {V})")
    return np.array(keys, dtype=np.int64).reshape(-1, order), np.array(probs).reshape(-1, V)


@cache
def code_weights(num_symbols: int, order: int) -> np.ndarray:
    """Place values ``num_symbols ** (order - 1 - j)`` of the order-wide
    mixed-radix code: int64 while ``num_symbols ** order`` fits in it, Python
    ints (an object array) above that, so no order overflows."""
    dtype = np.int64 if num_symbols**order <= 2**63 else object
    weights = np.array([num_symbols**j for j in range(order - 1, -1, -1)], dtype=dtype)
    weights.setflags(write=False)
    return weights


def context_codes(contexts: ArrayLike, num_symbols: int) -> np.ndarray:
    """Exact mixed-radix codes over ``num_symbols`` of (..., d) context rows.

    Equal rows get equal codes, and code order is the rows' lexicographic
    order (see :func:`code_weights`).
    """
    contexts = np.asarray(contexts)
    return contexts @ code_weights(num_symbols, contexts.shape[-1])


#: Largest model order. A model's place values take time quadratic in its
#: order (see :func:`code_weights`), so every model's order is checked against
#: it before any code is computed.
MAX_ORDER = 64

#: Largest code space, ``num_symbols ** order``, that a model indexes with a
#: dense intp code -> row array (16 MiB at the cap); above it a model
#: binary-searches its sorted codes.
DENSE_INDEX_MAX = 1 << 21


class TabularModel:
    """Finite-order conditional table with a total-lookup fallback.

    ``rows`` is one read-only (R + 1, V) array whose last row is the
    fallback, and ``contexts`` the read-only (R, order) array of stored
    contexts in sorted order: row r of ``rows`` is the next-token
    distribution of ``contexts[r]``. ``code_rows`` maps exact context codes
    (:func:`context_codes`) to row ids, the fallback's for a code without a
    stored row. The constructor takes the contexts and
    rows in any order, checks them, and rejects a context given twice.
    Immutable after construction; safe to share read-only across workers.
    """

    def __init__(self, order: int, vocab: Vocabulary, contexts: ArrayLike, rows: ArrayLike,
                 fallback: ArrayLike) -> None:
        order = checked_int("model order", order, 1, MAX_ORDER)
        fallback = as_distribution(fallback, vocab.size)
        keys, probs = _checked_rows(contexts, rows, order, vocab)
        num_symbols = vocab.num_symbols
        codes = context_codes(keys, num_symbols)
        by_code = np.argsort(codes, kind="stable")
        codes = codes[by_code]
        repeated = np.flatnonzero(codes[1:] == codes[:-1])
        if len(repeated):
            context = tuple(keys[by_code[repeated[0]]].tolist())
            raise ValueError(f"duplicate row for context {context}")
        self.order = order
        self.vocab = vocab
        self.contexts = keys[by_code]
        self.rows = np.concatenate([probs[by_code], fallback[None]])
        self.contexts.setflags(write=False)
        self.rows.setflags(write=False)
        #: The distribution of every context without a stored row.
        self.fallback = self.rows[-1]
        # Code -> row id: one dense array when the code space is small, else
        # a binary search over the sorted codes.
        if num_symbols**order <= DENSE_INDEX_MAX:
            dense = np.full(num_symbols**order, len(codes), dtype=np.intp)
            dense[codes] = np.arange(len(codes))
            self.code_rows = dense.__getitem__
        else:
            self.code_rows = partial(_search_rows, np.append(codes, -1))

    @property
    def table(self) -> Mapping[Context, np.ndarray]:
        """Read-only context -> row view over the arrays."""
        return _TableView(self)

    @cached_property
    def greedy_tokens(self) -> np.ndarray:
        """Each row's argmax token (ties to the lowest id), the fallback's
        last; read-only."""
        tokens = self.rows.argmax(axis=1)
        tokens.setflags(write=False)
        return tokens

    @cached_property
    def cdf(self) -> np.ndarray:
        """Each row's ``np.cumsum`` in token-id order, bytes as for the row alone; read-only."""
        cdf = np.cumsum(self.rows, axis=1)
        cdf.setflags(write=False)
        return cdf


def _search_rows(codes: np.ndarray, queries):
    """Row id of each query in ``codes`` (sorted codes, then a -1 that no
    code matches), else the last id, the fallback's; scalar in, scalar out."""
    found = np.searchsorted(codes[:-1], queries)
    return np.where(codes[found] == queries, found, len(codes) - 1)[()]


class _TableView(Mapping):
    """Stored contexts as tuples, in sorted order, mapped to their rows."""

    def __init__(self, model: TabularModel) -> None:
        self._model = model

    def __len__(self) -> int:
        return len(self._model.contexts)

    def __iter__(self) -> Iterator[Context]:
        return map(tuple, self._model.contexts.tolist())

    def __getitem__(self, key: Context) -> np.ndarray:
        try:
            row = _checked_row_ids(self._model, [key])[0]
        except ValueError:  # not a context of this model
            raise KeyError(key) from None
        if row == len(self._model.contexts):  # the fallback's row
            raise KeyError(key)
        return self._model.rows[row]


def row_ids(model: TabularModel, contexts: np.ndarray) -> np.ndarray:
    """Ids in ``model.rows`` of (..., order) pad-filled contexts whose
    symbols are already checked: a stored context's row, else the fallback's.

    Nothing is checked, so hot loops over checked data read rows by exact
    code alone; :func:`lookup_rows` is the checked form.
    """
    return model.code_rows(context_codes(contexts, model.vocab.num_symbols))


def lookup_rows(model: TabularModel, contexts: ArrayLike) -> np.ndarray:
    """Next-token distributions of (n, order) pad-filled contexts, (n, V).

    Row i is ``next_distribution(model, contexts[i])``: the stored row of
    that context, else the fallback. A symbol outside the model's symbol
    space raises ValueError naming the first one in row order.
    """
    return model.rows[_checked_row_ids(model, contexts)]


def _checked_row_ids(model: TabularModel, contexts: ArrayLike) -> np.ndarray:
    """:func:`row_ids` of (n, order) contexts after the checks of
    :func:`lookup_rows`."""
    symbols = np.asarray(contexts)
    if symbols.ndim != 2 or symbols.shape[1] != model.order:
        raise ValueError(f"contexts must have shape (n, {model.order}), got {symbols.shape}")
    if symbols.dtype.kind not in "biu":  # name a bad symbol as given, not as converted
        given = np.array(contexts, dtype=object).tolist()
        symbols = np.array([[checked_int("context symbol", s) for s in row] for row in given])
    bad = (symbols < 0) | (symbols >= model.vocab.num_symbols)
    if np.count_nonzero(bad):
        raise ValueError(f"context symbol out of range: {symbols[bad][0]}")
    return row_ids(model, symbols)


def next_distribution(model: TabularModel, context: Sequence[Symbol]) -> np.ndarray:
    """Conditional next-token distribution for the order-d suffix of ``context``.

    The one-context case of :func:`lookup_rows`, with its checks: short
    contexts are left-padded and unseen ones get the fallback. Only the
    padded order-d key is read and range-checked (ValueError), so the cost
    is O(d), whatever the length of ``context``. The result is the stored
    row itself, a read-only view.
    """
    order = model.order
    tail = list(context[-order:])
    key = [model.vocab.pad_id] * (order - len(tail)) + tail
    return model.rows[_checked_row_ids(model, [key])[0]]


def sample_sequences(model: TabularModel, uniforms: ArrayLike) -> np.ndarray:
    """(N, L) tokens: one sequence per row of the (N, L) ``uniforms`` (else
    ValueError), all in lockstep.

    Every sequence starts from the empty prefix. Token t of sequence i
    inverts its row's CDF, in token-id order, at ``uniforms[i, t]`` (in
    [0, 1), else ValueError) scaled by the CDF's own total; the scaling
    keeps a draw below the last cumulative sum even when rounding leaves
    that sum under one, so a draw never lands on a zero-probability token.
    """
    uniforms = np.asarray(uniforms, dtype=np.float64)
    if uniforms.ndim != 2:
        raise ValueError(f"uniforms must be 2-D (sequences, length), got shape {uniforms.shape}")
    bad = ~((uniforms >= 0.0) & (uniforms < 1.0))
    if bad.any():
        raise ValueError(f"uniform out of [0, 1): {float(uniforms[bad][0])}")
    length, order = uniforms.shape[1], model.order
    seqs = np.full((len(uniforms), order + length), model.vocab.pad_id, dtype=np.int64)
    for t in range(length):
        # Every sequence's first context is the empty prefix: one row for all.
        # Later contexts hold pads and sampled tokens: their row ids need no check.
        rows = (next_distribution(model, ())[None] if t == 0
                else model.rows[row_ids(model, seqs[:, t : t + order])])
        cdf = np.cumsum(rows, axis=1)
        # Row-wise searchsorted(side="right"): count the entries <= the draw.
        seqs[:, order + t] = (cdf <= (uniforms[:, t] * cdf[:, -1])[:, None]).sum(axis=1)
    return seqs[:, order:]


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
    lexicographic (``itertools.product``) order, the same stream as one call
    per row.
    """
    vocab_size = checked_int("vocab_size", vocab_size, 2)
    order = checked_int("order", order, 1, MAX_ORDER)
    if not 0 < concentration < math.inf:
        raise ValueError(f"concentration must be finite and > 0, got {concentration}")
    rng = np.random.default_rng(checked_int("seed", seed, 0))
    vocab = Vocabulary(vocab_size)
    alpha = np.full(vocab_size, float(concentration))
    symbols = np.array([*range(vocab_size), vocab.pad_id])
    contexts = symbols[np.indices((len(symbols),) * order).reshape(order, -1).T]
    rows = rng.dirichlet(alpha, size=len(contexts) + 1)
    return TabularModel(order, vocab, contexts, rows[1:], rows[0])


# Model files are line oriented: a header, the fallback row keyed by "*", then
# one row per context sorted by key. Each probability is written as
# ``'%.17g' % p`` writes it: 17 significant digits round-trip float64 exactly,
# so save/load is lossless and byte-stable.

_FALLBACK_KEY = "*"

#: Probabilities that :func:`save_model` formats and writes at a time, in
#: whole rows (one at least), so its temporaries stay small whatever V is.
_SAVE_VALUES = 8192

#: Bytes of one probability field: a ``0.000`` prefix, the first digit, the
#: point, 16 more digits, an ``e-XX`` suffix and a separator; unused bytes NUL.
_FIELD = 28


def _field_template(exp: int) -> str:
    """The field of a value with decimal exponent ``exp`` in -11..0, digits
    left NUL: ``%g`` writes ``0.000ddd`` for -4 <= exp < 0, ``d.ddd`` for exp
    0 and ``d.ddde-XX`` below -4."""
    fixed = -4 <= exp < 0
    return (("0." + "0" * (-exp - 1) if fixed else "").ljust(5, "\0") + "\0"
            + ("\0" if fixed else ".") + "\0" * 16
            + (f"e-{-exp:02d}" if exp < -4 else "").ljust(4, "\0") + " ")


#: Field templates, row i for exponent -i.
_TEMPLATES = np.frombuffer("".join(_field_template(-i) for i in range(12)).encode(),
                           np.uint8).reshape(12, _FIELD)


def _digit_groups() -> np.ndarray:
    """``%04d`` of 0..9999 as one uint32 each, then the same with its
    trailing zeros NUL: the table of 4-digit groups."""
    # int16 holds every value here (at most 10,000) in a quarter of int64's bytes.
    g = np.arange(10_000, dtype=np.int16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.int16)
    digits = (g // place % 10 + ord("0")).astype(np.uint8)
    stripped = np.where(g % (10 * place) == 0, 0, digits)
    return np.concatenate([digits, stripped]).view(np.uint32).ravel()


_GROUPS = _digit_groups()

#: ``5**s`` for s in 16..27, each below 2**63.
_POW5 = np.array([5**s for s in range(16, 28)], dtype=np.uint64)
_LOW32 = np.uint64(2**32 - 1)


def _digits(x: np.ndarray, lost: np.ndarray | None = None
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of each value in the 1-D ``x``, exactly:
    -E, D = x * 10**(16 - E) rounded half to even as an int64, and whether
    D is exact.

    For x in [1e-11, 10), ``x = m * 2**(e - 53)`` (m the 53-bit significand)
    and E = floor(log10 x), D = m * 5**s / 2**k rounded half to even, with
    s = 16 - E in 16..27 and k = 53 - e - s; m * 5**s < 2**116 is carried in
    two uint64 words. A wrong E shows as a D outside [10**16, 10**17) or
    above 64 bits: such a value is not exact, nor is a D that rounds up to
    10**17 or any value outside the range. So -E, in 0..11, may be given as
    ``lost`` in place of log10's.
    """
    exact = (x >= 1e-11) & (x < 10.0)
    y = np.where(exact, x, 1.0)
    if lost is None:
        lost = np.clip(-np.floor(np.log10(y)), 0, 11).astype(np.intp)
    bits = y.view(np.uint64)
    m = (bits & (2**52 - 1)) | 2**52
    p = _POW5[lost]
    k = (1059 - lost - (bits >> 52).view(np.int64)).view(np.uint64)  # 1059 = 53 - 16 + 1022
    # m * p = hi * 2**64 + lo from 32-bit halves; lo wraps, and lo < low is its carry.
    mh, ml, ph, pl = m >> 32, m & _LOW32, p >> 32, p & _LOW32
    low = ml * pl
    mid = mh * pl + ml * ph
    lo = low + (mid << 32)
    hi = mh * ph + (mid >> 32) + (lo < low)
    q = (hi << (64 - k)) | (lo >> k)
    half = np.uint64(1) << (k - 1)
    # Round up past half, or at half to even: rem + (q & 1) > half.
    d = (q + ((lo & (half + half - 1)) + (q & 1) > half)).view(np.int64)
    return lost, d, exact & (hi >> k == 0) & (q >= 10**16) & (d < 10**17)


def _probability_fields(probs: np.ndarray) -> np.ndarray:
    """Each probability of the (n, V) ``probs`` as ``'%.17g' % p`` writes it,
    then a space, a newline after a row's last: (n, V * _FIELD) uint8, NUL
    where a field is shorter.

    :func:`_digits` gives the digits of a value in [1e-11, 10), laid out in
    the field template of its exponent. The values it cannot give (0, -0
    and subnormals among them) go through ``'%.17g'`` one at a time.
    """
    n, V = probs.shape
    x = probs.ravel()
    lost, d, exact = _digits(x)
    # The first digit, the point if any digit follows, then four 4-digit
    # groups; a group with only zeros after it drops its trailing zeros.
    out = np.take(_TEMPLATES, lost, axis=0)
    lead = d // 10**16
    rest = d - lead * 10**16
    out[:, 5] = lead + 48
    out[:, 6] *= rest != 0
    upper = rest // 10**8
    lower = rest - upper * 10**8
    g0, g2 = upper // 10**4, lower // 10**4
    g1, g3 = upper - g0 * 10**4, lower - g2 * 10**4
    groups = np.stack([g0 + 10**4 * ((lower == 0) & (g1 == 0)), g1 + 10**4 * (lower == 0),
                       g2 + 10**4 * (g3 == 0), g3 + 10**4], axis=1)
    out[:, 7:23] = np.take(_GROUPS, groups).view(np.uint8)
    odd = np.flatnonzero(~exact)
    out[odd, :-1] = _percent_fields(x[odd])
    out = out.reshape(n, V * _FIELD)
    out[:, -1] = ord("\n")
    return out


def _percent_fields(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of each value, NUL-padded to a field without its separator."""
    text = b"".join([(b"%.17g" % v).ljust(_FIELD - 1, b"\0") for v in values.tolist()])
    return np.frombuffer(text, np.uint8).reshape(-1, _FIELD - 1)


def _symbol_fields(contexts: np.ndarray) -> np.ndarray:
    """Each symbol of the (n, d) ``contexts`` in decimal, then a space, a tab
    after a row's last: (n, d * (w + 1)) uint8, leading zeros NUL."""
    place = 10 ** np.arange(len(str(contexts.max())) - 1, -1, -1)
    c = contexts[..., None]
    digits = np.where((c >= place) | (place == 1), c // place % 10 + 48, 0)
    seps = np.full((*contexts.shape, 1), ord(" "))
    seps[:, -1] = ord("\t")
    return np.concatenate([digits, seps], axis=2).astype(np.uint8).reshape(len(contexts), -1)


def save_model(model: TabularModel, path: str | Path) -> None:
    """Write a model in the text format ``CONTEXT<TAB>p_0 ... p_{V-1}``, each
    probability as ``'%.17g' % p`` writes it, a block of rows at a time, so a
    large model's text is never held whole."""
    with open(path, "wb") as out:
        out.write(f"ngram v={model.vocab.size} d={model.order}\n{_FALLBACK_KEY}\t".encode())
        out.write(_probability_fields(model.fallback[None]).tobytes().translate(None, b"\0"))
        step = max(1, _SAVE_VALUES // model.vocab.size)
        for start in range(0, len(model.contexts), step):
            block = slice(start, min(start + step, len(model.contexts)))
            fields = np.concatenate([_symbol_fields(model.contexts[block]),
                                     _probability_fields(model.rows[block])], axis=1)
            out.write(fields.tobytes().translate(None, b"\0"))


def load_model(path: str | Path) -> TabularModel:
    """Read a model written by :func:`save_model`; validates on construction.

    A file in :func:`save_model`'s layout is parsed a block of lines at a
    time (:func:`_parsed_file`), any other file line by line
    (:func:`_walked_file`); both read the same text to the same values. The
    first faulty row, or a repeated one, raises ValueError naming the file.

    The walk is the price of a rare input, not a second fast path: on a
    2-core Xeon host, a 15,625-row target (V = 24, d = 3, 7.8 MiB) loads in
    about 50 ms through the array pass, and a CRLF copy of it in about
    430 ms through the walk, with a tracemalloc peak of 50 MiB against 13.
    """
    buf, size = _read_with_slack(path)
    order, vocab_size, contexts, rows, fallback = (_parsed_file(buf, size)
                                                   or _walked_file(buf, size, path))
    del buf  # megabytes for a large model: free them before the model's own arrays
    try:
        return TabularModel(order, Vocabulary(vocab_size), contexts, rows, fallback)
    except ValueError as exc:
        raise ValueError(f"{exc} in model file: {path}") from None


#: Zero bytes read after a model file's last byte, so that every 16-byte
#: window of :func:`_parsed_file` ends inside the buffer.
_SLACK = 16


def _read_with_slack(path: str | Path) -> tuple[bytearray, int]:
    """A file's bytes, then ``_SLACK`` zero bytes, in one buffer; and the
    file's length."""
    with open(path, "rb") as f:
        buf = bytearray(os.fstat(f.fileno()).st_size + _SLACK)
        size = f.readinto(buf)
        if size > len(buf) - _SLACK:  # grown since fstat, or not a regular file
            buf[size:] = f.read() + bytes(_SLACK)
            size = len(buf) - _SLACK
    return buf, size


def _header(line: str, path) -> tuple[int, int]:
    """Vocabulary size and order of a header line ``ngram v=V d=D``."""
    header = line.split()
    if len(header) == 3 and header[0] == "ngram" and header[1][:2] == "v=" and header[2][:2] == "d=":
        try:
            return int(header[1][2:]), int(header[2][2:])
        except ValueError:
            pass
    raise ValueError(f"bad model header: {line!r} in model file: {path}")


def _walked_file(buf: bytearray, size: int, path) -> tuple:
    """Order, vocabulary size, contexts, rows and fallback of any model
    file, read line by line: blank lines skipped, the fallback row anywhere,
    each row split into tokens by :func:`_split_rows`."""
    del buf[size:]
    try:
        text = buf.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{exc} in model file: {path}") from None
    lines = text.splitlines()
    del text  # each copy of a large model's text is megabytes: free each once read
    if not lines:
        raise ValueError(f"empty model file: {path}")
    vocab_size, order = _header(lines[0], path)
    fallback: list[str] | None = None
    keys: list[str] = []
    tails: list[str] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        key, sep, tail = line.partition("\t")
        if not sep:
            raise ValueError(f"malformed model line: {line!r} in model file: {path}")
        if key == _FALLBACK_KEY:
            if fallback is not None:
                raise ValueError(f"duplicate fallback row in model file: {path}")
            fallback = tail.split()
        else:
            keys.append(key)
            tails.append(tail)
    del lines
    if fallback is None:
        raise ValueError(f"model file missing fallback line: {path}")
    return order, vocab_size, *_split_rows(keys, tails), fallback


def _split_rows(keys: list[str], tails: list[str]) -> tuple[list, list]:
    """Each row's key and tail split into tokens, for :class:`TabularModel`
    to convert and check row by row, so that a fault is named in row order."""
    return [key.split() for key in keys], [tail.split() for tail in tails]


def _parsed_file(buf: bytearray, size: int) -> tuple | None:
    """Order, vocabulary size, contexts, rows and fallback of a file laid
    out as :func:`save_model` writes it, else None.

    The layout: the header line, the fallback line second, then lines of
    ``order`` digit runs, a tab and ``V`` numbers, fields split by single
    spaces, every line ended by a newline and no other byte below 33. The
    header and fallback lines are read as the walk reads them; the other
    lines, a block of about ``_SAVE_VALUES`` values at a time, through
    :func:`_digit_runs` and :func:`_parsed_values`. Any other layout, or a
    number that ``float()`` rejects, gives None.
    """
    second = buf.find(b"\n", buf.find(b"\n", 0, size) + 1, size)
    if second < 0:
        return None
    try:
        lines = buf[:second].decode("ascii").splitlines()
        vocab_size, order = _header(lines[0], None)
    except ValueError:  # not ASCII, or a bad header
        return None
    if (len(lines) != 2 or not lines[1].startswith(_FALLBACK_KEY + "\t")
            or vocab_size < 1 or not 1 <= order <= MAX_ORDER):
        return None
    fallback = lines[1][2:].split()
    pos = second + 1
    data, windows = _at_each_byte(buf, np.uint8), _at_each_byte(buf, np.complex128)
    # The context rows, if the layout holds: newlines, counted a MiB at a time.
    count = sum(int(np.count_nonzero(data[i : min(i + 2**20, size)] == ord("\n")))
                for i in range(pos, size, 2**20))
    fields = order + vocab_size
    if not count or 2 * fields * count > size - pos:  # no rows, or rows longer than the file
        return (order, vocab_size, [], [], fallback) if pos == size else None
    layout = np.full(fields, ord(" "), np.uint8)
    layout[[order - 1, -1]] = ord("\t"), ord("\n")
    contexts = np.empty((count, order), np.int64)
    rows = np.empty((count, vocab_size), np.float64)
    step = max(1, _SAVE_VALUES // vocab_size) * (size - pos) // count  # bytes of a block
    done = 0
    while pos < size:
        end = buf.find(b"\n", min(pos + step, size) - 1, size) + 1 or size
        sep = np.flatnonzero(data[pos:end] <= 32)
        n = len(sep) // fields
        if not n or len(sep) != n * fields or sep[-1] != end - pos - 1:
            return None
        sep = (sep + pos).reshape(n, fields)
        if np.any(data[sep] != layout):
            return None
        start = np.concatenate([[pos], sep.ravel()[:-1] + 1]).reshape(n, fields)
        key_end = sep[:, :order].ravel()
        key_len = key_end - start[:, :order].ravel()
        if (sep - start).min() < 1 or key_len.max() > 16:  # an empty field, a long key
            return None
        keys, digits = _digit_runs((_words(windows[key_end - 16]) ^ _ZEROS)
                                   & _words(_KEEP_LAST[key_len]))
        values = _parsed_values(buf, start[:, order:].ravel(), sep[:, order:].ravel())
        if not digits.all() or values is None:
            return None
        contexts[done : done + n] = keys.reshape(n, order)
        rows[done : done + n] = values.reshape(n, vocab_size)
        pos, done = end, done + n
    return order, vocab_size, contexts, rows, fallback


def _at_each_byte(buf, dtype) -> np.ndarray:
    """The item of ``dtype`` that starts at each byte offset of ``buf``.

    A 16-byte window is gathered as one complex128, about twice as fast as
    a row of two uint64; :func:`_words` reads the gathered windows.
    """
    width = np.dtype(dtype).itemsize
    return np.ndarray((len(buf) - width + 1,), dtype, buf, 0, (1,))


def _words(windows: np.ndarray) -> np.ndarray:
    """Gathered 16-byte windows as (n, 2) little-endian uint64 words."""
    return windows.view("<u8").reshape(-1, 2)


#: Eight ASCII zeros: a digit's byte XOR one of them is its value.
_ZEROS = np.uint64(int.from_bytes(b"0" * 8))

#: Row m keeps the first m of 16 bytes.
_KEPT = np.tri(17, 16, -1, np.uint8) * 255
#: 16-byte masks: ``_KEEP_LAST[m]`` keeps the last m bytes, and
#: ``_KEEP_FIRST[m + 1]`` the first m, for m in -1..17 (all 16 from 16 on).
_KEEP_LAST = np.ascontiguousarray(_KEPT[:, ::-1]).view(np.complex128).ravel()
_KEEP_FIRST = _KEPT[[0, *range(17), 16]].view(np.complex128).ravel()


def _digit_runs(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The number written by the 16 digits of each row of the (n, 2) words
    ``t``, each byte a digit's value (its byte XOR ``"0"``), first digit
    lowest, and whether each row's bytes are all digits (0 to 9)."""
    bad = (t | (t + 0x7676767676767676)) & 0x8080808080808080
    # Adjacent digits, then pairs, then quads combine by one multiply each.
    t = (t * 2561 >> 8) & 0x00FF00FF00FF00FF
    t = (t * 6553601 >> 16) & 0x0000FFFF0000FFFF
    t = t * 42949672960001 >> 32
    return (t[:, 0] * 10**8 + t[:, 1]).view(np.int64), (bad[:, 0] | bad[:, 1]) == 0


#: ``10**s`` as long double for s in 16..27, exact where it holds 64 bits.
_TENS = np.ldexp(_POW5.astype(np.longdouble), np.arange(16, 28))

#: The bytes of a number that :func:`_float_values` reads; ``float()``
#: reads more (``1_0``, non-ASCII digits, spaces), which only the walk meets.
_NUMBER_BYTES = b"0123456789.eE+-"


def _parsed_values(buf, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """``float()`` of each field ``buf[start:end]`` (none empty, and at
    least 16 more bytes after the last), else None: a field with a byte
    outside ``[0-9.eE+-]``, or one that ``float()`` rejects.

    A field ``d.ddd`` or ``0.000ddd``, either with an ``e-XX`` suffix and
    at most 16 digits after its first significant one, gives 17 digits D
    and an exponent E, and x = D / 10**(16 - E) in long double. x is proven when
    :func:`_digits` gives back D for it, exactly at that E: the field then
    has the decimal value of ``'%.17g' % x``, which ``float()`` reads as x.
    Every other field goes through :func:`_float_values`.
    """
    data, words = _at_each_byte(buf, np.uint8), _at_each_byte(buf, "<u8")
    head, tail = words[start], words[end - 4]
    # k: 0 for a field that starts "d", else one more than the zeros after
    # "0." (at most 3). The bytes it shares with "0.000" are the zero bytes
    # below y's lowest set bit.
    y = (head ^ int.from_bytes(b"0.000", "little")) | 1 << 40
    run = np.bitwise_count((y & (0 - y)) - 1) >> 3
    k = run - (run > 0)
    q = start + k + 2  # the byte after the first significant digit and any point
    has_exp = ((tail & 0xFFFF) == int.from_bytes(b"e-", "little")) & (end - start >= 5)
    ex = (((tail >> 16) & 0xFFFF) ^ 0x3030).view(np.int64) * has_exp
    m = end - 4 * has_exp - q  # the digits after the first one; -1 for "d" and "de-XX"
    windows = _at_each_byte(buf, np.complex128)
    rest, digits = _digit_runs((_words(windows[q]) ^ _ZEROS)
                               & _words(_KEEP_FIRST[np.minimum(m, 17) + 1]))
    lead = data[q - 1 - (k == 0)]
    lost = k + (ex & 0xFF) * 10 + (ex >> 8)  # -E
    held = np.minimum(lost, 11)
    d = rest + (lead.astype(np.int64) - ord("0")) * 10**16
    x = (d.astype(np.longdouble) / _TENS[held]).astype(np.float64)
    # A lead digit other than 1-9 leaves d outside [10**16, 10**17): not proven.
    _, proven, exact = _digits(x, held)
    ok = (digits & exact & (proven == d) & (lost == held) & (m <= 16)
          & (((head & 0xFF00) == ord(".") << 8) | (m == -1))
          & ((ex | (ex + 0x7676)) & 0x8080 == 0))
    odd = np.flatnonzero(~ok)
    if len(odd):
        values = _float_values(buf, start[odd], end[odd])
        if values is None:
            return None
        x[odd] = values
    return x


def _float_values(buf, start: np.ndarray, end: np.ndarray) -> list[float] | None:
    """``float()`` of each field ``buf[start:end]``, else None: a field
    with a byte outside ``[0-9.eE+-]``, or one that ``float()`` rejects."""
    values = []
    for s, e in zip(start.tolist(), end.tolist()):
        field = buf[s:e]
        if field.translate(None, _NUMBER_BYTES):
            return None
        try:
            values.append(float(field))
        except ValueError:
            return None
    return values
