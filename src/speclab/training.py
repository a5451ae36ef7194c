"""Confidence-adaptive drafter training with a closed-form tabular optimizer.

Each sliding window over a training sequence yields one weighted example per
draft position: the drafter should predict the ground-truth token from its
masked context, weighted by the cumulative product of the target's
teacher-forced confidences along the preceding positions. That weight is the
estimated probability the position is ever reached during verification, so
training effort concentrates on tokens that can actually extend an accepted
prefix. Fixed geometric decay and uniform weighting are the constant-
confidence special cases.

For tabular drafters the weighted CE+KD objective has an exact minimizer:
per masked context, the normalized weighted mixture of one-hot ground truth
and target distributions. Weights enter only as constants, which realizes the
stop-gradient semantics without any autodiff.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import get_args, get_type_hints

import numpy as np
from numpy.typing import ArrayLike

from .drafting import GateConfig, apply_gate, masked_contexts
from .models import (
    MAX_ORDER,
    RNG,
    TabularModel,
    Token,
    Vocabulary,
    checked_int,
    checked_tokens,
    context_codes,
    lookup_rows,
    next_distribution,  # noqa: F401 - perfbench's tracer test patches it here
    row_ids,
    sample_sequences,
)

UNIFORM = "uniform"
DECAY = "decay"
CAT = "cat"
WEIGHTINGS = (UNIFORM, DECAY, CAT)

#: Confidences are clamped to [CONFIDENCE_EPS, 1] before cumulative products
#: so an exactly-zero target probability cannot zero out every later weight.
CONFIDENCE_EPS = 1e-12


def cat_weights(confidences: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Clamped confidences and their cumulative-product weights.

    ``confidences`` is any array whose last axis runs over the K draft
    positions. weights[..., 0] = 1 and weights[..., k+1] = weights[..., k] *
    clamped[..., k] exactly, so weights are nonincreasing. A confidence
    outside [0, 1] raises ValueError.
    """
    clamped = _clamped(confidences)
    return clamped, _cumulative_weights(clamped)


def _clamped(confidences: ArrayLike) -> np.ndarray:
    """Confidences as float64 clamped to [CONFIDENCE_EPS, 1]; a confidence
    outside [0, 1] raises ValueError."""
    confidences = np.asarray(confidences, dtype=np.float64)
    bad = ~((confidences >= 0.0) & (confidences <= 1.0))
    if bad.any():
        raise ValueError(f"confidence out of [0, 1]: {float(confidences[bad][0])}")
    return np.clip(confidences, CONFIDENCE_EPS, 1.0)


def _cumulative_weights(clamped: np.ndarray) -> np.ndarray:
    """The weights of :func:`cat_weights` for already clamped confidences."""
    # One multiply per position over position-major rows, left to right:
    # the recursion's floats exactly, and cheaper than np.cumprod along a
    # short last axis, which pays per element.
    *rest, positions = clamped.shape
    by_position = clamped.reshape(math.prod(rest), positions).T
    weights = np.empty(by_position.shape)
    weights[:1] = 1.0
    for k in range(positions - 1):
        np.multiply(weights[k], by_position[k], out=weights[k + 1])
    return np.ascontiguousarray(weights.T).reshape(clamped.shape)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for window construction, weighting, and the tabular trainer.

    ``beta`` scales the supervised CE term against the distillation term,
    which carries coefficient ``kd_weight`` (1 keeps the combined objective
    as written; 0 switches distillation off exactly). ``drafter_order``
    truncates the drafter's context below the target's order, the usual
    weak-drafter regime; None trains at the target's own order.
    """

    draft_len: int = 16
    rho: float = 0.1
    beta: float = 0.1
    weighting: str = CAT
    gamma: float = 1.0
    smoothing: float = 0.1
    kd_weight: float = 1.0
    drafter_order: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "draft_len", checked_int("draft_len", self.draft_len, 1))
        if self.drafter_order is not None:
            object.__setattr__(self, "drafter_order",
                               checked_int("drafter_order", self.drafter_order, 1, MAX_ORDER))
        GateConfig(self.rho)  # checks rho
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 <= self.smoothing < math.inf:
            raise ValueError(f"smoothing must be finite and >= 0, got {self.smoothing}")
        if not 0.0 <= self.kd_weight < math.inf:
            raise ValueError(f"kd_weight must be finite and >= 0, got {self.kd_weight}")
        object.__setattr__(self, "seed", checked_int("seed", self.seed, 0))


@dataclass(frozen=True, eq=False)
class TrainingWindows:
    """Every training window of a corpus as arrays: n windows of draft length K.

    ``target_rows`` (P, V) holds one teacher-forced target conditional per
    corpus position, and window i's position k reads row ``starts[i] + k``,
    so overlapping windows share their rows. ``prefix_contexts`` (n, d) holds
    the pad-filled order-d suffix of each true prefix, ``future_tokens``
    (n, K) the ground truth, ``features`` (n,) the gated feature symbol or
    the sentinel, and ``confidences`` and ``weights`` (n, K) the clamped
    confidences and weights of :func:`cat_weights`. ``len()`` is n.
    """

    target_rows: np.ndarray
    starts: np.ndarray
    prefix_contexts: np.ndarray
    future_tokens: np.ndarray
    features: np.ndarray
    confidences: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.starts)


def sample_corpus(
    model: TabularModel, num_sequences: int, sequence_length: int, rng: RNG
) -> list[list[Token]]:
    """Self-distillation data: sequences sampled from the model itself, with
    one ``rng.random`` call for all tokens (the stream of one draw each).
    A count that is not an integer >= 0 raises ValueError naming it."""
    uniforms = rng.random((checked_int("num_sequences", num_sequences, 0),
                           checked_int("sequence_length", sequence_length, 0)))
    return sample_sequences(model, uniforms).tolist()


def build_training_windows(
    target: TabularModel,
    corpus: Sequence[Sequence[Token]],
    config: TrainConfig,
    rng: RNG,
) -> TrainingWindows:
    """Slide a draft_len window (stride 1, nonempty prefix) over each sequence.

    One array pass builds every window, with no loop over sequences. The
    corpus is flattened and checked once, by
    :func:`~speclab.models.checked_tokens`; the sequences long enough
    to window (draft_len + 1 tokens or more) are laid out back to back in
    one buffer, each behind as many pads as the wider of the target's and
    the drafter's orders, so a position's pad-filled context is the buffer
    slice that ends at it, and contexts, prefixes and future tokens are
    gathered at offsets found by index arithmetic. Each position after a
    sequence's first is looked up in the target once, teacher forced:
    window i's position k reads row ``starts[i] + k``, and its pre-gate
    feature is the argmax of its first row. Weights follow
    config.weighting, and the feature passes through the stochastic gate,
    one draw per window in corpus order. A corpus entry that is not a
    sequence, or a token that is not an integer or not a real token of the
    target's vocabulary, raises ValueError for the first one in corpus
    order, in short sequences too.
    """
    vocab = target.vocab
    d = target.order
    d_drafter = config.drafter_order if config.drafter_order is not None else d
    K = config.draft_len
    width = max(d, d_drafter)
    lengths, flat = checked_tokens(corpus, vocab, "corpus")
    lengths = np.array(lengths, dtype=np.intp)

    # With i counting the kept sequences' tokens, events (positions after a
    # sequence's first) or windows, and j the kept sequence the i-th one is
    # in: token i lies at buffer offset i + (j + 1) * width, event i at
    # i + (j + 1) * (width + 1), and window i starts at event i + j * (K - 1).
    keep = lengths > K
    kept = lengths[keep]
    tokens = flat[np.repeat(keep, lengths)]
    j = np.arange(len(kept))
    buf = np.full(len(tokens) + len(kept) * width, vocab.pad_id, dtype=np.intp)
    buf[np.arange(len(tokens)) + np.repeat((j + 1) * width, kept)] = tokens
    event_at = np.arange(len(tokens) - len(kept)) + np.repeat((j + 1) * (width + 1), kept - 1)
    starts = np.arange((kept - K).sum()) + np.repeat(j * (K - 1), kept - K)

    # Event i's row is the target's conditional of its token given the
    # order-d context that ends before it.
    target_rows = target.rows[row_ids(target, buf[event_at[:, None] + np.arange(-d, 0)])]
    prefixes = buf[event_at[starts][:, None] + np.arange(-d_drafter, 0)]
    top = np.take(target_rows, starts, axis=0).argmax(axis=1)
    features = apply_gate(vocab.feature_ids[0] + top, GateConfig(config.rho), vocab, rng)
    labels = buf[event_at]
    rows = starts[:, None] + np.arange(K)
    future = labels[rows]
    if config.weighting == CAT:
        confidences = _clamped(target_rows[np.arange(len(labels)), labels])[rows]
    else:
        constant = _clamped(config.gamma if config.weighting == DECAY else 1.0)
        confidences = np.full(rows.shape, constant)
    arrays = (target_rows, starts, prefixes, future, features, confidences,
              _cumulative_weights(confidences))
    for arr in arrays:
        arr.setflags(write=False)
    return TrainingWindows(*arrays)


def _position_contexts(
    windows: TrainingWindows, vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of the masked drafter context of every window position.

    Returns ``codes`` (n, K), the id of window i's context at position k,
    and ``keys``, whose row c is the context with id c. Positions k >= order
    all share the all-mask context, so only min(K, order + 1) are laid out.
    """
    n, draft_len = windows.weights.shape
    order = windows.prefix_contexts.shape[1]
    distinct = min(draft_len, order + 1)
    contexts = masked_contexts(windows.prefix_contexts, windows.features, np.arange(distinct),
                               vocab, order).reshape(-1, order)
    # A context's id is the rank of its exact code among the distinct codes.
    codes = np.unique(context_codes(contexts, vocab.num_symbols), return_inverse=True)[1]
    keys = np.empty((codes.max(initial=-1) + 1, order), dtype=contexts.dtype)
    keys[codes] = contexts
    return np.take(codes.reshape(n, distinct), np.minimum(np.arange(draft_len), order),
                   axis=1), keys


#: Soft-count events per ``np.add.at`` call. Each event adds V + 1 entries,
#: so this bounds the memory of the interleaved stream's buffers.
_EVENT_CHUNK = 1024


def train_tabular_drafter(windows: TrainingWindows, config: TrainConfig) -> TabularModel:
    """Closed-form minimizer of the summed window loss over tabular drafters.

    Every window position adds soft count w * (beta * onehot(truth) +
    kd_weight * target_dist) to its masked context; each context's
    distribution is the add-k normalization of its soft counts, and the
    fallback is the add-k normalization of the global aggregate. Per-context
    weighted CE+KL is minimized exactly by this normalized mixture.

    Positions with weight zero add nothing and create no context. The counts
    are summed in window-then-position order, the distillation row before
    the one-hot, and the aggregate over contexts in the order positions
    first reach them, so the floats do not depend on how the work is split.
    """
    if not windows:
        raise ValueError("cannot train a drafter from zero windows")
    draft_len = windows.weights.shape[1]
    vocab_size = windows.target_rows.shape[1]
    order = windows.prefix_contexts.shape[1]
    vocab = Vocabulary(vocab_size)
    if draft_len != config.draft_len:
        raise ValueError(
            f"windows built for draft_len {draft_len}, config says {config.draft_len}"
        )

    codes, key_rows = _position_contexts(windows, vocab)
    live = windows.weights != 0.0
    if not live.any():
        raise ValueError("all window weights were zero; nothing to train on")
    # The contexts the live positions reach, in the order they first reach them.
    first = np.full(len(key_rows), codes.size)
    np.minimum.at(first, codes[live], np.flatnonzero(live))
    seen = np.flatnonzero(first < codes.size)
    seen = seen[np.argsort(first[seen])]
    event_ctx = codes.ravel()
    event_w = windows.weights.ravel()
    event_labels = windows.future_tokens.ravel()

    # One stream entry per soft-count addend, each position's distillation
    # row first and its one-hot entry last, added in stream order. A position
    # of weight zero adds exact zeros, which leave every count as it is. The
    # chunk buffers are allocated once and each chunk fills them in place.
    use_kd, use_ce = config.kd_weight > 0.0, config.beta > 0.0
    width = vocab_size * use_kd + use_ce
    size = min(len(event_ctx), _EVENT_CHUNK)
    index = np.empty((size, width), dtype=np.intp)
    value = np.empty((size, width))
    gathered = np.empty((size, vocab_size))
    # The target rows of every position of the windows one chunk touches.
    spans = np.empty((size // draft_len + 2, draft_len), dtype=np.intp)
    positions = np.arange(draft_len)
    columns = np.arange(vocab_size)
    soft = np.zeros(len(key_rows) * vocab_size)
    for lo in range(0, len(event_ctx), size):
        chunk = slice(lo, lo + size)
        base = event_ctx[chunk, None] * vocab_size
        m = len(base)
        if use_kd:
            np.add(base, columns, out=index[:m, :vocab_size])
            # Rows of the chunk's windows, from the one that holds event lo.
            w = lo // draft_len
            touched = -(-(lo + m) // draft_len) - w
            rows = np.add(windows.starts[w : w + touched, None], positions,
                          out=spans[:touched]).ravel()[lo - w * draft_len :][:m]
            # take buffers ``out`` under the default mode="raise"; the row
            # ids are in range by construction, so "clip" never clips.
            np.take(windows.target_rows, rows, axis=0, out=gathered[:m], mode="clip")
            np.multiply((event_w[chunk] * config.kd_weight)[:, None], gathered[:m],
                        out=value[:m, :vocab_size])
        if use_ce:
            np.add(base[:, 0], event_labels[chunk], out=index[:m, -1])
            np.multiply(event_w[chunk], config.beta, out=value[:m, -1])
        np.add.at(soft, index[:m].ravel(), value[:m].ravel())
    soft = soft.reshape(len(key_rows), vocab_size)[seen]

    smoothing = config.smoothing
    denominators = soft.sum(axis=1) + smoothing * vocab_size
    if np.any(denominators == 0.0):
        raise ValueError("context received zero training mass; increase smoothing")
    table_rows = (soft + smoothing) / denominators[:, None]
    aggregate = np.cumsum(soft, axis=0)[-1]
    fallback = (aggregate + smoothing) / (aggregate.sum() + smoothing * vocab_size)
    return TabularModel(order, vocab, key_rows[seen], table_rows, fallback)


def window_losses(
    drafter: TabularModel, windows: TrainingWindows, config: TrainConfig
) -> np.ndarray:
    """Weighted CE + KD objective of each window under the drafter's masked contexts.

    CE is -log q(ground truth) and KD is forward KL(target || drafter); the
    weights are constants, positions add up in k order, and a position of
    weight zero adds nothing. A window's loss is inf when the drafter gives
    zero mass where one of its weighted positions needs support (the
    overflow signal for unsmoothed tables). Each distinct context is looked
    up once. A drafter of another order or vocabulary than the windows'
    raises ValueError.
    """
    n, draft_len = windows.weights.shape
    order, vocab = windows.prefix_contexts.shape[1], drafter.vocab
    if drafter.order != order or vocab.size != windows.target_rows.shape[1]:
        raise ValueError(
            f"drafter (order {drafter.order}, V={vocab.size}) does not match the windows "
            f"(order {order}, V={windows.target_rows.shape[1]})"
        )
    codes, keys = _position_contexts(windows, vocab)
    q_rows = lookup_rows(drafter, keys)
    losses = np.zeros(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q_rows, log_p_rows = np.log(q_rows), np.log(windows.target_rows)
        for k in range(draft_len):
            q, log_q = q_rows[codes[:, k]], log_q_rows[codes[:, k]]
            term = np.zeros(n)
            if config.beta > 0.0:
                term = config.beta * -log_q[np.arange(n), windows.future_tokens[:, k]]
            if config.kd_weight > 0.0:
                rows = windows.starts + k
                p = windows.target_rows[rows]
                support = p > 0.0
                kl = np.where(support, p * (log_p_rows[rows] - log_q), 0.0).sum(axis=1)
                uncovered = (support & (q <= 0.0)).any(axis=1)
                term = term + np.where(uncovered, np.inf, config.kd_weight * kl)
            weight = windows.weights[:, k]
            losses += np.where(weight != 0.0, weight * term, 0.0)
    return losses


# Key-value config files mirror the training hyperparameter sheet; fields that
# only make sense for a gradient trainer are accepted but ignored.

_CONFIG_ALIASES = {
    "k": "draft_len",
    "training_draft_length_k": "draft_len",
    "stochastic_gating_ratio": "rho",
    "ce_loss_coefficient": "beta",
}

_GRADIENT_ONLY_KEYS = {
    "optimizers",
    "learning_rate",
    "per_device_train_batch_size",
    "gradient_accumulation_steps",
    "num_processes",
    "num_train_epochs",
    "max_seq_length",
}

_FIELD_TYPES = {k: (get_args(t) or (t,))[0] for k, t in get_type_hints(TrainConfig).items()}


def read_key_values(text: str) -> Iterator[tuple[str, str, str]]:
    """Yield ``key = value`` lines as (key as written, normalized key, value).

    ``#`` starts a comment and blank lines are skipped; the normalized key is
    lowercased with spaces and dashes turned into underscores. A line without
    ``=`` raises ValueError.
    """
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config lines must look like key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        yield key, key.lower().replace(" ", "_").replace("-", "_"), value


def parse_train_config_file(text: str) -> tuple[dict, list[str]]:
    """Parse key=value lines into TrainConfig kwargs plus ignored-key names.

    Keys are TrainConfig field names or aliases, cast by the field's type.
    Unknown keys raise ValueError; gradient-trainer keys are returned as ignored.
    """
    kwargs: dict = {}
    ignored: list[str] = []
    for key, norm, value in read_key_values(text):
        if norm in _GRADIENT_ONLY_KEYS:
            ignored.append(key)
            continue
        field_name = _CONFIG_ALIASES.get(norm, norm)
        if field_name not in _FIELD_TYPES:
            raise ValueError(f"unknown training config key: {key!r}")
        cast = _FIELD_TYPES[field_name]
        try:
            kwargs[field_name] = cast(value)
        except ValueError:
            raise ValueError(f"bad value for training config key {key!r}: {value!r} "
                             f"(expected {cast.__name__})") from None
    return kwargs, ignored
