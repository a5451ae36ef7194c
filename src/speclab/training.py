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

import numpy as np

from .drafting import GateConfig, apply_gate, compute_feature, masked_context
from .models import (
    RNG,
    SAMPLE,
    Context,
    Symbol,
    TabularModel,
    Token,
    Vocabulary,
    generate_autoregressive,
    next_distribution,
    padded_suffix,
)

UNIFORM = "uniform"
DECAY = "decay"
CAT = "cat"
WEIGHTINGS = (UNIFORM, DECAY, CAT)

#: Confidences are clamped to [CONFIDENCE_EPS, 1] before cumulative products
#: so an exactly-zero target probability cannot zero out every later weight.
CONFIDENCE_EPS = 1e-12


@dataclass(frozen=True)
class CatWeights:
    """Per-position confidences and their cumulative-product weights.

    weights[0] = 1 and weights[k+1] = weights[k] * confidences[k] exactly, so
    weights are nonincreasing whenever confidences stay in [0, 1].
    """

    confidences: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.confidences) != len(self.weights):
            raise ValueError("confidences and weights must have equal length")
        if not self.weights:
            raise ValueError("weights must be nonempty")
        if self.weights[0] != 1.0:
            raise ValueError("weights must start at 1")
        for k in range(len(self.weights) - 1):
            if abs(self.weights[k + 1] - self.weights[k] * self.confidences[k]) > 1e-15:
                raise ValueError("weights must follow the cumulative-product recursion")
        for x in self.confidences + self.weights:
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"entry out of [0, 1]: {x}")


def cat_weights(confidences: Sequence[float]) -> CatWeights:
    """Cumulative-product weights from per-position target confidences."""
    clamped = []
    for c in confidences:
        c = float(c)
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"confidence out of [0, 1]: {c}")
        clamped.append(min(max(c, CONFIDENCE_EPS), 1.0))
    weights = [1.0]
    for c in clamped[:-1]:
        weights.append(weights[-1] * c)
    return CatWeights(confidences=tuple(clamped), weights=tuple(weights))


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
        if self.draft_len < 1:
            raise ValueError(f"draft_len must be >= 1, got {self.draft_len}")
        if self.drafter_order is not None and self.drafter_order < 1:
            raise ValueError(f"drafter_order must be >= 1, got {self.drafter_order}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.smoothing < 0.0:
            raise ValueError(f"smoothing must be >= 0, got {self.smoothing}")
        if self.kd_weight < 0.0:
            raise ValueError(f"kd_weight must be >= 0, got {self.kd_weight}")


@dataclass(frozen=True)
class TrainingWindow:
    """One sliding-window training example.

    ``prefix_context`` is the order-d (padded) suffix of the true prefix;
    ``target_dists`` are the target's conditionals on the true prefixes, so
    for confidence weighting target_dists[k][future_tokens[k]] equals the
    stored confidence (up to the epsilon clamp). ``feature`` is the gated
    feature symbol, or the sentinel ``none_feature_id``.
    """

    prefix_context: Context
    future_tokens: tuple[Token, ...]
    target_dists: tuple[np.ndarray, ...]
    feature: Symbol
    weights: CatWeights

    def __post_init__(self) -> None:
        n = len(self.future_tokens)
        if len(self.target_dists) != n or len(self.weights.weights) != n:
            raise ValueError("window fields must agree on draft length")


def target_confidences(
    target: TabularModel,
    sequence: Sequence[Token],
    n: int,
    draft_len: int,
) -> list[float]:
    """Teacher-forced probabilities of the ground-truth tokens after position n.

    Confidence k is the target's probability of sequence[n+k] conditioned on
    the true prefix sequence[:n+k]; drafted tokens and masks never enter.
    """
    if n < 0 or n + draft_len > len(sequence):
        raise ValueError("window [n, n + draft_len) must lie inside the sequence")
    d = target.order
    out = []
    for k in range(draft_len):
        ctx = sequence[max(0, n + k - d) : n + k]
        dist = next_distribution(target, ctx)
        out.append(float(dist[sequence[n + k]]))
    return out


def window_loss(drafter: TabularModel, window: TrainingWindow, config: TrainConfig) -> float:
    """Weighted CE + KD objective of one window under the drafter's masked contexts.

    CE is -log q(ground truth), KD is forward KL(target || drafter); weights
    are constants. Returns inf when the drafter gives zero mass where the
    objective needs support (the overflow signal for unsmoothed tables).
    """
    vocab = drafter.vocab
    total = 0.0
    for k, y in enumerate(window.future_tokens):
        w = window.weights.weights[k]
        if w == 0.0:
            continue
        ctx = masked_context(window.prefix_context, window.feature, k, vocab, drafter.order)
        q = next_distribution(drafter, ctx)
        term = 0.0
        if config.beta > 0.0:
            qy = float(q[y])
            term += config.beta * (math.inf if qy <= 0.0 else -math.log(qy))
        if config.kd_weight > 0.0:
            p = window.target_dists[k]
            support = p > 0.0
            if np.any(support & (np.asarray(q) <= 0.0)):
                term += math.inf
            else:
                ps = p[support]
                term += config.kd_weight * float(np.sum(ps * (np.log(ps) - np.log(q[support]))))
        total += w * term
        if math.isinf(total):
            return math.inf
    return float(total)


def sample_corpus(
    model: TabularModel, num_sequences: int, sequence_length: int, rng: RNG
) -> list[list[Token]]:
    """Self-distillation data: sequences sampled from the model itself."""
    return [
        generate_autoregressive(model, (), sequence_length, mode=SAMPLE, rng=rng)
        for _ in range(num_sequences)
    ]


def _window_weights(config: TrainConfig, confidences: Sequence[float]) -> CatWeights:
    if config.weighting == CAT:
        return cat_weights(confidences)
    if config.weighting == DECAY:
        return cat_weights([config.gamma] * len(confidences))
    return cat_weights([1.0] * len(confidences))


def build_training_windows(
    target: TabularModel,
    corpus: Sequence[Sequence[Token]],
    config: TrainConfig,
    rng: RNG,
) -> list[TrainingWindow]:
    """Slide a draft_len window (stride 1, nonempty prefix) over each sequence.

    Per window: target conditionals and confidences are computed teacher
    forced, weights follow config.weighting, and the pre-gate feature from
    the true prefix passes through the stochastic gate. Sequences shorter
    than draft_len + 1 are skipped. Every corpus token must be a real token
    of the target's vocabulary, else ValueError.
    """
    gate = GateConfig(rho=config.rho)
    vocab = target.vocab
    d = target.order
    d_drafter = config.drafter_order if config.drafter_order is not None else d
    K = config.draft_len
    windows: list[TrainingWindow] = []
    for seq in corpus:
        seq = [int(t) for t in seq]
        for t in seq:
            if not vocab.is_real(t):
                raise ValueError(f"corpus token out of range [0, {vocab.size}): {t}")
        if len(seq) < K + 1:
            continue
        for n in range(1, len(seq) - K + 1):
            dists = tuple(
                next_distribution(target, seq[max(0, n + k - d) : n + k]) for k in range(K)
            )
            future = tuple(seq[n : n + K])
            conf = [float(dists[k][future[k]]) for k in range(K)]
            feature = apply_gate(compute_feature(target, seq[:n]), gate, vocab, rng)
            windows.append(
                TrainingWindow(
                    prefix_context=padded_suffix(seq[:n], d_drafter, vocab.pad_id),
                    future_tokens=future,
                    target_dists=dists,
                    feature=feature,
                    weights=_window_weights(config, conf),
                )
            )
    return windows


def train_tabular_drafter(windows: Sequence[TrainingWindow], config: TrainConfig) -> TabularModel:
    """Closed-form minimizer of the summed window loss over tabular drafters.

    Every window position adds soft count w * (beta * onehot(truth) +
    kd_weight * target_dist) to its masked context; each context's
    distribution is the add-k normalization of its soft counts, and the
    fallback is the add-k normalization of the global aggregate. Per-context
    weighted CE+KL is minimized exactly by this normalized mixture.
    """
    if not windows:
        raise ValueError("cannot train a drafter from zero windows")
    vocab_size = len(windows[0].target_dists[0])
    order = len(windows[0].prefix_context)
    draft_len = len(windows[0].future_tokens)
    vocab = Vocabulary(vocab_size)
    if draft_len != config.draft_len:
        raise ValueError(
            f"windows built for draft_len {draft_len}, config says {config.draft_len}"
        )

    soft: dict[Context, np.ndarray] = {}
    for w in windows:
        if len(w.prefix_context) != order or len(w.target_dists[0]) != vocab_size:
            raise ValueError("windows disagree on order or vocabulary size")
        # Positions k >= order all share the all-mask context.
        contexts = [
            masked_context(w.prefix_context, w.feature, k, vocab, order)
            for k in range(min(draft_len, order + 1))
        ]
        for k, y in enumerate(w.future_tokens):
            s = w.weights.weights[k]
            if s == 0.0:
                continue
            ctx = contexts[min(k, order)]
            vec = soft.setdefault(ctx, np.zeros(vocab_size, dtype=np.float64))
            if config.kd_weight > 0.0:
                vec += (s * config.kd_weight) * w.target_dists[k]
            if config.beta > 0.0:
                vec[y] += s * config.beta
    if not soft:
        raise ValueError("all window weights were zero; nothing to train on")

    smoothing = config.smoothing
    table: dict[Context, np.ndarray] = {}
    aggregate = np.zeros(vocab_size, dtype=np.float64)
    for ctx, vec in soft.items():
        mass = float(vec.sum())
        if mass + smoothing * vocab_size == 0.0:
            raise ValueError("context received zero training mass; increase smoothing")
        table[ctx] = (vec + smoothing) / (mass + smoothing * vocab_size)
        aggregate += vec
    fallback = (aggregate + smoothing) / (aggregate.sum() + smoothing * vocab_size)
    return TabularModel(order=order, vocab=vocab, table=table, fallback=fallback)


def mean_window_loss(
    drafter: TabularModel, windows: Sequence[TrainingWindow], config: TrainConfig
) -> float:
    if not windows:
        raise ValueError("no windows to evaluate")
    return float(np.mean([window_loss(drafter, w, config) for w in windows]))


# Key-value config files mirror the training hyperparameter sheet; fields that
# only make sense for a gradient trainer are accepted but ignored.

_CONFIG_ALIASES = {
    "k": "draft_len",
    "draft_len": "draft_len",
    "training_draft_length_k": "draft_len",
    "rho": "rho",
    "stochastic_gating_ratio": "rho",
    "beta": "beta",
    "ce_loss_coefficient": "beta",
    "weighting": "weighting",
    "gamma": "gamma",
    "smoothing": "smoothing",
    "kd_weight": "kd_weight",
    "drafter_order": "drafter_order",
    "seed": "seed",
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

_INT_FIELDS = {"draft_len", "drafter_order", "seed"}
_FLOAT_FIELDS = {"rho", "beta", "gamma", "smoothing", "kd_weight"}


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

    Unknown keys raise ValueError; gradient-trainer keys are returned in the
    ignored list so callers can warn.
    """
    kwargs: dict = {}
    ignored: list[str] = []
    for key, norm, value in read_key_values(text):
        if norm in _GRADIENT_ONLY_KEYS:
            ignored.append(key)
            continue
        if norm not in _CONFIG_ALIASES:
            raise ValueError(f"unknown training config key: {key!r}")
        field_name = _CONFIG_ALIASES[norm]
        if field_name in _INT_FIELDS:
            kwargs[field_name] = int(value)
        elif field_name in _FLOAT_FIELDS:
            kwargs[field_name] = float(value)
        else:
            kwargs[field_name] = value
    return kwargs, ignored
