"""Benchmark runner: decodes a prompt batch, lays out and writes its report.

Speedup is estimated with a wall-clock-free cost model: one verification
round costs one target pass plus ``draft_cost`` drafter passes, so the
estimate is committed-tokens-per-step / (1 + draft_cost). Each prompt's
draws come from streams seeded by (seed, prompt index), so a prompt's result
does not depend on the other prompts of its batch.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .models import GREEDY, TabularModel, Token, checked_int, sample_sequences
from .verification import NUM_CONFIDENCE_BINS, DecodeTrace, decode_loop, decode_rounds


def spearman_correlation(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Spearman rank correlation, or None when undefined (n < 2, a constant
    input or a NaN). Tied values share the mean of their ranks, and the ranks
    go through the ``np.corrcoef`` call ``scipy.stats.spearmanr`` makes."""
    data = np.column_stack((xs, ys))
    if len(data) < 2 or np.isnan(data).any() or (data == data[0]).all(axis=0).any():
        return None
    ranks = [(np.searchsorted(ordered, col, "left") + np.searchsorted(ordered, col, "right") + 1)
             / 2 for ordered, col in zip(np.sort(data, axis=0).T, data.T)]
    return float(np.corrcoef(np.column_stack(ranks), rowvar=False)[1, 0])


@dataclass
class BenchReport:
    """Aggregated metrics for one benchmark run, and the one owner of the
    report layout: the JSON report and both CSVs are written from the same
    per-position and per-bin rows."""

    trace: DecodeTrace
    #: Cost of one parallel drafter pass relative to one target pass (= 1).
    draft_cost: float
    config: dict = field(default_factory=dict)

    @property
    def tau(self) -> float:
        return self.trace.tau

    @property
    def committed_per_step(self) -> float:
        steps = self.trace.steps
        return self.trace.total_tokens / steps if steps else 0.0

    @property
    def speedup_estimate(self) -> float:
        return self.committed_per_step / (1.0 + self.draft_cost)

    @cached_property
    def position_rows(self) -> list[tuple[int, int, int, float]]:
        """(k, attempts, accepts, rate) per draft position, built once."""
        counts = zip(self.trace.position_attempts.tolist(), self.trace.position_accepts.tolist())
        return [(k, n, a, a / n if n else 0.0) for k, (n, a) in enumerate(counts)]

    @cached_property
    def confidence_rows(self) -> list[tuple[float, float, int, int, float]]:
        """(lo, hi, attempts, accepts, rate) per confidence bin, built once."""
        counts = zip(self.trace.bin_attempts.tolist(), self.trace.bin_accepts.tolist())
        return [(b / NUM_CONFIDENCE_BINS, (b + 1) / NUM_CONFIDENCE_BINS, n, a, a / n if n else 0.0)
                for b, (n, a) in enumerate(counts)]

    @property
    def correlation(self) -> float | None:
        """Spearman correlation between bin center and acceptance rate."""
        observed = [((lo + hi) / 2.0, rate) for lo, hi, n, _a, rate in self.confidence_rows if n]
        return spearman_correlation([c for c, _r in observed], [r for _c, r in observed])

    def to_json_dict(self) -> dict:
        positions, bins = self.position_rows, self.confidence_rows
        return {
            "steps": self.trace.steps,
            "tau": self.tau,
            "committed_per_step": self.committed_per_step,
            "position_stats": [{"k": k, "attempts": n, "accepts": a}
                               for k, n, a, _rate in positions],
            "confidence_bins": [{"lo": lo, "hi": hi, "attempts": n, "accepts": a}
                                for lo, hi, n, a, _rate in bins],
            "total_tokens": self.trace.total_tokens,
            "speedup_estimate": self.speedup_estimate,
            "draft_cost": self.draft_cost,
            "correlation": self.correlation,
            "position_curve": [{"k": k, "rate": rate} for k, _n, _a, rate in positions],
            "confidence_curve": [{"center": (lo + hi) / 2.0, "rate": rate}
                                 for lo, hi, _n, _a, rate in bins],
            "config": self.config,
        }


def sample_prompts(
    target: TabularModel, num_prompts: int, prompt_len: int, seed: int
) -> list[list[Token]]:
    """Prompts sampled from the target in lockstep; prompt i draws from
    ``default_rng([seed, i, 0])``."""
    num_prompts = checked_int("num_prompts", num_prompts, 1)
    prompt_len = checked_int("prompt_len", prompt_len, 1)
    seed = checked_int("seed", seed, 0)
    uniforms = [np.random.default_rng([seed, i, 0]).random(prompt_len)
                for i in range(num_prompts)]
    return sample_sequences(target, np.array(uniforms)).tolist()


def run_bench(
    target: TabularModel,
    drafter: TabularModel,
    *,
    draft_len: int,
    mode: str,
    verify: str,
    num_prompts: int = 64,
    prompt_len: int = 8,
    max_tokens: int = 256,
    seed: int = 0,
    draft_cost: float = 0.1,
    prompts: Sequence[Sequence[Token]] | None = None,
) -> BenchReport:
    """Decode one batch of prompts in lockstep and report its trace.

    Prompts come from :func:`sample_prompts` unless given explicitly.
    Prompt i's verification draws come from ``default_rng([seed, i, 1])``.
    ``draft_cost`` must be finite and >= 0. The report reads only the
    decode's trace, so no committed token is laid out: a greedy call costs
    time and memory in proportion to the windows its prompts reach,
    whatever ``max_tokens`` is.
    """
    if not 0.0 <= draft_cost < math.inf:
        raise ValueError(f"draft_cost must be finite and >= 0, got {draft_cost}")
    if prompts is None:
        prompts = sample_prompts(target, num_prompts, prompt_len, seed)
    args = (target, drafter, prompts, max_tokens, draft_len, mode, verify, seed)
    # Stochastic tokens are a view of the buffer the rounds fill, so
    # decode_loop, the call perfbench's tracer times as decoding, costs
    # nothing more there; greedy ones are a walk of the greedy stream.
    trace = decode_rounds(*args)[0] if verify == GREEDY else decode_loop(*args)[1]
    return BenchReport(trace=trace, draft_cost=draft_cost, config={
        "vocab": target.vocab.size,
        "target_order": target.order,
        "drafter_order": drafter.order,
        "draft_len": draft_len,
        "mode": mode,
        "verify": verify,
        "num_prompts": len(prompts),
        "prompt_len": len(prompts[0]),
        "max_tokens": max_tokens,
        "seed": seed,
        "draft_cost": draft_cost,
    })


def write_report_json(report: BenchReport, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )


def write_position_csv(report: BenchReport, path: str | Path) -> None:
    lines = ["k,attempts,accepts,rate"]
    for k, attempts, accepts, rate in report.position_rows:
        lines.append(f"{k},{attempts},{accepts},{rate!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_confidence_csv(report: BenchReport, path: str | Path) -> None:
    lines = ["bin_lo,bin_hi,attempts,accepts,rate"]
    for lo, hi, attempts, accepts, rate in report.confidence_rows:
        lines.append(f"{lo!r},{hi!r},{attempts},{accepts},{rate!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_report(path: str | Path) -> dict:
    """Read a report, checking every field :func:`analyze_reports` reads."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"not a benchmark report: {path} is not UTF-8 JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"not a benchmark report: {path} is not a JSON object")
    for key in ("tau", "committed_per_step", "speedup_estimate"):
        value = data.get(key)
        try:  # bool is an int subclass, and JSON reads NaN and Infinity as floats
            finite = type(value) in (int, float) and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"not a benchmark report: {path} has no finite numeric {key!r}")
    if not isinstance(data.get("config"), dict):
        raise ValueError(f"not a benchmark report: {path} has no 'config' object")
    return data


def analyze_reports(
    named_reports: Sequence[tuple[str, dict]], baseline: str
) -> list[dict]:
    """Side-by-side comparison rows with deltas against a named baseline run.

    All reports must agree on vocabulary size and target order; mismatches
    are a comparison error.
    """
    if len(named_reports) < 2:
        raise ValueError("need at least two reports to compare")
    names = [name for name, _ in named_reports]
    if baseline not in names:
        raise ValueError(f"baseline {baseline!r} is not among the reports: {names}")
    signatures = {
        (r["config"].get("vocab"), r["config"].get("target_order"))
        for _, r in named_reports
    }
    if len(signatures) != 1:
        raise ValueError(f"reports disagree on vocab/order: {sorted(signatures)}")
    base = dict(named_reports)[baseline]
    rows = []
    for name, rep in named_reports:
        rows.append(
            {
                "run": name,
                "tau": rep["tau"],
                "committed_per_step": rep["committed_per_step"],
                "speedup_estimate": rep["speedup_estimate"],
                "delta_tau": rep["tau"] - base["tau"],
                "delta_speedup": rep["speedup_estimate"] - base["speedup_estimate"],
            }
        )
    return rows


def format_analysis(rows: Sequence[dict], fmt: str = "markdown") -> str:
    """Rows of :func:`analyze_reports` as a table, its columns the first row's keys."""
    columns = list(rows[0])
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(str(row[c]) for c in columns))
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        header = "| " + " | ".join(columns) + " |"
        rule = "|" + "|".join(" --- " for _ in columns) + "|"
        lines = [header, rule]
        for row in rows:
            cells = [str(row["run"])] + [f"{row[c]:.4f}" for c in columns[1:]]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"format must be 'markdown' or 'csv', got {fmt!r}")
