"""Workloads, output checks and metrics of the speclab benchmark.

Every workload is one closed loop with a single client: each call into
speclab is issued after the previous one returns, in one process. A
workload has ``units`` units, each with its own seed. A unit runs the chain
the ``gen`` and ``train`` commands run (generate, save, load, sample a
corpus, build windows, train, save, load) and then makes ``run_bench``
calls on the pair the chain built.

Set-up is the first pass over the units. The timed loop then makes the same
pass again, round after round, until the time is up. Every round rebuilds
every model from scratch and must reproduce the set-up's outputs byte for
byte. Each step of a unit (a chain stage or a call) is timed in every round
against a probe run next to it (see :mod:`perfbench.clock`), and the metrics
use each step's median time over the rounds. The benchmark drives only speclab's public modules, looked up at
call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from speclab import bench, models, training

from .clock import PROBE_REF_S, Sample, timed
from .tracer import LOOKUP, SpanRecorder

#: Seed whose output digests are pinned in ``golden.json``.
DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class PairSpec:
    """Target and drafter built by the gen/train chain."""

    vocab: int
    order: int
    alpha: float = 0.3
    corpus_seqs: int = 384
    corpus_len: int = 64
    draft_len: int = 16
    rho: float = 0.1
    beta: float = 0.1
    drafter_order: int | None = None


@dataclass(frozen=True)
class DecodeSpec:
    """One ``run_bench`` call: prompts of random tokens, decoded in full."""

    mode: str
    verify: str
    prompts: int
    prompt_len: int
    max_tokens: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Chain that builds each unit's pair.
    pair: PairSpec
    decode: DecodeSpec
    #: Units, each with its own seed, pair and prompt sets.
    units: int
    #: Decode calls on each unit's pair, each on a prompt set of its own.
    calls_per_unit: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decode-greedy-long",
            why="long greedy outputs: per-lookup cost that grows with the context dominates",
            pair=PairSpec(vocab=16, order=2, corpus_seqs=16),
            decode=DecodeSpec("independent", "greedy", prompts=1, prompt_len=8,
                              max_tokens=512),
            # Greedy decoding settles into a cycle of the target, so tau and
            # speed vary widely between targets (tau from 0.05 to 6): many
            # small units, so that a run averages over many targets.
            units=16,
            calls_per_unit=1,
        ),
        Workload(
            name="decode-stochastic-short",
            why="short stochastic outputs with a weak drafter: per-round fixed costs dominate",
            pair=PairSpec(vocab=16, order=2, corpus_seqs=16, drafter_order=1),
            decode=DecodeSpec("dependent", "stochastic", prompts=16, prompt_len=8,
                              max_tokens=64),
            units=6,
            calls_per_unit=4,
        ),
        Workload(
            name="train-pipeline",
            why="gen/save/load/train chain on a 15,625-row table: model I/O and training dominate",
            pair=PairSpec(vocab=24, order=3, corpus_seqs=96),
            # Many small calls, so that call_ms_tail is a true tail.
            decode=DecodeSpec("dependent", "stochastic", prompts=4, prompt_len=8,
                              max_tokens=64),
            units=3,
            calls_per_unit=12,
        ),
    )
}

#: Timed rounds made even when they run past ``--seconds``.
MIN_ROUNDS = 2

#: Timed stages of the chain, in order.
STAGES = ("gen", "save", "load", "corpus", "windows", "solve", "drafter_io")

#: End-to-end metrics: name -> unit. Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
    "decode_tok_s": "tok/s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "gen_rows_s": "rows/s",
    "save_rows_s": "rows/s",
    "load_rows_s": "rows/s",
    "train_windows_s": "windows/s",
    "pipeline_s": "s",
}

#: Per-layer metrics from the traced run: name -> unit.
PER_LAYER = {
    "models.lookup.calls": "count",
    "models.lookup.self_s": "s",
    "models.lookup.ctx_len_mean": "symbols",
    "models.lookup.decode.calls": "count",
    "models.lookup.decode.self_s": "s",
    "models.lookup.decode.ctx_len_mean": "symbols",
    "models.sample.calls": "count",
    "models.sample.self_s": "s",
    "models.gen.s": "s",
    "models.save.s": "s",
    "models.load.s": "s",
    "models.save.bytes": "bytes",
    "drafting.propose.calls": "count",
    "drafting.propose.self_s": "s",
    "drafting.propose.lookups_per_call": "count",
    "drafting.feature.calls": "count",
    "drafting.feature.self_s": "s",
    "verification.decode_loop.calls": "count",
    "verification.decode_loop.self_s": "s",
    "verification.verify.calls": "count",
    "verification.verify.self_s": "s",
    "verification.record.self_s": "s",
    "verification.lookups_per_round": "count",
    "verification.accept_ratio": "frac",
    "training.corpus.s": "s",
    "training.windows.s": "s",
    "training.windows.count": "count",
    "training.solve.s": "s",
    "training.lookups_per_window": "count",
    "training.contexts": "count",
    "bench.run.self_s": "s",
    "bench.combine.s": "s",
    "trace.root_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead.decode_tok_s": "ratio",
    "trace.overhead.pipeline_s": "ratio",
}


def sub_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the workload seed and a path of indices."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def make_prompts(seed: int, spec: DecodeSpec, vocab: int, index: int) -> list[list[int]]:
    """Prompt set ``index``: uniform random tokens from the benchmark's own RNG."""
    rng = np.random.default_rng([seed, 7, index])
    return rng.integers(0, vocab, size=(spec.prompts, spec.prompt_len)).tolist()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- checks ------------------------------------------------------------------


def report_problems(report: dict, num_prompts: int, max_tokens: int) -> list[str]:
    """Accounting identities every bench report must keep."""
    problems = []
    steps = report["steps"]
    positions = report["position_stats"]
    bins = report["confidence_bins"]
    accepts = sum(p["accepts"] for p in positions)
    attempts = sum(p["attempts"] for p in positions)
    if positions[0]["attempts"] != steps:
        problems.append("position 0 attempts != steps")
    if abs(accepts - report["tau"] * steps) > 1e-9 * max(1, accepts):
        problems.append("sum of accepts != tau * steps")
    if report["total_tokens"] != steps + accepts:
        problems.append("total_tokens != steps + sum of accepts")
    if sum(b["attempts"] for b in bins) != attempts:
        problems.append("confidence-bin attempts != position attempts")
    if sum(b["accepts"] for b in bins) != accepts:
        problems.append("confidence-bin accepts != position accepts")
    if report["total_tokens"] < num_prompts * max_tokens:
        problems.append("fewer committed tokens than prompts * max_tokens")
    return problems


def digest_problems(expected: dict | None, key: str, digest: str) -> list[str]:
    """Compare ``digest`` with its expected value, when one is given."""
    if expected is None or expected.get(key) == digest:
        return []
    return [f"{key} digest {digest[:12]} != expected {expected.get(key, 'nothing')[:12]}"]


def load_golden(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(workload, {})


# -- steps -------------------------------------------------------------------


def roundtrip(model: models.TabularModel, path: Path, key: str) -> tuple[str, list[str], Sample]:
    """Digest of the file ``model`` was loaded from; saving it again must
    give the same bytes. Also returns the second save's time."""
    first = path.read_bytes()
    check = path.with_suffix(".check")
    _, sample = timed(models.save_model, model, check)
    same = check.read_bytes() == first
    problems = [] if same else [f"{key}: save -> load -> save is not byte-identical"]
    return sha256(first), problems, sample


@dataclass
class PairResult:
    target: models.TabularModel
    drafter: models.TabularModel
    #: Rows of the saved target table, the fallback row included.
    rows: int
    #: Each chain stage's times, keyed by the names in ``STAGES``. The
    #: target's save is timed twice: in the chain and in the check.
    times: dict[str, list[Sample]]
    windows: int
    draft_len: int
    digests: dict
    problems: list


def build_pair(spec: PairSpec, seed: int, workdir: Path) -> PairResult:
    """Run the gen/train chain from ``seed``, timing each stage; check
    save->load->save and the window count."""
    tpath, dpath = workdir / "target.ngm", workdir / "drafter.ngm"
    config = training.TrainConfig(
        draft_len=spec.draft_len, rho=spec.rho, beta=spec.beta, weighting=training.CAT,
        drafter_order=spec.drafter_order, seed=seed,
    )

    def drafter_io(drafter):
        models.save_model(drafter, dpath)
        return models.load_model(dpath)

    t = {}
    target, t["gen"] = timed(
        models.make_synthetic_target, seed, spec.vocab, spec.order, spec.alpha)
    _, t["save"] = timed(models.save_model, target, tpath)
    target, t["load"] = timed(models.load_model, tpath)
    corpus, t["corpus"] = timed(
        training.sample_corpus, target, spec.corpus_seqs, spec.corpus_len,
        np.random.default_rng([seed, 2]))
    windows, t["windows"] = timed(
        training.build_training_windows, target, corpus, config,
        np.random.default_rng([seed, 3]))
    drafter, t["solve"] = timed(training.train_tabular_drafter, windows, config)
    drafter, t["drafter_io"] = timed(drafter_io, drafter)
    times = {stage: [sample] for stage, sample in t.items()}

    problems = []
    digests = {}
    for key, model, path in (("target_ngm", target, tpath), ("drafter_ngm", drafter, dpath)):
        digests[key], found, check = roundtrip(model, path, key)
        problems += found
        if key == "target_ngm":
            times["save"].append(check)
    expected = spec.corpus_seqs * (spec.corpus_len - spec.draft_len)
    if len(windows) != expected:
        problems.append(f"{len(windows)} windows, expected N*(L-K) = {expected}")
    return PairResult(
        target=target, drafter=drafter, rows=len(target.table) + 1, times=times,
        windows=len(windows), draft_len=spec.draft_len, digests=digests, problems=problems,
    )


@dataclass
class CallResult:
    sample: Sample
    tokens: int
    steps: int
    accepts: int
    digest: str
    problems: list


def decode_call(
    pair: PairResult, spec: DecodeSpec, seed: int, index: int, workdir: Path
) -> CallResult:
    """One timed ``run_bench`` call on prompt set ``index``, then its checks."""
    prompts = make_prompts(seed, spec, pair.target.vocab.size, index)
    report, sample = timed(
        bench.run_bench, pair.target, pair.drafter, draft_len=pair.draft_len,
        mode=spec.mode, verify=spec.verify, prompts=prompts, max_tokens=spec.max_tokens,
        seed=sub_seed(seed, 4, index),
    )
    path = workdir / "report.json"
    bench.write_report_json(report, path)
    raw = path.read_bytes()
    data = json.loads(raw)
    return CallResult(
        sample=sample,
        tokens=data["total_tokens"],
        steps=data["steps"],
        accepts=sum(p["accepts"] for p in data["position_stats"]),
        digest=sha256(raw),
        problems=report_problems(data, spec.prompts, spec.max_tokens),
    )


# -- runs --------------------------------------------------------------------


class Run:
    """Set-up, then timed rounds over the same units, with their checks.

    ``samples[key]`` holds a step's times in the timed rounds, where a key is
    ``(unit, stage)`` for a chain stage or ``(unit, "call", k)`` for call
    ``k`` of a unit.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path,
                 golden: dict | None) -> None:
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        #: Pinned digests to check the set-up against; None checks none.
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Time of each unit's steps (chain stages and calls) in the set-up pass.
        self.setup_times: list[float] = []
        #: Each unit's pair and calls in the set-up pass.
        self.pairs: list[PairResult] = []
        self.calls: list[list[CallResult]] = []
        #: Digests every later round must reproduce, by unit.
        self.expected: list[dict] = []
        self.samples: dict[tuple, list[Sample]] = defaultdict(list)
        self.rounds = 0

    def _op(self, what: str, fn) -> object:
        self.attempted += 1
        try:
            result, problems = fn()
        except Exception as exc:  # a raising operation counts as failed
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.errors.extend(f"{what}: {p}" for p in problems)
        return result

    def _unit(self, unit: int, expected: dict | None) -> tuple:
        """Unit ``unit``'s chain and calls; every output is checked against
        ``expected`` digests, when given."""
        def chain():
            pair = build_pair(self.w.pair, sub_seed(self.seed, 1, unit), self.workdir)
            problems = list(pair.problems)
            for key, digest in pair.digests.items():
                problems += digest_problems(expected, key, digest)
            return pair, problems
        pair = self._op(f"unit {unit} chain", chain)
        if pair is None:
            return None, []
        calls = []
        for k in range(self.w.calls_per_unit):
            def call():
                index = unit * self.w.calls_per_unit + k
                result = decode_call(pair, self.w.decode, self.seed, index, self.workdir)
                key = f"report_json.{k}"
                return result, result.problems + digest_problems(expected, key, result.digest)
            calls.append(self._op(f"unit {unit} call {k}", call))
        return pair, calls

    def setup(self) -> None:
        """First pass over the units: builds the reference outputs."""
        pinned = None
        if self.golden is not None:
            pinned = {key.removeprefix("unit0."): value for key, value in self.golden.items()}
        for unit in range(self.w.units):
            pair, calls = self._unit(unit, pinned if unit == 0 else None)
            if pair is None or None in calls:
                raise RuntimeError("set-up failed: " + "; ".join(self.errors))
            steps = [s[0] for s in pair.times.values()] + [c.sample for c in calls]
            self.setup_times.append(sum(step.seconds for step in steps))
            self.pairs.append(pair)
            self.calls.append(calls)
            self.expected.append({
                **pair.digests,
                **{f"report_json.{k}": c.digest for k, c in enumerate(calls)},
            })

    def round(self, recorder: SpanRecorder | None = None) -> None:
        """One timed pass over the units; ``recorder`` gets each unit's index
        as the call id of its spans."""
        for unit in range(self.w.units):
            if recorder is not None:
                recorder.current_call = unit
            pair, calls = self._unit(unit, self.expected[unit])
            if pair is None:
                continue
            for stage, samples in pair.times.items():
                self.samples[(unit, stage)] += samples
            for k, call in enumerate(calls):
                if call is not None:
                    self.samples[(unit, "call", k)].append(call.sample)
        self.rounds += 1

    def seconds(self, key: tuple) -> float:
        """A step's median time over the timed rounds; NaN if it failed in
        every round."""
        samples = self.samples.get(key)
        return statistics.median(s.seconds for s in samples) if samples else math.nan

    def all_calls(self) -> list[CallResult]:
        return [c for calls in self.calls for c in calls]

    def tau(self) -> float:
        """Accepted tokens per round over the set-up calls: exact for a seed."""
        calls = self.all_calls()
        return sum(c.accepts for c in calls) / sum(c.steps for c in calls)


#: Below this many calls no percentile above p50 has ten calls beyond it.
TAIL_MIN_CALLS = 21


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (>= 50)."""
    return max(50, math.floor(100 * (1 - 10 / n))) if n > 0 else 50


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    """End-to-end metric values from the steps' median times, plus notes."""
    w = run.w
    units = range(w.units)
    call_keys = [(u, "call", k) for u in units for k in range(w.calls_per_unit)]
    ms = [run.seconds(key) * 1e3 for key in call_keys]
    q = tail_percentile(len(ms))
    tokens = sum(c.tokens for c in run.all_calls())
    rows = sum(p.rows for p in run.pairs)
    stage_s = {stage: sum(run.seconds((u, stage)) for u in units) for stage in STAGES}
    wall_call_s = sum(statistics.median(s.wall_s for s in run.samples[k]) for k in call_keys)
    probes = [s.probe_s for v in run.samples.values() for s in v]
    values = {
        "setup_s": statistics.median(run.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (run.attempted - run.failed) / run.attempted,
        "decode_tok_s": tokens / (sum(ms) / 1e3),
        "call_ms_p50": statistics.median(ms),
        "call_ms_tail": float(np.percentile(ms, q)),
        "gen_rows_s": rows / stage_s["gen"],
        "save_rows_s": rows / stage_s["save"],
        "load_rows_s": rows / stage_s["load"],
        "train_windows_s": sum(p.windows for p in run.pairs)
        / (stage_s["windows"] + stage_s["solve"]),
        "pipeline_s": sum(stage_s.values()) / w.units,
    }
    notes = [
        f"median step times over {run.rounds} timed rounds of {w.units} units",
        f"probe around a step: median {statistics.median(probes) * 1e3:.3f} ms, fastest"
        f" {min(probes) * 1e3:.3f} ms, slowest {max(probes) * 1e3:.3f} ms;"
        f" reference {PROBE_REF_S * 1e3:.3f} ms",
        f"decode_tok_s from wall times: {tokens / wall_call_s:.6g}",
        f"call_ms_tail is p{q} of n={len(ms)} calls",
        f"setup_s is the median of {len(run.setup_times)} unit set-ups",
        f"chain metrics are over {w.units} chains of {run.pairs[0].rows} rows"
        f" and {run.pairs[0].windows} windows",
        f"tau = {run.tau()!r} over the {len(ms)} calls (exact for the seed)",
        f"ok_frac = ({run.attempted} - {run.failed}) / {run.attempted} operations",
    ]
    return values, notes


def per_layer(rec: SpanRecorder, root_s: float, overhead: dict) -> tuple[dict, list[str]]:
    """Per-layer metric values from a recorder, plus each ratio with its base."""
    g = rec.get
    lookup, propose, verify = g(LOOKUP), g("drafting.propose"), g("verification.verify")
    decode_lookup = rec.decode_lookup
    windows = g("training.windows")
    ratios = {
        "drafting.propose.lookups_per_call": (propose.lookups_below, propose.calls),
        "verification.lookups_per_round": (verify.lookups_below, verify.calls),
        "verification.accept_ratio": (verify.quantities.get("accepted", 0),
                                       verify.quantities.get("drafted", 0)),
        "models.lookup.ctx_len_mean": (lookup.quantities.get("ctx_len", 0), lookup.calls),
        "models.lookup.decode.ctx_len_mean": (decode_lookup.quantities.get("ctx_len", 0),
                                              decode_lookup.calls),
        "training.lookups_per_window": (windows.lookups_below,
                                        windows.quantities.get("count", 0)),
    }
    values = {name: (num / den if den else 0.0) for name, (num, den) in ratios.items()}
    values.update({
        "models.lookup.calls": lookup.calls,
        "models.lookup.self_s": lookup.self_s,
        "models.lookup.decode.calls": decode_lookup.calls,
        "models.lookup.decode.self_s": decode_lookup.self_s,
        "models.sample.calls": g("models.sample").calls,
        "models.sample.self_s": g("models.sample").self_s,
        "models.gen.s": g("models.gen").total_s,
        "models.save.s": g("models.save").total_s,
        "models.load.s": g("models.load").total_s,
        "models.save.bytes": g("models.save").quantities.get("bytes", 0),
        "drafting.propose.calls": propose.calls,
        "drafting.propose.self_s": propose.self_s,
        "drafting.feature.calls": g("drafting.feature").calls,
        "drafting.feature.self_s": g("drafting.feature").self_s,
        "verification.decode_loop.calls": g("verification.decode_loop").calls,
        "verification.decode_loop.self_s": g("verification.decode_loop").self_s,
        "verification.verify.calls": verify.calls,
        "verification.verify.self_s": verify.self_s,
        "verification.record.self_s": g("verification.record").self_s,
        "training.corpus.s": g("training.corpus").total_s,
        "training.windows.s": windows.total_s,
        "training.windows.count": windows.quantities.get("count", 0),
        "training.solve.s": g("training.solve").total_s,
        "training.contexts": g("training.solve").quantities.get("contexts", 0),
        "bench.run.self_s": g("bench.run").self_s,
        "bench.combine.s": g("bench.combine").total_s,
        "trace.root_s": root_s,
        "trace.self_sum_s": rec.self_time_sum(),
        **overhead,
    })
    notes = [f"{name} = {num:g} / {den:g}" for name, (num, den) in ratios.items()]
    return values, notes


def run_timed(workload: Workload, seed: int, seconds: float, workdir: Path) -> Run:
    """Untraced run: set-up, then rounds for about ``seconds``.

    After ``MIN_ROUNDS`` rounds, the next one starts only if it is expected
    to end closer to the deadline than stopping now would.
    """
    run = Run(workload, seed, workdir, load_golden(workload.name, seed))
    run.setup()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if run.rounds >= MIN_ROUNDS and elapsed + elapsed / run.rounds / 2 >= seconds:
            return run
        run.round()


def run_traced(workload: Workload, seed: int, workdir: Path) -> tuple[Run, SpanRecorder, dict]:
    """Set-up, one untraced round, then one round under the span recorder.

    The work is fixed, so the traced counts repeat exactly for a seed. The
    overhead compares the two rounds' step times.
    """
    run = Run(workload, seed, workdir, load_golden(workload.name, seed))
    run.setup()
    run.round()
    plain = {key: list(samples) for key, samples in run.samples.items()}
    rec = SpanRecorder()
    with rec.tracing():
        run.round(rec)

    def ratio(keys) -> float:
        def total(samples):
            return sum(s.seconds for s in samples)
        traced = sum(total(run.samples[k][len(plain[k]):]) for k in keys)
        return traced / sum(total(plain[k]) for k in keys)

    calls = [k for k in plain if k[1] == "call"]
    chains = [k for k in plain if k[1] != "call"]
    # Tokens are the same in both rounds, so the tok/s ratio is untraced
    # time over traced time.
    overhead = {
        "trace.overhead.decode_tok_s": 1 / ratio(calls),
        "trace.overhead.pipeline_s": ratio(chains),
    }
    return run, rec, overhead


def golden_digests(workload: Workload, workdir: Path) -> dict:
    """Digests to pin for the default seed, as ``golden.json`` holds them:
    unit 0's model files and reports."""
    run = Run(workload, DEFAULT_SEED, workdir, golden=None)
    run.setup()
    if run.errors:
        raise RuntimeError("; ".join(run.errors))
    return {f"unit0.{key}": value for key, value in run.expected[0].items()}
