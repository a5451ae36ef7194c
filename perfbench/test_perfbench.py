"""Tests of the benchmark itself: tracer, output checks and metric names.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

import speclab
from speclab import bench, verification

from perfbench import lab
from perfbench.clock import PROBE_REF_S, Sample, timed
from perfbench.tracer import FUNCTIONS, METHODS, SpanRecorder

TINY = lab.Workload(
    name="tiny",
    why="test-sized",
    pair=lab.PairSpec(vocab=4, order=1, corpus_seqs=3, corpus_len=12, draft_len=4),
    decode=lab.DecodeSpec("dependent", "stochastic", prompts=2, prompt_len=3, max_tokens=10),
    units=2,
    calls_per_unit=1,
)
TINY_PIPELINE = dataclasses.replace(
    TINY, name="tiny-pipeline", calls_per_unit=2,
    pair=lab.PairSpec(vocab=5, order=2, corpus_seqs=4, corpus_len=10, draft_len=4))


def _speclab_attrs() -> dict:
    modules = {n: m for n, m in sys.modules.items() if n == "speclab" or n.startswith("speclab.")}
    snapshot = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    snapshot.update({("DecodeTrace", k): v for k, v in vars(verification.DecodeTrace).items()})
    return snapshot


def test_tracer_restores_every_wrapped_function():
    before = _speclab_attrs()
    rec = SpanRecorder()
    rec.install()
    try:
        wrapped = speclab.models.next_distribution
        assert wrapped is not before[("speclab.models", "next_distribution")]
        for module in (speclab, speclab.drafting, speclab.verification, speclab.training):
            assert module.next_distribution is wrapped
        assert vars(verification.DecodeTrace)["record"] is not before[("DecodeTrace", "record")]
        assert len(rec._patched) > len(FUNCTIONS) + len(METHODS)
    finally:
        rec.uninstall()
    after = _speclab_attrs()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_times_sum_to_root_and_counts_repeat(tmp_path):
    counts = []
    for _ in range(2):
        run, rec, overhead = lab.run_traced(TINY, 3, tmp_path)
        assert run.failed == 0
        assert rec.self_time_sum() == pytest.approx(rec.get("root").total_s, abs=1e-9)
        values, _ = lab.per_layer(rec, rec.get("root").total_s, overhead)
        counts.append({k: v for k, v in values.items()
                       if lab.PER_LAYER.get(k) == "count" and not k.startswith("trace.")})
    assert counts[0] == counts[1]
    assert counts[0]["models.lookup.calls"] > counts[0]["models.lookup.decode.calls"] > 0
    assert counts[0]["models.lookup.decode.calls"] >= rec.get("drafting.propose").lookups_below
    # Only one round is traced: the windows are those of one chain per unit.
    assert counts[0]["training.windows.count"] == sum(p.windows for p in run.pairs)


def test_clean_run_has_no_failures(tmp_path):
    for workload in (TINY, TINY_PIPELINE):
        run = lab.run_timed(workload, 5, 0.01, tmp_path)
        assert (run.failed, run.errors) == (0, [])
        assert run.rounds >= lab.MIN_ROUNDS
        ops_per_pass = workload.units * (1 + workload.calls_per_unit)
        assert run.attempted == ops_per_pass * (1 + run.rounds)
        values, _ = lab.end_to_end(run)
        assert all(v > 0 for v in values.values())


def test_clock_measures_in_probe_units():
    assert Sample(1.0, PROBE_REF_S).seconds == 1.0
    assert Sample(1.0, 2 * PROBE_REF_S).seconds == pytest.approx(0.5)
    result, sample = timed(sorted, [3, 1, 2])
    assert result == [1, 2, 3]
    assert sample.wall_s > 0 and sample.probe_s > 0


def _doctor_reports(monkeypatch, edit, first_only=False):
    original = bench.BenchReport.to_json_dict
    made = []

    def doctored(self):
        made.append(1)
        out = original(self)
        if len(made) == 1 or not first_only:
            edit(out)
        return out

    monkeypatch.setattr(bench.BenchReport, "to_json_dict", doctored)


def test_doctored_report_is_counted_as_failed(tmp_path, monkeypatch):
    run = lab.Run(TINY, 5, tmp_path, golden=None)
    run.setup()
    _doctor_reports(monkeypatch, lambda out: out.update(total_tokens=out["total_tokens"] + 1))
    run.round()
    assert run.failed == TINY.units
    assert "total_tokens != steps + sum of accepts" in run.errors[0]


def test_repeat_with_other_bytes_is_counted_as_failed(tmp_path, monkeypatch):
    for workload in (TINY, TINY_PIPELINE):
        run = lab.Run(workload, 5, tmp_path, golden=None)
        run.setup()
        _doctor_reports(monkeypatch, lambda out: out.update(note="differs"), first_only=True)
        run.round()
        monkeypatch.undo()
        assert run.failed == 1
        assert len(run.errors) == 1
        assert run.errors[0].startswith("unit 0 call 0: report_json.0 digest")


def test_rebuilt_model_with_other_bytes_is_counted_as_failed(tmp_path, monkeypatch):
    run = lab.Run(TINY, 5, tmp_path, golden=None)
    run.setup()
    original = speclab.models.make_synthetic_target
    monkeypatch.setattr(speclab.models, "make_synthetic_target",
                        lambda seed, *args: original(seed + 1, *args))
    run.round()
    # Every chain and, through the other target, every report differs.
    assert run.failed == TINY.units * (1 + TINY.calls_per_unit)
    assert "unit 0 chain: target_ngm digest" in run.errors[0]


@pytest.mark.parametrize("field, delta, problem", [
    ("position_stats", 1, "position 0 attempts != steps"),
    ("confidence_bins", 1, "confidence-bin attempts != position attempts"),
    ("tau", 0.5, "sum of accepts != tau * steps"),
])
def test_report_identities_catch_edits(tmp_path, field, delta, problem):
    run = lab.Run(TINY, 5, tmp_path, golden=None)
    run.setup()
    call = lab.decode_call(run.pairs[0], TINY.decode, 5, 0, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert call.problems == [] and lab.report_problems(report, 2, 10) == []
    if field == "tau":
        report["tau"] += delta
    else:
        report[field][0]["attempts"] += delta
    assert problem in lab.report_problems(report, 2, 10)


def test_changed_digest_is_counted_as_failed(tmp_path):
    golden = lab.golden_digests(TINY, tmp_path)
    assert sorted(golden) == ["unit0.drafter_ngm", "unit0.report_json.0", "unit0.target_ngm"]
    run = lab.Run(TINY, lab.DEFAULT_SEED, tmp_path, golden=dict(golden))
    run.setup()
    assert (run.attempted, run.failed) == (4, 0)
    for key in golden:
        run = lab.Run(TINY, lab.DEFAULT_SEED, tmp_path, golden={**golden, key: "0" * 64})
        run.setup()
        assert run.failed == 1
        assert f"{key.removeprefix('unit0.')} digest" in run.errors[0]


def test_default_seed_digests_are_pinned():
    golden = json.loads(lab.GOLDEN_PATH.read_text())
    assert golden.keys() == lab.WORKLOADS.keys()
    assert lab.load_golden("decode-greedy-long", lab.DEFAULT_SEED) is not None
    assert lab.load_golden("decode-greedy-long", lab.DEFAULT_SEED + 1) is None


def test_seed_changes_inputs_not_metric_names(tmp_path):
    spec = lab.WORKLOADS["decode-stochastic-short"].decode
    assert lab.make_prompts(1, spec, 16, 0) == lab.make_prompts(1, spec, 16, 0)
    assert lab.make_prompts(1, spec, 16, 0) != lab.make_prompts(2, spec, 16, 0)
    names, digests = [], []
    for seed in (1, 2):
        run = lab.run_timed(TINY_PIPELINE, seed, 0.01, tmp_path)
        values, _ = lab.end_to_end(run)
        names.append(set(values))
        digests.append(run.pairs[0].digests)
        _, rec, overhead = lab.run_traced(TINY_PIPELINE, seed, tmp_path)
        values, _ = lab.per_layer(rec, rec.get("root").total_s, overhead)
        names.append(set(values))
    assert digests[0] != digests[1]
    assert names[0] == names[2] == set(lab.END_TO_END)
    assert names[1] == names[3] == set(lab.PER_LAYER)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(lab.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(lab.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == lab.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == lab.PER_LAYER
    for w in spec["workloads"]:
        assert w["why"] == lab.WORKLOADS[w["name"]].why


def test_tail_percentile_keeps_ten_calls_beyond_it():
    for n in (1, lab.TAIL_MIN_CALLS - 1):
        assert lab.tail_percentile(n) == 50
    for n in (lab.TAIL_MIN_CALLS, 60, 100, 1000):
        q = lab.tail_percentile(n)
        assert q > 50 and n * (100 - q) / 100 >= 10
