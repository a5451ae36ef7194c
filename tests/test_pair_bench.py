"""Tests for the summary of ``tools/pair_bench.py`` on canned runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pair_bench.py"
_SPEC = importlib.util.spec_from_file_location("pair_bench", _PATH)
pair_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pair_bench)

SPEC = [
    {"name": "decode_tok_s", "better": "higher", "bound": 0.25},
    {"name": "call_ms_p50", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "better": "higher", "bound": 0.01},
]


def _run(tok_s, call_ms, ok=1.0, correct=True, failed=0):
    values = {"decode_tok_s": tok_s, "call_ms_p50": call_ms, "ok_frac": ok}
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}


def test_summary_of_canned_pairs():
    parent = [_run(100.0, 4.0), _run(102.0, 4.2), _run(98.0, 3.9), _run(101.0, 4.1),
              _run(99.0, 4.0)]
    change = [_run(110.0, 3.6), _run(101.0, 4.3), _run(108.0, 3.7), _run(111.0, 3.5),
              _run(109.0, 3.8, failed=1)]
    got = pair_bench.summarize(parent, change, SPEC, [0, 3])
    assert (got["pairs"], got["seeds"], got["failed"], got["failed_parent"]) == (5, [0, 3], 1, 0)
    assert got["correct_every_run"] is True

    tok = got["metrics"]["decode_tok_s"]
    assert tok["parent"] == {"median": 100.0, "q1": 99.0, "q3": 101.0}
    assert tok["change"] == {"median": 109.0, "q1": 108.0, "q3": 110.0}
    assert tok["change_over_parent"] == 1.09
    assert tok["change_better_in_pairs"] == 4  # pair 2: 101 < 102
    assert tok["within_bound"] is True
    assert tok["runs"]["change"] == [110.0, 101.0, 108.0, 111.0, 109.0]

    # Lower is better: a smaller time wins its pair.
    call = got["metrics"]["call_ms_p50"]
    assert call["parent"]["median"] == 4.0 and call["change"]["median"] == 3.7
    assert call["change_over_parent"] == pytest.approx(0.925)
    assert call["change_better_in_pairs"] == 4  # pair 2: 4.3 > 4.2
    assert call["within_bound"] is True

    # Equal runs are better in no pair, and within the bound.
    ok = got["metrics"]["ok_frac"]
    assert (ok["change_over_parent"], ok["change_better_in_pairs"], ok["within_bound"]) == (
        1.0, 0, True)


@pytest.mark.parametrize("tok_s, call_ms, within", [
    (75.0, 4.0, (True, True)),    # exactly at the bound
    (74.0, 4.0, (False, True)),   # 26% slower: past the 25% bound
    (100.0, 5.0, (True, True)),   # 25% longer calls: at the bound
    (100.0, 5.2, (True, False)),  # 30% longer calls
])
def test_within_bound_follows_each_metric_direction(tok_s, call_ms, within):
    got = pair_bench.summarize([_run(100.0, 4.0)], [_run(tok_s, call_ms)], SPEC, [0])
    assert (got["metrics"]["decode_tok_s"]["within_bound"],
            got["metrics"]["call_ms_p50"]["within_bound"]) == within


def test_an_incorrect_run_on_either_side_shows():
    got = pair_bench.summarize([_run(1.0, 1.0, correct=False)], [_run(1.0, 1.0)], SPEC, [0])
    assert got["correct_every_run"] is False
