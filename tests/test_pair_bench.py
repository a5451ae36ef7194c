"""Tests for ``tools/pair_bench.py``: the summary on canned runs, and runs
of fake checkouts whose ``perfbench/run.py`` fails."""

import importlib.util
import json
import subprocess
import textwrap
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
    # 9 points past a parent IQR of 2, but 4 wins of 5 pairs is under nine tenths.
    assert (tok["parent_iqr"], tok["gain_shown"], tok["unresolved"]) == (2.0, False, False)

    # Lower is better: a smaller time wins its pair.
    call = got["metrics"]["call_ms_p50"]
    assert call["parent"]["median"] == 4.0 and call["change"]["median"] == 3.7
    assert call["change_over_parent"] == pytest.approx(0.925)
    assert call["change_better_in_pairs"] == 4  # pair 2: 4.3 > 4.2
    assert call["within_bound"] is True
    assert (call["parent_iqr"], call["gain_shown"], call["unresolved"]) == (0.1, False, False)

    # Equal runs are better in no pair, and within the bound.
    ok = got["metrics"]["ok_frac"]
    assert (ok["change_over_parent"], ok["change_better_in_pairs"], ok["within_bound"]) == (
        1.0, 0, True)
    assert (ok["parent_iqr"], ok["gain_shown"], ok["unresolved"]) == (0.0, False, False)


#: Ten parent runs of median 100 and quartiles 99.25 and 100.75 (IQR 1.5).
PARENT_TEN = [100.0, 101.0, 99.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0, 100.0]


@pytest.mark.parametrize("shifts, shown", [
    ([5.0] * 9 + [-5.0], True),        # 9 of 10 pairs, 5 past the IQR
    ([5.0] * 8 + [-5.0] * 2, False),   # 8 of 10 pairs
    ([1.0] * 10, False),               # every pair, but by less than the IQR
    ([-5.0] * 9 + [5.0], False),       # a loss in 9 pairs
], ids=["nine-tenths", "eight-tenths", "inside-the-iqr", "worse"])
def test_gain_shown_needs_nine_tenths_of_pairs_and_the_parent_iqr(shifts, shown):
    change = [_run(v + s, 4.0) for v, s in zip(PARENT_TEN, shifts)]
    got = pair_bench.summarize([_run(v, 4.0) for v in PARENT_TEN], change, SPEC, [0, 3])
    tok = got["metrics"]["decode_tok_s"]
    assert (tok["parent_iqr"], tok["gain_shown"]) == (1.5, shown)
    # The lower-is-better metric reads the same on every run: no gain.
    assert got["metrics"]["call_ms_p50"]["gain_shown"] is False


@pytest.mark.parametrize("change, unresolved", [
    ([70.0, 110.0, 150.0], True),    # the runs overlap the parent's
    ([150.0, 160.0, 170.0], False),  # every change run beats every parent run
])
def test_unresolved_when_the_parent_spreads_wider_than_the_bound(change, unresolved):
    # Parent IQR 40 at median 100: 0.4, wider than the 0.25 bound.
    got = pair_bench.summarize([_run(v, 4.0) for v in (60.0, 100.0, 140.0)],
                               [_run(v, 4.0) for v in change], SPEC, [0])
    tok = got["metrics"]["decode_tok_s"]
    assert (tok["parent_iqr"], tok["unresolved"], tok["within_bound"]) == (40.0, unresolved, True)


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


def _checkout(root: Path, name: str, body: str) -> Path:
    """A fake checkout whose ``perfbench/run.py`` runs ``body``."""
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text("import json, sys\n" + body)
    (checkout / "BENCHMARK.json").write_text(json.dumps(
        {"paths": ["perfbench"], "end_to_end": SPEC, "run_seconds": 1}))
    return checkout


_OK = f"print('warming up')\nprint(json.dumps({_run(100.0, 4.0)!r}))\n"
_EXITS_1 = "print('starting')\nsys.exit('run.py: no such workload')\n"
_NOT_JSON = "print('{')\nprint('done', file=sys.stderr)\n"


@pytest.mark.parametrize("body, exit_code, stderr", [
    (_EXITS_1, 1, "run.py: no such workload\n"),
    (_NOT_JSON, 0, "done\n"),
], ids=["exits-1", "last-line-not-json"])
def test_a_failed_run_is_recorded(tmp_path, body, exit_code, stderr):
    got = pair_bench.run_once(_checkout(tmp_path, "bad", body), "w", 0, 1.0)
    assert got == {"correct": False, "exit_code": exit_code, "stderr_tail": stderr}
    ok = pair_bench.run_once(_checkout(tmp_path, "ok", _OK), "w", 0, 1.0)
    assert ok == _run(100.0, 4.0)


@pytest.mark.parametrize("body, exit_code", [(_EXITS_1, 1), (_NOT_JSON, 0)],
                         ids=["exits-1", "last-line-not-json"])
def test_pairs_go_on_past_a_failed_run(tmp_path, body, exit_code):
    # Both sides run the same code, and only the parent has the file that
    # fails its first run; pair 1 runs the parent first, pair 2 finishes.
    first_run_fails = ("import os\nif os.path.exists('fail-once'):\n    os.remove('fail-once')\n"
                       + textwrap.indent(body, "    ") + "else:\n" + textwrap.indent(_OK, "    "))
    parent = _checkout(tmp_path, "parent", first_run_fails)
    change = _checkout(tmp_path, "change", first_run_fails)
    (parent / "fail-once").touch()
    out = tmp_path / "summary.json"
    assert pair_bench.main([str(parent), str(change), "--workload", "w", "--pairs", "2",
                            "--seconds", "0.1", "--out", str(out)]) == 0
    got = json.loads(out.read_text())["workloads"]["w"]
    assert (got["pairs"], got["failed"], got["failed_parent"]) == (2, 0, 1)
    assert got["correct_every_run"] is False
    assert [r["exit_code"] for r in got["failed_runs"]["parent"]] == [exit_code]
    assert got["failed_runs"]["change"] == []
    assert got["metrics"]["decode_tok_s"]["runs"] == {"parent": [100.0], "change": [100.0]}
    # Fake checkouts in a tmp dir are no git checkouts.
    assert json.loads(out.read_text())["checkouts"] == {
        side: {"commit": None, "dirty": None} for side in ("parent", "change")}


_RUN_MARKS = "open('ran', 'w').close()\n" + _OK


@pytest.mark.parametrize("edit, differs", [
    (lambda c: (c / "BENCHMARK.json").write_text("{}"), "BENCHMARK.json"),
    (lambda c: (c / "perfbench" / "run.py").write_text("import json, sys\n" + _OK),
     "perfbench/run.py"),
    (lambda c: (c / "perfbench" / "lab" / "extra.py").write_text(""), "perfbench/lab/extra.py"),
    (lambda c: (c / "perfbench" / "lab" / "load.py").unlink(), "perfbench/lab/load.py"),
], ids=["benchmark-json", "changed-file", "file-only-in-change", "file-only-in-parent"])
def test_different_benchmark_code_exits_before_any_run(tmp_path, edit, differs):
    parent, change = (_checkout(tmp_path, side, _RUN_MARKS) for side in ("parent", "change"))
    for checkout in (parent, change):
        (checkout / "perfbench" / "lab").mkdir()
        (checkout / "perfbench" / "lab" / "load.py").write_text("LOAD = 1\n")
    edit(change)
    with pytest.raises(SystemExit) as exit_info:
        pair_bench.main([str(parent), str(change), "--workload", "w", "--pairs", "1"])
    assert exit_info.value.code == (f"pair_bench: {differs} differs between {parent} and "
                                    f"{change}; paired runs need the same benchmark code on "
                                    "both sides")
    assert not (parent / "ran").exists() and not (change / "ran").exists()


def test_benchmark_code_outside_its_paths_or_in_pycache_may_differ(tmp_path):
    parent, change = (_checkout(tmp_path, side, _RUN_MARKS) for side in ("parent", "change"))
    (change / "perfbench" / "__pycache__").mkdir()
    (change / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"\0")
    (change / "tools.py").write_text("only in the change\n")
    assert pair_bench.first_benchmark_difference(parent, change) is None
    out = tmp_path / "summary.json"
    assert pair_bench.main([str(parent), str(change), "--workload", "w", "--pairs", "1",
                            "--seconds", "0.1", "--out", str(out)]) == 0
    assert (parent / "ran").exists() and (change / "ran").exists()


def test_checkout_state_of_a_plain_dir(tmp_path):
    assert pair_bench.checkout_state(tmp_path) == {"commit": None, "dirty": None}


def test_checkout_state_of_a_git_repo(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                               "-c", "user.email=t@example.com", *args],
                              capture_output=True, text=True, check=True).stdout

    git("init", "-q")
    # A repository with no commit yet has no HEAD.
    assert pair_bench.checkout_state(tmp_path) == {"commit": None, "dirty": None}
    (tmp_path / "f.txt").write_text("a\n")
    git("add", "f.txt")
    git("commit", "-q", "-m", "first")
    head = git("rev-parse", "HEAD").strip()
    assert pair_bench.checkout_state(tmp_path) == {"commit": head, "dirty": False}
    (tmp_path / "f.txt").write_text("b\n")
    assert pair_bench.checkout_state(tmp_path) == {"commit": head, "dirty": True}
    git("checkout", "-q", "f.txt")
    (tmp_path / "new.txt").write_text("untracked\n")
    assert pair_bench.checkout_state(tmp_path) == {"commit": head, "dirty": True}


@pytest.mark.parametrize("flags, message", [
    (["--pairs", "0"], "--pairs must be >= 1 and every seed >= 0"),
    (["--seeds", "0,-1"], "--pairs must be >= 1 and every seed >= 0"),
    (["--seeds", "0,x"], "--seeds must be comma-separated integers, got '0,x'"),
], ids=["pairs-0", "negative-seed", "seed-not-an-integer"])
def test_bad_pairs_or_seeds_are_usage_errors(tmp_path, capsys, flags, message):
    with pytest.raises(SystemExit) as exit_info:
        pair_bench.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                         "--workload", "w", *flags])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(f": error: {message}\n")
