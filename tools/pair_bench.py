"""Paired benchmark runs of two checkouts, summarized metric by metric.

Usage, from anywhere::

    python3 tools/pair_bench.py PARENT_DIR CHANGE_DIR --workload decode-stochastic-short \\
        --pairs 10 --seeds 0,3 [--seconds S] [--out BENCH.json]

The two checkouts must have the same benchmark: before any run, the tool
exits naming the first file that differs in bytes, ``BENCHMARK.json`` or a
file under the directories in its ``paths`` (``__pycache__`` aside).
Each pair runs ``perfbench/run.py`` once in each checkout, one run at a time,
and the side that runs first alternates (odd pairs parent first). Pair i
uses seed ``seeds[(i - 1) % len(seeds)]``. ``--workload`` may be given more
than once. Runs last ``BENCHMARK.json``'s ``run_seconds`` unless
``--seconds`` says otherwise. Each end-to-end metric of ``BENCHMARK.json``
(read from CHANGE_DIR, with its direction and bound) gets the medians and quartiles of
both sides, the change's median over the parent's, the number of pairs in
which the change was better, and whether the change is within the metric's
bound. Each metric also states the gain rule of paired runs:

- ``parent_iqr``: the distance between the parent's quartiles;
- ``gain_shown``: the change is better in at least nine tenths of all pairs
  run, ties counting for neither, and its median is better than the
  parent's by more than ``parent_iqr``;
- ``unresolved``: the parent's runs spread wider than the bound
  (``parent_iqr`` over the parent's median), and not every change run is
  better than every parent run, so "within the bound" says nothing.

A run that exits non-zero, or whose last line is not a JSON object,
is kept as a failed run (its exit code and the tail of its stderr) and the
pairs go on; its pair is left out of the metrics. The summary goes to
``--out`` (default standard output) under ``workloads``, with each
checkout's commit and whether its files differ from it under ``checkouts``;
other keys of an existing ``--out`` file are kept.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
from pathlib import Path


#: Characters of a failed run's stderr kept in its record.
STDERR_TAIL = 2000


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its last stdout line,
    else a failed run's record ``{"correct": False, "exit_code", "stderr_tail"}``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        if isinstance(result, dict):
            return result
    return {"correct": False, "exit_code": done.returncode,
            "stderr_tail": done.stderr[-STDERR_TAIL:]}


def benchmark_files(checkout: Path, paths: list[str]) -> set[str]:
    """The files under ``paths`` in ``checkout``, relative to it, outside
    ``__pycache__``."""
    found = set()
    for top in paths:
        root = checkout / top
        for path in [root] if root.is_file() else root.rglob("*"):
            name = path.relative_to(checkout)
            if path.is_file() and "__pycache__" not in name.parts:
                found.add(name.as_posix())
    return found


def first_benchmark_difference(parent: Path, change: Path) -> str | None:
    """The first of ``BENCHMARK.json`` and the files under its ``paths``
    (read from CHANGE_DIR, in sorted order) whose bytes differ between the
    checkouts, or that only one of them has; None if they are the same."""
    def read(path: Path) -> bytes | None:
        return path.read_bytes() if path.is_file() else None

    if read(parent / "BENCHMARK.json") != read(change / "BENCHMARK.json"):
        return "BENCHMARK.json"
    paths = json.loads((change / "BENCHMARK.json").read_text())["paths"]
    for name in sorted(benchmark_files(parent, paths) | benchmark_files(change, paths)):
        if read(parent / name) != read(change / name):
            return name
    return None


def checkout_state(checkout: Path) -> dict:
    """``checkout``'s commit (``git rev-parse HEAD``) and ``dirty``, whether
    ``git status --porcelain`` prints anything; both None outside a git
    checkout."""
    git = ["git", "-C", str(checkout)]
    try:
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:  # no git on this host
        head = None
    if head is None or head.returncode:
        return {"commit": None, "dirty": None}
    status = subprocess.run([*git, "status", "--porcelain"], capture_output=True, text=True)
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout)}


def spread(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, inclusive)."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(parent: list[dict], change: list[dict], spec: list[dict],
              seeds: list[int]) -> dict:
    """Per-metric summary of paired runs: ``parent[i]`` and ``change[i]``
    are pair i's results, and ``spec`` is ``BENCHMARK.json``'s
    ``end_to_end`` list. The metrics cover the pairs whose two runs both
    finished; a failed run (:func:`run_once`) counts as one failure of its
    side and is listed under ``failed_runs``."""
    finished = [pair for pair in zip(parent, change) if not any("exit_code" in r for r in pair)]
    metrics = {}
    for m in spec if finished else []:  # no medians without a finished pair
        name, higher = m["name"], m["better"] == "higher"
        runs = {side: [pair[i]["metrics"][name]["value"] for pair in finished]
                for i, side in enumerate(("parent", "change"))}
        p, c = statistics.median(runs["parent"]), statistics.median(runs["change"])
        ratio = c / p if p else (1.0 if c == p else math.inf)
        worse_by = (1 - ratio) if higher else (ratio - 1)
        sign = 1 if higher else -1  # sign * value grows as the metric gets better
        spreads = {side: spread(values) for side, values in runs.items()}
        iqr = spreads["parent"]["q3"] - spreads["parent"]["q1"]
        wins = sum(sign * b > sign * a for a, b in zip(runs["parent"], runs["change"]))
        width = iqr / abs(p) if p else (0.0 if iqr == 0 else math.inf)
        every_run_better = (min(sign * v for v in runs["change"])
                            > max(sign * v for v in runs["parent"]))
        metrics[name] = {
            "parent": spreads["parent"],
            "change": spreads["change"],
            "change_over_parent": round(ratio, 4),
            "change_better_in_pairs": wins,
            "within_bound": worse_by <= m["bound"],
            "parent_iqr": round(iqr, 6),
            "gain_shown": wins >= 0.9 * len(parent) and sign * (c - p) > iqr,
            "unresolved": width > m["bound"] and not every_run_better,
            "runs": {side: [round(v, 6) for v in values] for side, values in runs.items()},
        }
    return {
        "pairs": len(parent),
        "seeds": seeds,
        "correct_every_run": all(r["correct"] for r in parent + change),
        "failed": sum(r.get("failed", 1) for r in change),
        "failed_parent": sum(r.get("failed", 1) for r in parent),
        "failed_runs": {side: [r for r in results if "exit_code" in r]
                        for side, results in (("parent", parent), ("change", change))},
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if args.pairs < 1 or min(seeds) < 0:
        parser.error("--pairs must be >= 1 and every seed >= 0")
    differs = first_benchmark_difference(args.parent, args.change)
    if differs is not None:
        sys.exit(f"pair_bench: {differs} differs between {args.parent} and {args.change}; "
                 "paired runs need the same benchmark code on both sides")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    spec, seconds = benchmark["end_to_end"], args.seconds or benchmark["run_seconds"]

    report = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    report["method"] = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g}",
        "pairs": f"{args.pairs} per workload, alternating which side runs first (odd pairs "
                 "parent first); pair i at seed seeds[(i - 1) % len(seeds)]",
        "times": "as perfbench reports them (probe-normalized); medians and quartiles "
                 "(statistics.quantiles, inclusive) over each side's runs",
        "host": {"python": platform.python_version(), "machine": platform.machine()},
    }
    report["checkouts"] = {"parent": checkout_state(args.parent),
                           "change": checkout_state(args.change)}
    workloads = report.setdefault("workloads", {})
    for workload in args.workload:
        parent, change = [], []
        for i in range(1, args.pairs + 1):
            seed = seeds[(i - 1) % len(seeds)]
            sides = [(args.parent, parent), (args.change, change)]
            for checkout, results in sides if i % 2 else sides[::-1]:
                results.append(run_once(checkout, workload, seed, seconds))
            print(f"{workload} pair {i}/{args.pairs} (seed {seed}) done", file=sys.stderr)
        workloads[workload] = summarize(parent, change, spec, seeds)

    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
