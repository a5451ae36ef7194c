"""Run one speclab benchmark workload and print its metrics.

Usage, from the root of a source checkout (no install needed)::

    python3 perfbench/run.py --workload decode-greedy-long --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run. ``--trace 1``
makes the set-up and one round untraced and then one round under the span
recorder, and prints the per-layer metrics. Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One process, single-threaded numeric libraries: pin the thread pools
# before NumPy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "speclab" / "__init__.py").is_file():
        print(f"error: no speclab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import lab

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(lab.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=lab.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run_workload(lab, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(lab, args, workdir: Path) -> int:
    workload = lab.WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"  {workload.units} units, each a chain: {workload.pair}")
    print(f"  and {workload.calls_per_unit} decode calls on the chain's pair: {workload.decode}")

    correct = True
    if args.trace:
        run, rec, overhead = lab.run_traced(workload, args.seed, workdir)
        root_s = rec.get("root").total_s
        values, notes = lab.per_layer(rec, root_s, overhead)
        units = lab.PER_LAYER
        if abs(values["trace.self_sum_s"] - root_s) > 1e-6:
            correct = False
            notes.append("self times do not sum to the root span's duration")
        rec.save(str(OUT / f"spans-{workload.name}.npz"))
        notes.append(f"{len(rec.start)} spans written to .bench_out/spans-{workload.name}.npz")
    else:
        run = lab.run_timed(workload, args.seed, args.seconds, workdir)
        values, notes = lab.end_to_end(run)
        units = lab.END_TO_END

    for err in run.errors:
        print(f"FAILED {err}", file=sys.stderr)
    calls = len(run.all_calls())
    if not args.trace and calls < lab.TAIL_MIN_CALLS:
        print(f"warning: {calls} calls, so call_ms_tail is p50", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:>16.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    bad = [n for n in units if not math.isfinite(values[n])]
    if bad:
        correct = False
        print(f"non-finite metrics: {bad}", file=sys.stderr)
    result = {
        "correct": correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
