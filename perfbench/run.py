"""Benchmark command: one workload, one process, closed loop with one client.

    python3 perfbench/run.py --workload mips-gaussian-k5 --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``
there and writes its scratch files (the dataset file, the span file of a
traced run) under ``.perfbench/``.  It prints a table of the metrics with
their units, then a ``report`` JSON line (machine context, sample counts,
figures that carry no bound, check failures), and as its last line the
result ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

Exit status: 0 when every check passed, 1 when a check failed (the result is
still printed), 2 when the arguments are bad or the library cannot be
imported (nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def set_blas_threads() -> None:
    """Run BLAS with one thread per available core, whatever the environment says.

    Call before numpy loads.  A value inherited from the environment would
    change the timings of every run with it, so none is kept.
    """
    cores = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = cores


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    set_blas_threads()
    import workloads  # loads numpy, so only after the thread setting

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    probe = workloads.SpeedProbe()
    try:
        lib, imports = workloads.load_library(ROOT / "src", probe)
    except ImportError as exc:
        print(f"cannot import the library: {exc}", file=sys.stderr)
        return 2

    outcome = workloads.run(args.workload, lib, imports, probe, args.seed, args.seconds,
                            bool(args.trace), ROOT / ".perfbench")
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    metrics = {name: outcome.metrics[name] for name in units if name in outcome.metrics}
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print("report " + json.dumps(outcome.report))
    checks = outcome.checker
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
