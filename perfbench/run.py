"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once traced and prints the per-layer metrics,
writing the spans to ``.perfbench/trace-<workload>-seed<seed>.json``.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the host record.  The exit code is 0 only when
every operation passed its checks.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One compute thread.  With the OpenBLAS pool at 2 threads on a shared
# 2-core host, about one fresh process in five stalled ~0.9 s in its first
# solve, and campaign set-up read 4.2-6.0 s instead of 3.6-3.9 s.  These
# must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The default kernel backend, whatever the caller's environment selects.
os.environ.pop("REPRO_KERNEL_BACKEND", None)

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("campaign", "timestep", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str):
    if name == "campaign":
        from perfbench.campaign import Campaign
        return Campaign()
    if name == "timestep":
        from perfbench.timestep import TimeStep
        return TimeStep()
    from perfbench.serve import Serve
    return Serve()


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import harness

    before = harness.cpu_times()
    ledger = harness.Ledger()
    workload = make_workload(args.workload)
    workload.prepare(args.seed, args.seconds)
    if args.trace:
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        metrics = harness.run_traced(workload, ledger, trace_path)
    else:
        metrics = harness.run_untraced(workload, args.seconds, ledger)
    host = harness.host_record(harness.steal_record(before, harness.cpu_times()))
    harness.emit(ledger, metrics, host)
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
