"""CI perf-regression gate over ``BENCH_engine.json`` records.

Compares a freshly-measured :class:`~repro.perf.regression.RegressionRecord`
against a baseline one (the latest main-branch artifact, or the committed
``BENCH_engine.json``) and fails — exit code 1 — when any component's
speedup, or the composite, drops below ``tolerance × baseline_speedup``.

Speedups are *ratios* (reference seconds / optimized seconds), so the
comparison is meaningful across runner machines of different absolute
speed; the tolerance absorbs CI noise.  Tolerance resolution order:
``--tolerance`` flag, ``REPRO_BENCH_TOLERANCE`` environment variable,
then :data:`DEFAULT_TOLERANCE`.

Usage (the ``bench-gate`` CI job)::

    python -m repro.perf.bench_gate baseline.json BENCH_engine.json \
        --json gate-report.json

``--json`` additionally writes the full report — tolerance, per-component
verdicts, missing and retired components — as a machine-readable file,
which CI uploads as a workflow artifact so a tripped gate can be inspected
without re-running the bench.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.perf.regression import RegressionRecord

__all__ = [
    "DEFAULT_TOLERANCE",
    "ComponentVerdict",
    "GateReport",
    "compare_records",
    "resolve_tolerance",
    "main",
]

#: A component may lose up to 20% of its baseline speedup before the gate
#: trips (ISSUE 3: "fails if any component's speedup drops below 0.8x").
DEFAULT_TOLERANCE = 0.8

#: Environment variable overriding the tolerance in CI.
TOLERANCE_ENV = "REPRO_BENCH_TOLERANCE"


@dataclass(frozen=True)
class ComponentVerdict:
    """Gate decision for one named component (or the composite).

    ``informational`` verdicts are recorded but never fail: either
    record marked the component's gate unarmed on its host (e.g. the
    multi-process serving throughput on a small machine).
    """

    name: str
    baseline_speedup: float
    current_speedup: float
    ok: bool
    informational: bool = False

    @property
    def ratio(self) -> float:
        """current / baseline speedup (1.0 = unchanged, < 1 = slower)."""
        if self.baseline_speedup <= 0.0:
            return float("inf")
        return self.current_speedup / self.baseline_speedup

    def line(self) -> str:
        status = "info" if self.informational else (
            "ok  " if self.ok else "FAIL"
        )
        return (
            f"{status} {self.name:<18} baseline {self.baseline_speedup:7.2f}x  "
            f"current {self.current_speedup:7.2f}x  ratio {self.ratio:5.2f}"
        )


@dataclass
class GateReport:
    """All verdicts plus the tolerance they were judged against.

    ``missing`` baseline components fail the gate; ``retired`` ones (name
    → reason, taken from the current record's ``retired`` map) do not.
    """

    tolerance: float
    verdicts: List[ComponentVerdict]
    missing: List[str]
    retired: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.missing and all(v.ok for v in self.verdicts)

    def lines(self) -> List[str]:
        out = [f"bench gate (tolerance {self.tolerance:.2f}x of baseline):"]
        out += ["  " + v.line() for v in self.verdicts]
        out += [
            f"  FAIL {name:<18} missing from the current record"
            for name in self.missing
        ]
        out += [
            f"  retired {name:<15} {reason}"
            for name, reason in self.retired.items()
        ]
        out.append("  PASS" if self.ok else "  GATE FAILED")
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-able report (the ``--json`` artifact CI uploads)."""
        return {
            "tolerance": self.tolerance,
            "ok": self.ok,
            "verdicts": [
                {
                    "name": v.name,
                    "baseline_speedup": v.baseline_speedup,
                    "current_speedup": v.current_speedup,
                    "ratio": v.ratio,
                    "ok": v.ok,
                    "informational": v.informational,
                }
                for v in self.verdicts
            ],
            "missing": list(self.missing),
            "retired": dict(self.retired),
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def resolve_tolerance(flag: Optional[float] = None) -> float:
    """Flag > ``REPRO_BENCH_TOLERANCE`` env > default; must be positive."""
    if flag is None:
        raw = os.environ.get(TOLERANCE_ENV)
        flag = float(raw) if raw not in (None, "") else DEFAULT_TOLERANCE
    if flag <= 0.0:
        raise ValueError(f"tolerance must be positive, got {flag}")
    return flag


def compare_records(
    baseline: RegressionRecord,
    current: RegressionRecord,
    *,
    tolerance: Optional[float] = None,
) -> GateReport:
    """Judge ``current`` against ``baseline`` component by component.

    A baseline component absent from the current record is a failure (a
    silently-dropped bench must not pass the gate) unless the current
    record names it in its ``retired`` map; components that exist only in
    the current record are simply not judged.  The composite speedup is
    judged under the name ``COMPOSITE``.
    """
    tol = resolve_tolerance(tolerance)
    current_by_name = {c.name: c for c in current.components}
    verdicts: List[ComponentVerdict] = []
    missing: List[str] = []
    retired: Dict[str, str] = {}
    for base in baseline.components:
        cur = current_by_name.get(base.name)
        if cur is None:
            if base.name in current.retired:
                retired[base.name] = current.retired[base.name]
            else:
                missing.append(base.name)
            continue
        informational = base.informational or cur.informational
        verdicts.append(
            ComponentVerdict(
                name=base.name,
                baseline_speedup=base.speedup,
                current_speedup=cur.speedup,
                ok=informational or cur.speedup >= tol * base.speedup,
                informational=informational,
            )
        )
    verdicts.append(
        ComponentVerdict(
            name="COMPOSITE",
            baseline_speedup=baseline.speedup,
            current_speedup=current.speedup,
            ok=current.speedup >= tol * baseline.speedup,
        )
    )
    return GateReport(
        tolerance=tol, verdicts=verdicts, missing=missing, retired=retired
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.perf.bench_gate",
        description="Fail when BENCH_engine.json speedups regress vs baseline.",
    )
    parser.add_argument("baseline", help="baseline RegressionRecord JSON")
    parser.add_argument("current", help="current RegressionRecord JSON")
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help=f"minimum current/baseline speedup ratio "
             f"(default ${TOLERANCE_ENV} or {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the report (verdicts + tolerance) as JSON",
    )
    args = parser.parse_args(argv)
    baseline = RegressionRecord.load(args.baseline)
    current = RegressionRecord.load(args.current)
    report = compare_records(baseline, current, tolerance=args.tolerance)
    print("\n".join(report.lines()))
    if args.json:
        report.write_json(args.json)
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
