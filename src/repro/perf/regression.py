"""Performance-regression records for the implementation's own hot paths.

The vectorized simulation engine and the kernel-backend solver paths
replace exact reference implementations that stay in the tree as live
oracles; the speedup is an implementation claim that must stay true as the
code evolves.  A :class:`RegressionRecord` captures one
reference-vs-optimized timing comparison — per-component and composite — in
a stable JSON shape (``BENCH_engine.json`` at the repository root) that CI
and later sessions can diff.  A component whose reference side was deleted
is listed in the record's ``retired`` map instead, so the gate can tell a
deliberate retirement from a silently dropped bench.

Timings use :func:`repro.perf.timer.min_over_repetitions` semantics upstream
(minimum over repetitions, §7.1 style); this module only aggregates and
serialises.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.trace import TraceSummary

__all__ = ["RegressionComponent", "RegressionRecord"]


def _speedup(reference_seconds: float, optimized_seconds: float) -> float:
    if optimized_seconds <= 0.0:
        return float("inf") if reference_seconds > 0.0 else 1.0
    return reference_seconds / optimized_seconds


@dataclass(frozen=True)
class RegressionComponent:
    """One timed reference-vs-optimized pair (e.g. ``stack_distances``).

    ``informational`` marks a measurement whose gate is unarmed (e.g.
    the multi-process serving throughput on a machine with too few
    cores to show the speedup, or an end-to-end timing whose ratio is
    diluted by cost shared across both sides): it is recorded for the
    trajectory but never judged as a regression, and its wall time is
    excluded from the record's composite totals.
    """

    name: str
    reference_seconds: float
    optimized_seconds: float
    detail: str = ""
    informational: bool = False

    @property
    def speedup(self) -> float:
        return _speedup(self.reference_seconds, self.optimized_seconds)

    def to_dict(self) -> Dict[str, Union[str, float, bool]]:
        return {
            "name": self.name,
            "reference_seconds": self.reference_seconds,
            "optimized_seconds": self.optimized_seconds,
            "speedup": self.speedup,
            "detail": self.detail,
            "informational": self.informational,
        }


@dataclass(frozen=True)
class RegressionRecord:
    """Composite regression record over several components.

    ``scope`` documents the workload (e.g. ``"quick campaign, 12 cases"``)
    so a quick-mode record is never compared against a full-mode one.
    """

    label: str
    scope: str
    components: List[RegressionComponent] = field(default_factory=list)
    #: Optional phase breakdown of the benched workload (``repro.trace``).
    trace_summary: Optional[TraceSummary] = None
    #: Component name → reason, for components the bench no longer times
    #: on purpose (their reference side was deleted).
    retired: Dict[str, str] = field(default_factory=dict)

    @property
    def _judged(self) -> List[RegressionComponent]:
        """Components that participate in the composite claim.

        Informational measurements are excluded: they are either
        host-dependent (unarmed gates) or deliberately diluted
        end-to-end views, and folding their wall time into the
        composite ratio would let them mask — or fake — a regression
        in the components the claim is actually about.
        """
        return [c for c in self.components if not c.informational]

    @property
    def reference_total(self) -> float:
        return sum(c.reference_seconds for c in self._judged)

    @property
    def optimized_total(self) -> float:
        return sum(c.optimized_seconds for c in self._judged)

    @property
    def speedup(self) -> float:
        return _speedup(self.reference_total, self.optimized_total)

    def to_dict(self) -> Dict:
        payload = {
            "label": self.label,
            "scope": self.scope,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
            },
            "components": [c.to_dict() for c in self.components],
            "reference_total_seconds": self.reference_total,
            "optimized_total_seconds": self.optimized_total,
            "speedup": self.speedup,
        }
        if self.trace_summary is not None:
            payload["trace_summary"] = self.trace_summary.to_dict()
        if self.retired:
            payload["retired"] = dict(self.retired)
        return payload

    def write(self, path: Union[str, Path]) -> Path:
        """Serialise to ``path`` as indented JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def from_dict(cls, payload: Dict) -> "RegressionRecord":
        return cls(
            label=payload["label"],
            scope=payload["scope"],
            components=[
                RegressionComponent(
                    name=c["name"],
                    reference_seconds=c["reference_seconds"],
                    optimized_seconds=c["optimized_seconds"],
                    detail=c.get("detail", ""),
                    informational=bool(c.get("informational", False)),
                )
                for c in payload["components"]
            ],
            trace_summary=(
                TraceSummary.from_dict(payload["trace_summary"])
                if "trace_summary" in payload
                else None
            ),
            retired=dict(payload.get("retired", {})),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RegressionRecord":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def summary_lines(self) -> Sequence[str]:
        """Human-readable table for bench output."""
        rows = [
            f"{c.name:<18} ref {c.reference_seconds * 1e3:8.1f} ms   "
            f"opt {c.optimized_seconds * 1e3:8.1f} ms   {c.speedup:6.2f}x"
            + ("   (informational)" if c.informational else "")
            for c in self.components
        ]
        rows.append(
            f"{'TOTAL':<18} ref {self.reference_total * 1e3:8.1f} ms   "
            f"opt {self.optimized_total * 1e3:8.1f} ms   {self.speedup:6.2f}x"
        )
        return rows
