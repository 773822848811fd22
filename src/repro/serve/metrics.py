"""Serving metrics: request/batch counters and latency percentiles.

Two observability channels, deliberately redundant:

* **Always-on counters** on this object (like
  :class:`repro.fsai.cache.PreconditionerCache`'s hit/miss counts) —
  the service works with tracing off, and the bench/CLI read
  :meth:`ServiceMetrics.snapshot`.
* **Trace counters/events** (``serve.*`` — see ``docs/serving.md``)
  recorded by the dispatcher through :mod:`repro.trace` when a collector
  is installed; the CI smoke gate asserts batching happened from these.

Latency is measured end-to-end (admission to future resolution) and
recorded into a :class:`repro.trace.LatencyHistogram`; batch occupancy
gets its own histogram so ``mean_batch_size`` is exact.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

from repro.trace import LatencyHistogram

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Thread-safe counters + histograms for one service instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.rejected = 0
        self.timeouts = 0
        self.solved = 0
        self.failed = 0
        self.batches = 0
        self.batched_rhs = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.queue_high_water = 0
        self.latency = LatencyHistogram()
        self.queue_wait = LatencyHistogram()
        self.solve_seconds = LatencyHistogram()

    # ------------------------------------------------------------------
    # Recording (called from the submitting threads and the dispatcher)
    # ------------------------------------------------------------------
    def record_admitted(self, queue_depth: int) -> None:
        with self._lock:
            self.submitted += 1
            if queue_depth > self.queue_high_water:
                self.queue_high_water = queue_depth

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def record_batch(
        self, size: int, solve_seconds: float, *, cache_hit: bool
    ) -> None:
        with self._lock:
            self.batches += 1
            self.batched_rhs += size
            if cache_hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            self.solve_seconds.record(solve_seconds)

    def record_served(
        self, latency_seconds: float, queued_seconds: float
    ) -> None:
        with self._lock:
            self.solved += 1
            self.latency.record(latency_seconds)
            self.queue_wait.record(queued_seconds)

    def record_failed(self) -> None:
        with self._lock:
            self.failed += 1

    # ------------------------------------------------------------------
    # Merging and serialisation (multi-process pool support)
    # ------------------------------------------------------------------
    _COUNTER_FIELDS = (
        "submitted",
        "rejected",
        "timeouts",
        "solved",
        "failed",
        "batches",
        "batched_rhs",
        "cache_hits",
        "cache_misses",
    )
    _HISTOGRAM_FIELDS = ("latency", "queue_wait", "solve_seconds")

    def merge(self, other: "ServiceMetrics") -> None:
        """Fold another instance's counters and histograms into this one.

        Used by the worker pool to combine per-shard metrics into one
        client-visible view.  Counters add; ``queue_high_water`` takes the
        max (depths on different shards are not additive); histograms
        merge bucket-wise.  Associative and commutative, so merge order
        across shards does not matter.
        """
        with self._lock:
            for name in self._COUNTER_FIELDS:
                setattr(self, name, getattr(self, name) + getattr(other, name))
            self.queue_high_water = max(
                self.queue_high_water, other.queue_high_water
            )
            for name in self._HISTOGRAM_FIELDS:
                getattr(self, name).merge(getattr(other, name))

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-able form (full histograms, not just percentiles).

        Unlike :meth:`snapshot` this round-trips through
        :meth:`from_dict` without losing bucket counts, so merged results
        are identical whether the merge happens before or after the trip
        across a process boundary.
        """
        with self._lock:
            payload: Dict[str, Any] = {
                name: getattr(self, name) for name in self._COUNTER_FIELDS
            }
            payload["queue_high_water"] = self.queue_high_water
            for name in self._HISTOGRAM_FIELDS:
                payload[name] = getattr(self, name).to_dict()
            return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ServiceMetrics":
        metrics = cls()
        for name in cls._COUNTER_FIELDS:
            setattr(metrics, name, int(payload[name]))
        metrics.queue_high_water = int(payload["queue_high_water"])
        for name in cls._HISTOGRAM_FIELDS:
            setattr(metrics, name, LatencyHistogram.from_dict(payload[name]))
        return metrics

    def __getstate__(self) -> Dict[str, Any]:
        # Locks do not pickle; ship the counters and histograms only.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        """Exact mean RHS count per executed block (0.0 before any batch)."""
        with self._lock:
            return self.batched_rhs / self.batches if self.batches else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """One consistent JSON-able view of every counter and percentile."""
        with self._lock:
            return {
                "submitted": self.submitted,
                "rejected": self.rejected,
                "timeouts": self.timeouts,
                "solved": self.solved,
                "failed": self.failed,
                "batches": self.batches,
                "batched_rhs": self.batched_rhs,
                "mean_batch_size": (
                    self.batched_rhs / self.batches if self.batches else 0.0
                ),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "queue_high_water": self.queue_high_water,
                "latency_seconds": {
                    "mean": self.latency.mean,
                    "p50": self.latency.percentile(50),
                    "p90": self.latency.percentile(90),
                    "p99": self.latency.percentile(99),
                    "max": self.latency.max,
                },
                "queue_wait_seconds": {
                    "mean": self.queue_wait.mean,
                    "p99": self.queue_wait.percentile(99),
                },
                "solve_seconds_per_batch": {
                    "mean": self.solve_seconds.mean,
                    "p99": self.solve_seconds.percentile(99),
                },
            }

    def summary_lines(self) -> list:
        """Human-readable digest for CLI output."""
        snap = self.snapshot()
        lat = snap["latency_seconds"]
        return [
            (
                f"requests: {snap['submitted']} submitted, "
                f"{snap['solved']} solved, {snap['rejected']} rejected, "
                f"{snap['timeouts']} timed out, {snap['failed']} failed"
            ),
            (
                f"batches: {snap['batches']} blocks / "
                f"{snap['batched_rhs']} rhs "
                f"(mean size {snap['mean_batch_size']:.2f}), "
                f"preconditioner cache {snap['cache_hits']} hits / "
                f"{snap['cache_misses']} misses"
            ),
            (
                f"latency: mean {lat['mean'] * 1e3:.2f} ms, "
                f"p50 {lat['p50'] * 1e3:.2f} ms, "
                f"p99 {lat['p99'] * 1e3:.2f} ms, "
                f"max {lat['max'] * 1e3:.2f} ms; "
                f"queue high-water {snap['queue_high_water']}"
            ),
        ]

    def __repr__(self) -> str:
        return (
            f"ServiceMetrics(submitted={self.submitted}, "
            f"solved={self.solved}, rejected={self.rejected}, "
            f"batches={self.batches})"
        )
