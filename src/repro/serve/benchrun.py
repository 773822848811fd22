"""Mixed-operator serving bench: throughput, batching and overload gates.

One harness behind three consumers:

* ``repro-fsai bench-serve`` — human-readable serving report;
* the CI ``serve-smoke`` job — replays a mixed stream under tracing and
  gates on *batching actually happened* (mean batch size > 1, cache
  hits > 0) plus *overload is rejected cleanly* (typed rejections, every
  burst future resolves — no deadlock);
* the nightly soak — the same gates over a much longer stream.

The stream interleaves operators round-robin (consecutive requests
almost never share an operator), so any batching the dispatcher achieves
comes from the time window doing its job, not from a conveniently sorted
input.  The serial baseline solves the identical stream one request at a
time with prebuilt preconditioners — the "no server" cost the tentpole's
>= 3x gate is measured against.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import trace
from repro.collection.generators.fd import poisson2d
from repro.errors import OverloadRejectedError, ServeError
from repro.fsai.extended import setup_fsai
from repro.serve.client import InProcessClient, _as_stream
from repro.serve.pool import MultiProcessClient
from repro.serve.request import ServeResult
from repro.solvers.cg import pcg
from repro.sparse.csr import CSRMatrix

__all__ = ["ServingBenchConfig", "ServingBenchReport", "run_serving_bench"]

#: Seconds a burst future may take before the smoke calls it a deadlock.
RESOLVE_TIMEOUT = 120.0


@dataclass(frozen=True)
class ServingBenchConfig:
    """Knobs for one serving-bench run (defaults = CI smoke scope)."""

    requests: int = 96
    grids: Tuple[int, ...] = (12, 16)
    window_seconds: float = 0.005
    max_batch: int = 32
    queue_capacity: int = 256
    rtol: float = 1e-8
    max_iterations: int = 2000
    baseline: bool = True
    overload_burst: int = 48
    overload_queue_capacity: int = 4
    overload_max_batch: int = 8
    min_speedup: Optional[float] = None
    seed: int = 0
    #: 0 = in-process dispatcher; N >= 1 = fingerprint-sharded
    #: :class:`~repro.serve.pool.MultiProcessClient` with N workers.
    workers: int = 0


@dataclass
class ServingBenchReport:
    """Everything one run measured, plus the gate verdicts."""

    config: ServingBenchConfig
    n_operators: int
    served_seconds: float
    served_rhs_per_sec: float
    metrics: Dict[str, Any]
    counters: Dict[str, float]
    all_converged: bool
    serial_seconds: Optional[float] = None
    serial_rhs_per_sec: Optional[float] = None
    overload: Optional[Dict[str, Any]] = None
    gate_failures: List[str] = field(default_factory=list)

    @property
    def speedup(self) -> Optional[float]:
        if self.serial_seconds is None or self.served_seconds <= 0.0:
            return None
        return self.serial_seconds / self.served_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.config.requests,
            "workers": self.config.workers,
            "n_operators": self.n_operators,
            "served_seconds": self.served_seconds,
            "served_rhs_per_sec": self.served_rhs_per_sec,
            "serial_seconds": self.serial_seconds,
            "serial_rhs_per_sec": self.serial_rhs_per_sec,
            "speedup": self.speedup,
            "all_converged": self.all_converged,
            "metrics": self.metrics,
            "counters": self.counters,
            "overload": self.overload,
            "gate_failures": list(self.gate_failures),
        }

    def summary_lines(self) -> List[str]:
        lat = self.metrics["latency_seconds"]
        lines = [
            (
                f"served {self.config.requests} requests over "
                f"{self.n_operators} operators in "
                f"{self.served_seconds * 1e3:.1f} ms "
                f"({self.served_rhs_per_sec:.0f} rhs/sec)"
            ),
            (
                f"batching: {self.metrics.get('batches', 0):.0f} "
                f"blocks, mean size "
                f"{self.metrics['mean_batch_size']:.2f}; cache "
                f"{self.metrics.get('cache_hits', 0):.0f} hits / "
                f"{self.metrics.get('cache_misses', 0):.0f} misses"
            ),
            (
                f"latency: p50 {lat['p50'] * 1e3:.2f} ms, "
                f"p99 {lat['p99'] * 1e3:.2f} ms, "
                f"max {lat['max'] * 1e3:.2f} ms"
            ),
        ]
        if self.serial_seconds is not None:
            lines.append(
                f"serial baseline {self.serial_seconds * 1e3:.1f} ms "
                f"({self.serial_rhs_per_sec:.0f} rhs/sec) -> "
                f"speedup {self.speedup:.2f}x"
            )
        if self.overload is not None:
            ov = self.overload
            lines.append(
                f"overload burst {ov['burst']}: {ov['rejected']} rejected "
                f"(typed), {ov['served']} served, "
                f"{ov['unresolved']} unresolved, "
                f"{ov['unexpected_errors']} unexpected errors"
            )
        lines.append(
            "gates: "
            + ("PASS" if not self.gate_failures
               else "FAIL — " + "; ".join(self.gate_failures))
        )
        return lines


def _make_client(config: ServingBenchConfig, **overrides: Any) -> Any:
    """The bench's client factory: in-process or the sharded pool.

    Both clients expose the same register/submit/solve_many/snapshot
    surface, so every phase below is backend-agnostic.
    """
    kwargs: Dict[str, Any] = dict(
        window_seconds=config.window_seconds,
        max_batch=config.max_batch,
        queue_capacity=config.queue_capacity,
    )
    kwargs.update(overrides)
    if config.workers > 0:
        return MultiProcessClient(config.workers, **kwargs)
    return InProcessClient(**kwargs)


def _build_workload(
    config: ServingBenchConfig,
) -> Tuple[List[CSRMatrix], List[np.ndarray]]:
    """Operators + per-operator ``(k, n)`` RHS blocks covering ``requests``."""
    rng = np.random.default_rng(config.seed)
    matrices = [poisson2d(side) for side in config.grids]
    n_ops = len(matrices)
    per_op = [
        config.requests // n_ops + (1 if i < config.requests % n_ops else 0)
        for i in range(n_ops)
    ]
    blocks = [rng.standard_normal((k, a.n_rows)) for a, k in zip(matrices, per_op)]
    return matrices, blocks


def _gate(report: ServingBenchReport, config: ServingBenchConfig) -> None:
    failures = report.gate_failures
    if report.metrics["mean_batch_size"] <= 1.0:
        failures.append(
            f"mean batch size {report.metrics['mean_batch_size']:.2f} "
            f"<= 1 — micro-batching did not happen"
        )
    # In-process runs witness cache hits via trace counters; pool
    # workers trace in their own processes, so the merged service
    # metrics carry the cross-process evidence instead.
    cache_hits = max(
        report.counters.get("fsai.cache_hit", 0),
        float(report.metrics.get("cache_hits", 0)),
    )
    if cache_hits <= 0:
        failures.append(
            "no cache hits observed — preconditioner cache unused"
        )
    if not report.all_converged:
        failures.append("some served solves did not converge")
    if report.overload is not None:
        ov = report.overload
        if ov["rejected"] <= 0:
            failures.append(
                "overload burst produced no OverloadRejectedError"
            )
        if ov["unresolved"] > 0:
            failures.append(
                f"{ov['unresolved']} burst futures never resolved "
                f"within {RESOLVE_TIMEOUT:.0f}s — dispatcher deadlock"
            )
        if ov["unexpected_errors"] > 0:
            failures.append(
                f"{ov['unexpected_errors']} burst requests failed with "
                f"non-ServeError exceptions"
            )
    if config.min_speedup is not None:
        speedup = report.speedup
        if speedup is None:
            failures.append("min_speedup set but no baseline was timed")
        elif speedup < config.min_speedup:
            failures.append(
                f"serving speedup {speedup:.2f}x below the "
                f"{config.min_speedup:.1f}x floor"
            )


def _run_overload(
    config: ServingBenchConfig,
    matrices: List[CSRMatrix],
    progress: Callable[[str], None],
) -> Dict[str, Any]:
    """Burst against a tiny queue: admission must shed, never deadlock."""
    rng = np.random.default_rng(config.seed + 1)
    with _make_client(
        config,
        max_batch=config.overload_max_batch,
        queue_capacity=config.overload_queue_capacity,
    ) as client:
        fps = [client.register(a) for a in matrices]
        futures: List["Future[ServeResult]"] = []
        for i in range(config.overload_burst):
            a = matrices[i % len(matrices)]
            rhs = rng.standard_normal(a.n_rows)
            futures.append(
                client.submit(
                    fps[i % len(fps)],
                    rhs,
                    rtol=config.rtol,
                    max_iterations=config.max_iterations,
                )
            )
        rejected = served = unresolved = unexpected = 0
        for future in futures:
            try:
                future.result(timeout=RESOLVE_TIMEOUT)
                served += 1
            except OverloadRejectedError:
                rejected += 1
            except ServeError:
                # Other typed shedding (e.g. a timeout) is a clean
                # rejection too, just not the one this phase forces.
                rejected += 1
            except (TimeoutError, FutureTimeoutError):
                # FutureTimeoutError only aliases the builtin from 3.11.
                unresolved += 1
            except Exception:
                unexpected += 1
    progress(
        f"overload: {rejected} rejected / {served} served of "
        f"{config.overload_burst}"
    )
    return {
        "burst": config.overload_burst,
        "queue_capacity": config.overload_queue_capacity,
        "rejected": rejected,
        "served": served,
        "unresolved": unresolved,
        "unexpected_errors": unexpected,
    }


def run_serving_bench(
    config: Optional[ServingBenchConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ServingBenchReport:
    """Run the full serving bench; gates are recorded, never raised."""
    config = config if config is not None else ServingBenchConfig()
    note = progress if progress is not None else (lambda message: None)
    matrices, blocks = _build_workload(config)
    front = (
        f"{config.workers}-worker pool" if config.workers > 0
        else "in-process dispatcher"
    )
    note(
        f"workload: {config.requests} requests over {len(matrices)} "
        f"operators (grids {config.grids}) via {front}"
    )

    serial_seconds: Optional[float] = None
    if config.baseline:
        apps = [setup_fsai(a).application for a in matrices]
        fps = [a.fingerprint() for a in matrices]
        serial_stream = _as_stream(fps, blocks)
        by_fp = dict(zip(fps, zip(matrices, apps)))
        t0 = time.perf_counter()
        for fp, rhs in serial_stream:
            a, app = by_fp[fp]
            pcg(
                a, rhs, preconditioner=app, rtol=config.rtol,
                max_iterations=config.max_iterations,
                record_history=False,
            )
        serial_seconds = time.perf_counter() - t0
        note(f"serial baseline: {serial_seconds * 1e3:.1f} ms")

    with trace.collecting() as collector:
        with _make_client(config) as client:
            fps = [client.register(a) for a in matrices]
            # Prime each operator's cache entry outside the timed stream:
            # steady-state serving is the claim, not first-request setup.
            for fp, a in zip(fps, matrices):
                client.solve(
                    fp, np.ones(a.n_rows), rtol=config.rtol,
                    max_iterations=config.max_iterations,
                )
            stream = _as_stream(fps, blocks)
            t0 = time.perf_counter()
            results = client.solve_many(
                stream, rtol=config.rtol,
                max_iterations=config.max_iterations,
            )
            served_seconds = time.perf_counter() - t0
            snapshot = client.snapshot()
    counters = {
        str(name): float(value)
        for name, value in collector.total_counters().items()
        if str(name).startswith(("serve.", "fsai.cache"))
    }
    all_converged = all(r.converged for r in results)
    note(
        f"served stream: {served_seconds * 1e3:.1f} ms, "
        f"mean batch {snapshot['mean_batch_size']:.2f}"
    )

    report = ServingBenchReport(
        config=config,
        n_operators=len(matrices),
        served_seconds=served_seconds,
        served_rhs_per_sec=(
            config.requests / served_seconds if served_seconds > 0 else 0.0
        ),
        metrics=snapshot,
        counters=counters,
        all_converged=all_converged,
        serial_seconds=serial_seconds,
        serial_rhs_per_sec=(
            config.requests / serial_seconds
            if serial_seconds
            else None
        ),
    )
    if config.overload_burst > 0:
        report.overload = _run_overload(config, matrices, note)
    _gate(report, config)
    return report
