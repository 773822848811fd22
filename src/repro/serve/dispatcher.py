"""Solver service: admission control, micro-batching, one dispatcher thread.

The service closes the loop the ROADMAP's item 1 describes: PR 5 built
the blocked solver (``pcg_multi``) and the preconditioner cache; this
module plays the server.  Callers admit requests from their own threads
into a **bounded** :class:`queue.Queue`; one dispatcher thread takes
them off it, groups same-key requests (key = operator fingerprint +
solver tolerances) inside a small time/size window, and runs each group
as a single blocked PCG solve inline, sharing one
:class:`repro.fsai.cache.PreconditionerCache` entry across every request
that ever names that operator.  Each request's
:class:`concurrent.futures.Future` resolves on the dispatcher thread.

Contracts (see ``docs/serving.md`` for the full table):

* **Admission** is ``put_nowait`` against the bounded queue — a full
  queue rejects immediately with
  :class:`~repro.errors.OverloadRejectedError` rather than buffering;
  the service sheds load, it never deadlocks on it.  Every request-level
  error comes back through the request's future, never raised by
  :meth:`SolverService.submit`.
* **Batching window**: the first request of a cycle opens a window of
  ``window_seconds``; everything arriving before it closes joins the
  cycle.  A group reaching ``max_batch`` closes the window early.  A
  request therefore waits at most one window plus the solves scheduled
  ahead of it.
* **Timeouts** expire a request only *before* its block starts solving
  (:class:`~repro.errors.RequestTimeoutError` carries the wait); a
  request inside a running block is always carried to completion.
* **Failure isolation**: a solver exception fails the requests of that
  block only; the dispatcher survives and keeps serving.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import trace
from repro.errors import (
    OverloadRejectedError,
    RequestTimeoutError,
    ServiceClosedError,
    ShapeError,
    UnknownOperatorError,
)
from repro.fsai.cache import PreconditionerCache, cached_setup
from repro.serve.metrics import ServiceMetrics
from repro.serve.operators import OperatorEntry, OperatorRegistry
from repro.serve.request import BatchKey, PendingRequest, ServeResult
from repro.solvers.cg import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_RTOL,
    pcg,
    pcg_multi,
)
from repro.solvers.convergence import SolveResult
from repro.sparse.csr import CSRMatrix
from repro.sparse.validate import require_finite

__all__ = ["SolverService", "BlockSolver"]

#: Queue sentinel telling the dispatcher to finish its cycle and exit.
_SENTINEL: Any = object()

#: Signature a custom block solver must satisfy (tests inject slow ones
#: to force backpressure deterministically): ``(matrix, right-hand sides,
#: application, rtol, atol, max_iterations) -> one result per side``.
BlockSolver = Callable[
    [CSRMatrix, List[np.ndarray], Any, float, float, int],
    List[SolveResult],
]

#: Window/size defaults: 2 ms pairs with sub-millisecond solves on the
#: serving-scale operators, and 32 matches the bench-gated block width.
DEFAULT_WINDOW_SECONDS = 0.002
DEFAULT_MAX_BATCH = 32
DEFAULT_QUEUE_CAPACITY = 128


def _default_solver(
    matrix: CSRMatrix,
    columns: List[np.ndarray],
    application: Any,
    rtol: float,
    atol: float,
    max_iterations: int,
) -> List[SolveResult]:
    """One blocked ``pcg_multi`` (or plain ``pcg`` for a lone request)."""
    if len(columns) == 1:
        return [
            pcg(
                matrix,
                columns[0],
                preconditioner=application,
                rtol=rtol,
                atol=atol,
                max_iterations=max_iterations,
                record_history=False,
            )
        ]
    multi = pcg_multi(
        matrix,
        np.stack(columns),
        preconditioner=application,
        rtol=rtol,
        atol=atol,
        max_iterations=max_iterations,
        record_history=False,
    )
    return list(multi.columns)


class SolverService:
    """Long-running micro-batching front-end over the blocked PCG engine.

    Parameters
    ----------
    registry, cache:
        Shared operator store / preconditioner cache; fresh ones are
        created when omitted.  Passing a shared cache lets several
        services (or offline campaign code) reuse built setups.
    queue_capacity:
        Bound of the admission queue — the backpressure knob.
    window_seconds, max_batch:
        Micro-batching window and per-group size cap.
    solver:
        Override of the numeric block solve (testing hook).
    """

    def __init__(
        self,
        *,
        registry: Optional[OperatorRegistry] = None,
        cache: Optional[PreconditionerCache] = None,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = DEFAULT_MAX_BATCH,
        solver: Optional[BlockSolver] = None,
        shard_id: Optional[int] = None,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {queue_capacity}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if window_seconds < 0.0:
            raise ValueError(f"window_seconds must be >= 0, got {window_seconds}")
        self.registry = registry if registry is not None else OperatorRegistry()
        self.cache = cache if cache is not None else PreconditionerCache()
        self.queue_capacity = int(queue_capacity)
        self.window_seconds = float(window_seconds)
        self.max_batch = int(max_batch)
        self.metrics = ServiceMetrics()
        #: Pool shard this service runs (None outside multi-process mode);
        #: stamped on ``serve.batch`` spans so merged traces attribute
        #: work to shards.
        self.shard_id = shard_id
        self._solver: BlockSolver = solver if solver is not None else _default_solver
        #: Orders admission against ``stop``: nothing is queued behind the
        #: sentinel, so every admitted request is served.
        self._admission = threading.Lock()
        #: The admission queue; None while not accepting requests.
        self._queue: "Optional[queue.Queue[Any]]" = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._queue is not None

    def start(self) -> "SolverService":
        """Create the queue and start the dispatcher thread."""
        with self._admission:
            if self._thread is not None:
                raise ServiceClosedError("service already started")
            self._queue = queue.Queue(maxsize=self.queue_capacity)
            self._thread = threading.Thread(
                target=self._dispatch_loop,
                args=(self._queue,),
                name="repro-serve",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Drain: serve everything admitted, then end the dispatcher thread.

        New submissions fail with :class:`~repro.errors.ServiceClosedError`
        the moment stop begins; requests already in the queue are still
        batched and solved.  A second ``stop`` does nothing.
        """
        with self._admission:
            requests, self._queue = self._queue, None
        if requests is None:
            return
        assert self._thread is not None
        requests.put(_SENTINEL)
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "SolverService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def register_operator(
        self, matrix: CSRMatrix, *, method: str = "fsai", **config: Any
    ) -> str:
        """Store an operator payload; returns its fingerprint key."""
        return self.registry.register(matrix, method=method, **config)

    def submit(
        self,
        operator: Union[str, CSRMatrix],
        rhs: np.ndarray,
        *,
        rtol: float = DEFAULT_RTOL,
        atol: float = 0.0,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        timeout: Optional[float] = None,
    ) -> "Future[ServeResult]":
        """Admit one request from the calling thread; returns its future.

        ``operator`` is a registered fingerprint, or an inline
        :class:`CSRMatrix` that is registered on the fly (first request
        pays the fingerprint hash; later ones should send the key).  The
        future raises the typed :class:`~repro.errors.ServeError` family
        (overload, unknown operator, timeout, closed service), a
        :class:`~repro.errors.ShapeError` or
        :class:`~repro.errors.MatrixFormatError` for a malformed
        right-hand side, or the block solver's own failure.  Malformed
        requests fail before the queue and never reach a block.
        """
        future: "Future[ServeResult]" = Future()
        try:
            if isinstance(operator, CSRMatrix):
                fingerprint = self.registry.register(operator)
            else:
                fingerprint = operator
            entry = self.registry.resolve(fingerprint)
            rhs_arr = np.ascontiguousarray(rhs, dtype=np.float64)
            if rhs_arr.shape != (entry.n,):
                raise ShapeError(
                    f"rhs has shape {rhs_arr.shape}, operator expects ({entry.n},)"
                )
            require_finite(rhs_arr, "rhs")
            self._admit(
                PendingRequest(
                    operator=fingerprint,
                    rhs=rhs_arr,
                    rtol=float(rtol),
                    atol=float(atol),
                    max_iterations=int(max_iterations),
                    timeout=timeout,
                    submitted=time.perf_counter(),
                    future=future,
                )
            )
        except Exception as exc:
            future.set_exception(exc)
        return future

    def _admit(self, request: PendingRequest) -> None:
        with self._admission:
            requests = self._queue
            if requests is None:
                raise ServiceClosedError("service is not accepting requests")
            try:
                requests.put_nowait(request)
            except queue.Full:
                self.metrics.record_rejected()
                trace.add_counter("serve.rejected")
                raise OverloadRejectedError(
                    f"admission queue full ({self.queue_capacity} pending); "
                    f"retry with backoff",
                    self.queue_capacity,
                ) from None
            self.metrics.record_admitted(requests.qsize())
        trace.add_counter("serve.submitted")

    # ------------------------------------------------------------------
    # Dispatcher thread
    # ------------------------------------------------------------------
    def _dispatch_loop(self, requests: "queue.Queue[Any]") -> None:
        closing = False
        while not closing:
            first = requests.get()
            if first is _SENTINEL:
                break
            groups: Dict[BatchKey, List[PendingRequest]] = {
                first.batch_key: [first]
            }
            if self.max_batch > 1 and self.window_seconds > 0.0:
                closing = self._collect_window(requests, groups)
            for key, batch in groups.items():
                self._execute(key, batch)

    def _collect_window(
        self,
        requests: "queue.Queue[Any]",
        groups: Dict[BatchKey, List[PendingRequest]],
    ) -> bool:
        """Fill ``groups`` until the window closes; True when stopping.

        Past the deadline ``get(timeout=0)`` still returns whatever is
        already queued, so a burst that arrived in time joins the cycle.
        """
        deadline = time.perf_counter() + self.window_seconds
        while True:
            remaining = max(deadline - time.perf_counter(), 0.0)
            try:
                item = requests.get(timeout=remaining)
            except queue.Empty:
                return False
            if item is _SENTINEL:
                return True
            bucket = groups.setdefault(item.batch_key, [])
            bucket.append(item)
            if len(bucket) >= self.max_batch:
                # Size window reached: close the whole cycle early so the
                # full group starts solving without waiting out the clock.
                return False

    def _execute(self, key: BatchKey, requests: List[PendingRequest]) -> None:
        now = time.perf_counter()
        live: List[PendingRequest] = []
        for request in requests:
            # False for a future its caller cancelled while it queued.
            if not request.future.set_running_or_notify_cancel():
                continue
            if request.expired(now):
                waited = now - request.submitted
                self.metrics.record_timeout()
                trace.add_counter("serve.timeout")
                request.future.set_exception(
                    RequestTimeoutError(
                        f"request expired after {waited * 1e3:.1f} ms in "
                        f"queue (timeout {request.timeout}s)",
                        waited,
                    )
                )
                continue
            live.append(request)
        if not live:
            return
        try:
            entry = self.registry.resolve(key[0])
        except UnknownOperatorError as exc:  # unregistered between checks
            self._fail(live, exc)
            return
        solve_start = time.perf_counter()
        try:
            results, cache_hit = self._solve_batch(entry, key, live)
        except Exception as exc:  # isolate the failure to this block
            trace.add_counter("serve.batch_error")
            self._fail(live, exc)
            return
        end = time.perf_counter()
        self.metrics.record_batch(
            len(live), end - solve_start, cache_hit=cache_hit
        )
        for request, result in zip(live, results):
            latency = end - request.submitted
            queued = solve_start - request.submitted
            self.metrics.record_served(latency, queued)
            trace.event(
                "serve.request",
                latency,
                operator=key[0][:12],
                batch=len(live),
                converged=result.converged,
            )
            request.future.set_result(
                ServeResult(
                    result=result,
                    operator=key[0],
                    batch_size=len(live),
                    latency_seconds=latency,
                    queued_seconds=queued,
                )
            )

    def _fail(self, requests: List[PendingRequest], exc: Exception) -> None:
        for request in requests:
            self.metrics.record_failed()
            request.future.set_exception(exc)

    def _solve_batch(
        self,
        entry: OperatorEntry,
        key: BatchKey,
        requests: List[PendingRequest],
    ) -> Tuple[List[SolveResult], bool]:
        """The numeric work of one block plus its trace span."""
        _, rtol, atol, max_iterations = key
        span_attrs: Dict[str, Any] = dict(
            operator=key[0][:12], k=len(requests), method=entry.method
        )
        if self.shard_id is not None:
            span_attrs["shard"] = self.shard_id
        with trace.span("serve.batch", **span_attrs):
            trace.add_counter("serve.batches")
            trace.add_counter("serve.batch_rhs", len(requests))
            hits_before = self.cache.hits
            setup = cached_setup(
                entry.matrix,
                method=entry.method,
                cache=self.cache,
                **entry.config,
            )
            cache_hit = self.cache.hits > hits_before
            results = self._solver(
                entry.matrix,
                [request.rhs for request in requests],
                setup.application,
                rtol,
                atol,
                max_iterations,
            )
        if len(results) != len(requests):  # a broken injected solver
            raise RuntimeError(
                f"block solver returned {len(results)} results for "
                f"{len(requests)} requests"
            )
        return results, cache_hit
