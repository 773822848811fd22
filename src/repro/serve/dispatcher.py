"""Async solver service: admission control, micro-batching, dispatch.

The service closes the loop the ROADMAP's item 1 describes: PR 5 built
the blocked solver (``pcg_multi``) and the preconditioner cache; this
module plays the server.  One asyncio dispatcher task pulls admitted
requests off a **bounded** queue and groups same-key requests (key =
operator fingerprint + solver tolerances) inside a small time/size
window; each group executes as a single blocked PCG solve on a dedicated
solver thread, sharing one :class:`repro.fsai.cache.PreconditionerCache`
entry across every request that ever names that operator.

Contracts (see ``docs/serving.md`` for the full table):

* **Admission** is ``put_nowait`` against the bounded queue — a full
  queue rejects immediately with
  :class:`~repro.errors.OverloadRejectedError` rather than buffering;
  the service sheds load, it never deadlocks on it.
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

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
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
        self._queue: "Optional[asyncio.Queue[Any]]" = None
        self._task: "Optional[asyncio.Task[None]]" = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closing = True  # not accepting until start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._task is not None and not self._closing

    async def start(self) -> "SolverService":
        """Create the queue and spawn the dispatcher on the running loop."""
        if self._task is not None:
            raise ServiceClosedError("service already started")
        self._queue = asyncio.Queue(maxsize=self.queue_capacity)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._closing = False
        self._task = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )
        return self

    async def stop(self) -> None:
        """Drain: serve everything admitted, then shut the dispatcher down.

        New submissions are rejected with
        :class:`~repro.errors.ServiceClosedError` the moment stop begins;
        requests already in the queue are still batched and solved.
        """
        if self._task is None:
            return
        self._closing = True
        assert self._queue is not None
        await self._queue.put(_SENTINEL)
        await self._task
        self._task = None
        # Defensive: nothing should trail the sentinel, but never leave a
        # caller awaiting a future that can no longer resolve.
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not _SENTINEL and not item.future.done():
                item.future.set_exception(
                    ServiceClosedError("service stopped before dispatch")
                )
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._queue = None

    async def __aenter__(self) -> "SolverService":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def register_operator(
        self, matrix: CSRMatrix, *, method: str = "fsai", **config: Any
    ) -> str:
        """Store an operator payload; returns its fingerprint key."""
        return self.registry.register(matrix, method=method, **config)

    async def solve(
        self,
        operator: Union[str, CSRMatrix],
        rhs: np.ndarray,
        *,
        rtol: float = DEFAULT_RTOL,
        atol: float = 0.0,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        timeout: Optional[float] = None,
    ) -> ServeResult:
        """Admit one request and await its batched solve.

        ``operator`` is a registered fingerprint, or an inline
        :class:`CSRMatrix` that is registered on the fly (first request
        pays the fingerprint hash; later ones should send the key).
        Raises the typed :class:`~repro.errors.ServeError` family:
        overload, unknown operator, timeout, closed service.
        """
        if self._closing or self._queue is None:
            raise ServiceClosedError("service is not accepting requests")
        if isinstance(operator, CSRMatrix):
            fingerprint = self.registry.register(operator)
        else:
            fingerprint = operator
        entry = self.registry.resolve(fingerprint)  # fail fast when unknown
        rhs_arr = np.ascontiguousarray(rhs, dtype=np.float64)
        if rhs_arr.shape != (entry.n,):
            raise ShapeError(
                f"rhs has shape {rhs_arr.shape}, operator expects ({entry.n},)"
            )
        loop = asyncio.get_running_loop()
        request = PendingRequest(
            operator=fingerprint,
            rhs=rhs_arr,
            rtol=float(rtol),
            atol=float(atol),
            max_iterations=int(max_iterations),
            timeout=timeout,
            submitted=time.perf_counter(),
            future=loop.create_future(),
        )
        try:
            self._queue.put_nowait(request)
        except asyncio.QueueFull:
            self.metrics.record_rejected()
            trace.add_counter("serve.rejected")
            raise OverloadRejectedError(
                f"admission queue full ({self.queue_capacity} pending); "
                f"retry with backoff",
                self.queue_capacity,
            ) from None
        self.metrics.record_admitted(self._queue.qsize())
        trace.add_counter("serve.submitted")
        return await request.future

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        queue = self._queue
        closing = False
        while not closing:
            first = await queue.get()
            if first is _SENTINEL:
                break
            groups: Dict[BatchKey, List[PendingRequest]] = {
                first.batch_key: [first]
            }
            if self.max_batch > 1 and self.window_seconds > 0.0:
                closing = await self._collect_window(queue, groups)
            for key, requests in groups.items():
                await self._execute(key, requests)
        # Post-sentinel: nothing else is coming; loop exits and stop()
        # fails any stragglers.

    async def _collect_window(
        self,
        queue: "asyncio.Queue[Any]",
        groups: Dict[BatchKey, List[PendingRequest]],
    ) -> bool:
        """Fill ``groups`` until the window closes; True when stopping."""
        deadline = time.perf_counter() + self.window_seconds
        while True:
            # Fast path: drain whatever a burst already queued without
            # spawning a timer task per item (``wait_for`` wraps its
            # awaitable in a Task — measurable at serving rates).
            while True:
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is _SENTINEL:
                    return True
                bucket = groups.setdefault(item.batch_key, [])
                bucket.append(item)
                if len(bucket) >= self.max_batch:
                    # Size window reached: close the whole cycle early so
                    # the full group starts solving without waiting out
                    # the clock.
                    return False
            remaining = deadline - time.perf_counter()
            if remaining <= 0.0:
                return False
            try:
                item = await asyncio.wait_for(queue.get(), remaining)
            except asyncio.TimeoutError:
                return False
            if item is _SENTINEL:
                return True
            bucket = groups.setdefault(item.batch_key, [])
            bucket.append(item)
            if len(bucket) >= self.max_batch:
                return False

    async def _execute(
        self, key: BatchKey, requests: List[PendingRequest]
    ) -> None:
        now = time.perf_counter()
        live: List[PendingRequest] = []
        for request in requests:
            if request.future.cancelled():
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
            for request in live:
                self.metrics.record_failed()
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        loop = asyncio.get_running_loop()
        solve_start = time.perf_counter()
        try:
            results, cache_hit = await loop.run_in_executor(
                self._executor, self._solve_batch, entry, key, live
            )
        except Exception as exc:  # isolate the failure to this block
            trace.add_counter("serve.batch_error")
            for request in live:
                self.metrics.record_failed()
                if not request.future.done():
                    request.future.set_exception(exc)
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
            if not request.future.done():
                request.future.set_result(
                    ServeResult(
                        result=result,
                        operator=key[0],
                        batch_size=len(live),
                        latency_seconds=latency,
                        queued_seconds=queued,
                    )
                )

    # Runs on the solver thread: the numeric work plus its trace span.
    def _solve_batch(
        self,
        entry: OperatorEntry,
        key: BatchKey,
        requests: List[PendingRequest],
    ) -> Tuple[List[SolveResult], bool]:
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
