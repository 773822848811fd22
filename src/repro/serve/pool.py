"""Fingerprint-sharded multi-process worker pool over the dispatcher.

One :class:`~repro.serve.dispatcher.SolverService` can only batch what a
single GIL-bound process admits.  This module runs **one dispatcher per
worker process** and shards operators across workers by fingerprint, so:

* each worker owns a *disjoint* set of operators — every request for an
  operator lands on the same worker, preserving the micro-batching
  window semantics unchanged;
* operator payloads live **once**, in the parent's
  :class:`~repro.serve.shm.SharedOperatorStore`; workers hold zero-copy
  views (``attach``), never copies;
* built FSAI factors flow the *other* way: the first worker to build a
  setup publishes its factor ``G`` into a segment and the parent adopts
  it, so a respawned worker is **seeded** and skips setup entirely —
  the cross-process leg of the cache's single-flight contract.

Failure semantics: a monitor thread polls worker liveness.  When a
worker dies, its shard's in-flight requests fail with the *retryable*
:class:`~repro.errors.WorkerCrashedError` (carrying the shard id), the
shard is respawned with a fresh command queue, its operators re-attached
and its factors re-seeded, and a ``serve.pool_respawn`` trace counter is
recorded.  Routing is deterministic while the pool size is fixed, so a
retried request reaches the replacement worker.

Thread budget: with ``W`` workers each worker gets
``threads_per_worker(W)`` numba/OMP threads (see
:mod:`repro.parallel.threadbudget`) — serve workers now count against
the same ``workers x threads <= cores`` envelope as campaign workers.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from queue import Empty
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro import trace
from repro.errors import (
    ServiceClosedError,
    ShapeError,
    UnknownOperatorError,
    WorkerCrashedError,
)
from repro.parallel.threadbudget import apply_thread_budget, thread_budget_env
from repro.serve.metrics import ServiceMetrics
from repro.serve.request import ServeResult
from repro.serve.shm import (
    AttachedFactor,
    AttachedOperator,
    FactorSpec,
    SharedOperatorSpec,
    SharedOperatorStore,
)
from repro.solvers.cg import DEFAULT_MAX_ITERATIONS, DEFAULT_RTOL
from repro.sparse.csr import CSRMatrix
from repro.sparse.validate import require_finite, require_spd_screen

__all__ = ["MultiProcessClient", "shard_for"]

#: Liveness poll period of the monitor thread (seconds).
MONITOR_INTERVAL = 0.05
#: How long close() waits for a worker to drain before terminating it.
DRAIN_TIMEOUT = 10.0


def shard_for(fingerprint: str, n_workers: int) -> int:
    """Deterministic shard of a fingerprint for a fixed pool size.

    The fingerprint is already a uniform content hash (SHA-256 hex), so
    its leading 32 bits modulo the pool size balance operators without
    any coordination — and every process computes the same answer.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return int(fingerprint[:8], 16) % n_workers


def _portable_exception(exc: BaseException) -> BaseException:
    """Ensure an exception survives the queue trip to the parent.

    The library's own :class:`~repro.errors.ServeError` family defines
    ``__reduce__`` and round-trips; an arbitrary third-party exception
    with a non-standard constructor may not, and a request must *never*
    hang because its failure could not be shipped.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(
    shard_id: int,
    cmd_queue: "multiprocessing.queues.Queue[Any]",
    result_queue: "multiprocessing.queues.Queue[Any]",
    service_kwargs: Dict[str, Any],
    thread_env: Dict[str, str],
    store_prefix: str,
) -> None:
    """Worker entry point: one dispatcher, one shard, FIFO command loop.

    Module top-level so the ``spawn`` start method can import it.  The
    worker never creates or unlinks *operator* segments — it attaches and
    closes only; factor segments it creates are immediately adopted by
    the parent, which owns every unlink.
    """
    from repro.fsai.precond import FSAIApplication
    from repro.serve.dispatcher import SolverService
    from repro.serve.shm import publish_factor_segment

    apply_thread_budget(thread_env)
    service = SolverService(shard_id=shard_id, **service_kwargs).start()
    cache = service.cache

    attached: Dict[str, AttachedOperator] = {}
    factor_views: List[AttachedFactor] = []
    #: Cache keys whose factor is already published (or seeded/unpublishable).
    known_keys: "set[Tuple[str, str, str]]" = set()
    publish_lock = threading.Lock()

    def publish_new_factors() -> None:
        # Runs in request done-callbacks: on the dispatcher thread, or on
        # this loop's thread for a request that failed at admission.  Scan
        # the cache for setups built since the last pass and ship each
        # factor exactly once.
        with publish_lock:
            for key, setup in cache.entries().items():
                if key in known_keys:
                    continue
                known_keys.add(key)
                application = getattr(setup, "application", None)
                g = getattr(application, "g", None)
                if isinstance(application, FSAIApplication) and isinstance(
                    g, CSRMatrix
                ):
                    spec = publish_factor_segment(
                        key, g, prefix=store_prefix
                    )
                    result_queue.put(("factor", shard_id, spec))

    def on_done(req_id: int, future: "Future[ServeResult]") -> None:
        try:
            result_queue.put(("result", shard_id, req_id, future.result()))
        except BaseException as exc:
            result_queue.put(
                ("error", shard_id, req_id, _portable_exception(exc))
            )
        publish_new_factors()

    result_queue.put(("ready", shard_id))
    try:
        while True:
            message = cmd_queue.get()
            op = message[0]
            if op == "stop":
                break
            try:
                if op == "attach":
                    spec: SharedOperatorSpec = message[1]
                    if spec.fingerprint in attached:  # respawn double-send
                        continue
                    view = AttachedOperator(spec)
                    attached[spec.fingerprint] = view
                    service.registry.register(
                        view.matrix,  # type: ignore[arg-type]
                        method=spec.method,
                        **spec.config,
                    )
                    cache.pin(spec.fingerprint)
                elif op == "seed":
                    fspec: FactorSpec = message[1]
                    if fspec.key in known_keys:
                        continue
                    factor = AttachedFactor(fspec)
                    known_keys.add(fspec.key)
                    if cache.seed(fspec.key, factor.setup):
                        factor_views.append(factor)
                    else:
                        factor.close()
                elif op == "solve":
                    _, req_id, fp, rhs, rtol, atol, max_iterations, timeout = (
                        message
                    )
                    future = service.submit(
                        fp,
                        rhs,
                        rtol=rtol,
                        atol=atol,
                        max_iterations=max_iterations,
                        timeout=timeout,
                    )
                    future.add_done_callback(
                        lambda fut, rid=req_id: on_done(rid, fut)
                    )
                elif op == "metrics":
                    result_queue.put(
                        ("metrics", shard_id, message[1],
                         service.metrics.to_dict())
                    )
                elif op == "detach":
                    fp = message[1]
                    view_opt = attached.pop(fp, None)
                    if view_opt is not None:
                        service.registry.unregister(fp)
                        cache.unpin(fp)
                        view_opt.close()
            except BaseException as exc:
                if op == "solve":
                    result_queue.put(
                        ("error", shard_id, message[1],
                         _portable_exception(exc))
                    )
                elif op == "metrics":
                    result_queue.put(
                        ("metrics", shard_id, message[1], None)
                    )
    finally:
        service.stop()  # serves every admitted request first
        cache.clear()  # release factor/operator array references
        for view in attached.values():
            view.close()
        for factor in factor_views:
            factor.close()


@dataclass
class _Worker:
    shard: int
    process: "multiprocessing.process.BaseProcess"
    cmd_queue: Any
    respawns: int = 0


class MultiProcessClient:
    """Synchronous front end over a fingerprint-sharded worker pool.

    Drop-in for :class:`~repro.serve.client.InProcessClient` at the
    request surface (``register`` / ``submit`` / ``solve`` /
    ``solve_many`` / ``snapshot``), so the HTTP door, the serving bench
    and the CLI run unchanged on top of it.

    Usage::

        with MultiProcessClient(4, window_seconds=0.002) as client:
            fp = client.register(a)
            result = client.solve(fp, b, rtol=1e-8)
    """

    def __init__(
        self,
        n_workers: int,
        *,
        queue_capacity: int = 128,
        window_seconds: float = 0.002,
        max_batch: int = 32,
        start_method: Optional[str] = None,
        store: Optional[SharedOperatorStore] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self._service_kwargs = {
            "queue_capacity": int(queue_capacity),
            "window_seconds": float(window_seconds),
            "max_batch": int(max_batch),
        }
        method = (
            start_method
            or os.environ.get("REPRO_SERVE_MP_START")
            or (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        )
        self._ctx = multiprocessing.get_context(method)
        self.store = store if store is not None else SharedOperatorStore()
        self._thread_env = thread_budget_env(self.n_workers)
        self._lock = threading.Lock()
        self._workers: List[_Worker] = []
        self._result_queue: Optional[Any] = None
        self._router: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._closing = True  # not accepting until start()
        self._req_ids = itertools.count(1)
        #: req_id -> (future, owning worker).  Keyed by worker *identity*
        #: (not shard number) so a respawn sweeps exactly the requests
        #: routed to the dead incarnation and never the replacement's.
        self._inflight: Dict[int, Tuple["Future[ServeResult]", _Worker]] = {}
        #: req_id -> [event, payload, owning worker] for metrics pulls.
        self._pending_metrics: Dict[int, List[Any]] = {}
        #: shard -> fingerprint -> spec: the authoritative attach manifest.
        #: Kept on the client (not the worker record) so a respawn replay
        #: can never miss an operator registered concurrently with it.
        self._shard_specs: Dict[int, Dict[str, SharedOperatorSpec]] = {}
        self.respawns = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MultiProcessClient":
        if self._workers:
            return self
        self._closing = False
        self._stop_event.clear()
        # Start the resource tracker *before* the first worker exists so
        # every process shares the parent's tracker (workers inherit its
        # pipe).  Without this, each worker lazily launches a private
        # tracker whose exit-time cleanup would unlink segments the
        # worker had merely attached (bpo-38119 semantics) — fatal to
        # respawn, which must re-attach those same segments.  With one
        # shared tracker, create+attach registrations dedupe and the
        # parent's unlink balances them, so shutdown is warning-clean.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self._result_queue = self._ctx.Queue()
        for shard in range(self.n_workers):
            self._workers.append(self._spawn(shard))
        self._router = threading.Thread(
            target=self._route_loop, name="repro-pool-router", daemon=True
        )
        self._router.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-pool-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn(self, shard: int) -> _Worker:
        cmd_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                shard,
                cmd_queue,
                self._result_queue,
                self._service_kwargs,
                self._thread_env,
                self.store.prefix,
            ),
            name=f"repro-serve-w{shard}",
            daemon=True,
        )
        process.start()
        return _Worker(shard=shard, process=process, cmd_queue=cmd_queue)

    def close(self) -> None:
        """Drain every shard, reap workers, fail stragglers, free segments."""
        if self._closing and not self._workers:
            return
        self._closing = True
        self._stop_event.set()
        if self._monitor is not None:
            self._monitor.join()
            self._monitor = None
        for worker in self._workers:
            if worker.process.is_alive():
                try:
                    worker.cmd_queue.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for worker in self._workers:
            worker.process.join(timeout=DRAIN_TIMEOUT)
            if worker.process.is_alive():  # pragma: no cover - drain hang
                worker.process.terminate()
                worker.process.join()
            worker.cmd_queue.close()
        if self._result_queue is not None:
            self._result_queue.put(("__stop__",))
        if self._router is not None:
            self._router.join()
            self._router = None
        if self._result_queue is not None:
            self._result_queue.close()
            self._result_queue = None
        with self._lock:
            stragglers = list(self._inflight.values())
            self._inflight.clear()
            pending = list(self._pending_metrics.values())
            self._pending_metrics.clear()
        for future, _ in stragglers:
            if not future.done():
                future.set_exception(
                    ServiceClosedError("pool closed before dispatch")
                )
        for record in pending:
            record[0].set()
        self._workers = []
        self.store.close()

    def __enter__(self) -> "MultiProcessClient":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Router / monitor threads
    # ------------------------------------------------------------------
    def _route_loop(self) -> None:
        queue = self._result_queue
        assert queue is not None
        while True:
            try:
                message = queue.get(timeout=1.0)
            except Empty:
                continue
            except (OSError, ValueError):  # pragma: no cover - queue closed
                return
            tag = message[0]
            if tag == "__stop__":
                return
            if tag == "result" or tag == "error":
                _, _, req_id, payload = message
                with self._lock:
                    entry = self._inflight.pop(req_id, None)
                if entry is None:
                    continue
                future = entry[0]
                if future.done():
                    continue
                if tag == "result":
                    future.set_result(payload)
                else:
                    future.set_exception(payload)
            elif tag == "metrics":
                _, _, req_id, payload = message
                with self._lock:
                    record = self._pending_metrics.pop(req_id, None)
                if record is not None:
                    record[1] = payload
                    record[0].set()
            elif tag == "factor":
                _, _, spec = message
                self.store.adopt_factor(spec)
            # "ready" and unknown tags are informational only.

    def _monitor_loop(self) -> None:
        while not self._stop_event.wait(MONITOR_INTERVAL):
            for index, worker in enumerate(list(self._workers)):
                if worker.process.is_alive() or self._closing:
                    continue
                self._respawn(index, worker)

    def _respawn(self, index: int, dead: _Worker) -> None:
        """Replace a dead worker: fail its in-flight, replay its state.

        Ordering matters: the dead command queue is closed *first* so a
        concurrent ``submit`` racing this respawn fails fast at the put
        (and converts to :class:`WorkerCrashedError` itself) instead of
        writing into a queue nobody will ever read; then the sweep fails
        everything that made it in before the close.  Last, the state is
        replayed into the replacement, which is installed before
        ``respawns`` counts it.
        """
        shard = dead.shard
        trace.add_counter("serve.pool_respawn")
        dead.cmd_queue.close()
        with self._lock:
            failed = [
                (req_id, future)
                for req_id, (future, owner) in self._inflight.items()
                if owner is dead
            ]
            for req_id, _ in failed:
                del self._inflight[req_id]
            orphaned = [
                record
                for record in self._pending_metrics.values()
                if record[2] is dead
            ]
        for _, future in failed:
            if not future.done():
                future.set_exception(
                    WorkerCrashedError(
                        f"worker for shard {shard} died with "
                        f"{len(failed)} request(s) in flight; the shard "
                        f"was respawned — retry",
                        shard,
                    )
                )
        for record in orphaned:
            record[0].set()
        dead.process.join()  # reap the zombie
        replacement = self._spawn(shard)
        replacement.respawns = dead.respawns + 1
        # Replay shard state in registration order: operators first so a
        # seeded factor always finds its operator present.
        with self._lock:
            replay = list(self._shard_specs.get(shard, {}).values())
        for spec in replay:
            replacement.cmd_queue.put(("attach", spec))
        for fspec in self.store.factors():
            if shard_for(fspec.key[0], self.n_workers) == shard:
                replacement.cmd_queue.put(("seed", fspec))
        # Install, then publish the count: a caller that waits for
        # ``respawns`` must never reach the dead worker's closed queue.
        self._workers[index] = replacement
        self.respawns += 1

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def register(
        self, matrix: CSRMatrix, *, method: str = "fsai", **config: Any
    ) -> str:
        """Publish into the shared store and attach on the owning shard.

        Raises :class:`~repro.errors.ServiceClosedError` when the pool is
        closing, :class:`~repro.errors.MatrixFormatError` for a NaN or
        infinite entry and :class:`~repro.errors.NotSPDError` for a
        non-positive diagonal (before anything is published), and
        :class:`~repro.errors.WorkerCrashedError` when the shard's command
        queue refuses the attach on every retry.  A spec whose attach failed
        stays registered, so a respawn's replay still attaches it and a
        retried ``register`` succeeds.
        """
        if self._closing:
            raise ServiceClosedError("pool is not accepting requests")
        require_spd_screen(matrix)
        spec = self.store.publish(matrix, method=method, config=config)
        shard = shard_for(spec.fingerprint, self.n_workers)
        with self._lock:
            shard_specs = self._shard_specs.setdefault(shard, {})
            already = spec.fingerprint in shard_specs
            if not already:
                shard_specs[spec.fingerprint] = spec
        if not already:
            self.store.acquire(spec.fingerprint)
            # Worker-side attach is idempotent, so racing a respawn at
            # worst double-delivers; a closed (dead) queue is retried
            # against the replacement the monitor installs.
            for _ in range(100):
                try:
                    self._workers[shard].cmd_queue.put(("attach", spec))
                    break
                except (OSError, ValueError):
                    time.sleep(MONITOR_INTERVAL)
            else:
                if self._closing:
                    raise ServiceClosedError("pool closed during register")
                raise WorkerCrashedError(
                    f"shard {shard} refused the attach of operator "
                    f"{spec.fingerprint[:12]}; retry once it is respawned",
                    shard,
                )
        return spec.fingerprint

    def shard_of(self, fingerprint: str) -> int:
        return shard_for(fingerprint, self.n_workers)

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
        """Route one request to its fingerprint's shard; returns a future.

        Parent-side failures (unknown operator, bad shape, a NaN or
        infinite right-hand side, closed pool) raise immediately;
        shard-side failures — including a worker death
        (:class:`~repro.errors.WorkerCrashedError`) — surface through the
        future like every other serve error.
        """
        if self._closing:
            raise ServiceClosedError("pool is not accepting requests")
        if isinstance(operator, CSRMatrix):
            fingerprint = self.register(operator)
        else:
            fingerprint = operator
        spec = self.store.spec(fingerprint)
        if spec is None:
            raise UnknownOperatorError(
                f"operator {fingerprint[:16]}... is not registered with "
                f"this pool; call register first"
            )
        rhs_arr = np.ascontiguousarray(rhs, dtype=np.float64)
        if rhs_arr.shape != (spec.n_rows,):
            raise ShapeError(
                f"rhs has shape {rhs_arr.shape}, operator expects "
                f"({spec.n_rows},)"
            )
        require_finite(rhs_arr, "rhs")
        shard = shard_for(fingerprint, self.n_workers)
        worker = self._workers[shard]
        future: "Future[ServeResult]" = Future()
        with self._lock:
            req_id = next(self._req_ids)
            self._inflight[req_id] = (future, worker)
        try:
            worker.cmd_queue.put(
                (
                    "solve",
                    req_id,
                    fingerprint,
                    rhs_arr,
                    float(rtol),
                    float(atol),
                    int(max_iterations),
                    timeout,
                )
            )
        except (OSError, ValueError):
            # Raced a respawn: the dead incarnation's queue is closed.
            with self._lock:
                self._inflight.pop(req_id, None)
            future.set_exception(
                WorkerCrashedError(
                    f"worker for shard {shard} died before this request "
                    f"was queued; the shard was respawned — retry",
                    shard,
                )
            )
        return future

    def solve(
        self,
        operator: Union[str, CSRMatrix],
        rhs: np.ndarray,
        **kwargs: Any,
    ) -> ServeResult:
        """Blocking convenience wrapper over :meth:`submit`."""
        return self.submit(operator, rhs, **kwargs).result()

    def solve_many(
        self,
        requests: Iterable[Tuple[Union[str, CSRMatrix], np.ndarray]],
        **kwargs: Any,
    ) -> List[ServeResult]:
        """Admit a whole stream across shards, then collect in order.

        Every request is routed before the first result is awaited, so
        each shard sees a window's worth of its operators' requests to
        batch — the multi-process analogue of
        :meth:`InProcessClient.solve_many`.
        """
        futures = [
            self.submit(operator, rhs, **kwargs)
            for operator, rhs in requests
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def operator_fingerprints(self) -> List[str]:
        with self._lock:
            return [
                fp
                for specs in self._shard_specs.values()
                for fp in specs
            ]

    def operator_count(self) -> int:
        return len(self.operator_fingerprints())

    def merged_metrics(self, timeout: float = 5.0) -> ServiceMetrics:
        """Pull and fold every live shard's metrics into one view.

        A shard that dies mid-pull contributes nothing (its counters died
        with it) — the merge is a floor, never an overcount.
        """
        pulls: List[Tuple[List[Any], _Worker]] = []
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            if not worker.process.is_alive():
                continue
            record: List[Any] = [threading.Event(), None, worker]
            with self._lock:
                req_id = next(self._req_ids)
                self._pending_metrics[req_id] = record
            try:
                worker.cmd_queue.put(("metrics", req_id))
            except (OSError, ValueError):  # pragma: no cover
                with self._lock:
                    self._pending_metrics.pop(req_id, None)
                continue
            pulls.append((record, worker))
        merged = ServiceMetrics()
        for record, _ in pulls:
            remaining = max(0.0, deadline - time.monotonic())
            if record[0].wait(remaining) and record[1] is not None:
                merged.merge(ServiceMetrics.from_dict(record[1]))
        return merged

    @property
    def metrics(self) -> ServiceMetrics:
        return self.merged_metrics()

    def snapshot(self) -> Dict[str, Any]:
        """Merged metrics snapshot plus pool-level health counters."""
        snap = self.merged_metrics().snapshot()
        snap["workers"] = self.n_workers
        snap["respawns"] = self.respawns
        snap["shards"] = {
            str(worker.shard): {
                "alive": worker.process.is_alive(),
                "respawns": worker.respawns,
                "operators": len(self._shard_specs.get(worker.shard, {})),
            }
            for worker in self._workers
        }
        snap["shm"] = self.store.stats()
        return snap
