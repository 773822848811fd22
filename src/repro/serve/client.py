"""In-process client harness: drive the service without a network.

Tests, benches and the CLI need to exercise the asyncio service from
plain synchronous code — and from *several* threads at once, to model
concurrent users.  :class:`InProcessClient` owns a private event loop on
a daemon thread, runs one :class:`~repro.serve.dispatcher.SolverService`
on it, and exposes a thread-safe submit/solve surface built on
``asyncio.run_coroutine_threadsafe``.  No sockets, no serialization —
the harness measures the dispatcher itself.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serve.dispatcher import SolverService
from repro.serve.metrics import ServiceMetrics
from repro.serve.request import ServeResult
from repro.solvers.cg import DEFAULT_MAX_ITERATIONS, DEFAULT_RTOL
from repro.sparse.csr import CSRMatrix

__all__ = ["InProcessClient"]


class InProcessClient:
    """Synchronous, thread-safe front end over a private service loop.

    Usage::

        with InProcessClient(window_seconds=0.002, max_batch=32) as client:
            fp = client.register(a)
            result = client.solve(fp, b, rtol=1e-8)

    ``submit`` returns a :class:`concurrent.futures.Future` so callers
    can fan out many requests and collect later — the pattern the
    serving bench uses to generate a concurrent request stream.
    """

    def __init__(
        self, service: Optional[SolverService] = None, **service_kwargs: Any
    ) -> None:
        if service is not None and service_kwargs:
            raise ValueError("pass either a service or its kwargs, not both")
        self.service = service if service is not None else SolverService(
            **service_kwargs
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InProcessClient":
        if self._thread is not None:
            return self
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            assert self._loop is not None
            asyncio.set_event_loop(self._loop)
            self._started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        asyncio.run_coroutine_threadsafe(
            self.service.start(), self._loop
        ).result()
        return self

    def close(self) -> None:
        """Drain the service, stop the loop, join the thread."""
        if self._thread is None or self._loop is None:
            return
        asyncio.run_coroutine_threadsafe(
            self.service.stop(), self._loop
        ).result()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()
        self._thread = None
        self._loop = None
        self._started.clear()

    def __enter__(self) -> "InProcessClient":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def register(
        self, matrix: CSRMatrix, *, method: str = "fsai", **config: Any
    ) -> str:
        """Register an operator payload; thread-safe, loop not involved."""
        return self.service.register_operator(
            matrix, method=method, **config
        )

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
        """Enqueue one request; returns a waitable future.

        Admission happens on the service loop, so a rejection
        (:class:`~repro.errors.OverloadRejectedError`) surfaces through
        the future, not at call time.
        """
        if self._loop is None:
            raise RuntimeError("client is not started; use `with client:`")
        return asyncio.run_coroutine_threadsafe(
            self.service.solve(
                operator,
                rhs,
                rtol=rtol,
                atol=atol,
                max_iterations=max_iterations,
                timeout=timeout,
            ),
            self._loop,
        )

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
        """Submit a whole stream concurrently, then collect in order.

        All requests are admitted before the first result is awaited —
        this is what gives the dispatcher a window's worth of same-
        operator requests to batch.  The stream crosses into the loop in
        **one** hop (one scheduled coroutine admits every request), so a
        64-request replay costs one thread round trip, not 64; the first
        failure (e.g. an overload rejection mid-stream) propagates like
        ``future.result()`` would.
        """
        batch = list(requests)
        if self._loop is None:
            raise RuntimeError("client is not started; use `with client:`")

        async def admit_and_gather() -> List[ServeResult]:
            tasks = [
                asyncio.ensure_future(
                    self.service.solve(operator, rhs, **kwargs)
                )
                for operator, rhs in batch
            ]
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            results: List[ServeResult] = []
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
                results.append(outcome)
            return results

        return asyncio.run_coroutine_threadsafe(
            admit_and_gather(), self._loop
        ).result()

    @property
    def metrics(self) -> ServiceMetrics:
        return self.service.metrics

    def snapshot(self) -> dict:
        return self.service.metrics.snapshot()

    # The two registry views below complete the client protocol the HTTP
    # front door codes against (see ``repro.serve.http.ServingClient``),
    # so it serves identically over this client and the multi-process
    # pool client.
    def operator_fingerprints(self) -> List[str]:
        return self.service.registry.fingerprints()

    def operator_count(self) -> int:
        return len(self.service.registry)


def _as_stream(
    operators: Sequence[str], blocks: Sequence[np.ndarray]
) -> List[Tuple[str, np.ndarray]]:
    """Interleave per-operator RHS blocks into one mixed request stream.

    ``blocks[i]`` is a ``(k_i, n_i)`` block for ``operators[i]``, one
    right-hand side per row; the stream round-robins operators row by
    row — the worst honest arrival order for a per-operator batcher,
    since consecutive requests (almost) never share an operator.
    """
    stream: List[Tuple[str, np.ndarray]] = []
    widths = [len(block) for block in blocks]
    for j in range(max(widths, default=0)):
        for fp, block, width in zip(operators, blocks, widths):
            if j < width:
                stream.append((fp, np.ascontiguousarray(block[j])))
    return stream
