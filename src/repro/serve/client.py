"""In-process client harness: drive the service without a network.

Tests, benches and the CLI drive the service from plain synchronous code
— and from *several* threads at once, to model concurrent users.
:class:`InProcessClient` owns the lifecycle of one
:class:`~repro.serve.dispatcher.SolverService` and exposes its
thread-safe submit/solve surface: callers admit requests from their own
threads and the service's one dispatcher thread batches and solves them.
No sockets, no serialization — the harness measures the dispatcher
itself.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serve.dispatcher import SolverService
from repro.serve.metrics import ServiceMetrics
from repro.serve.request import ServeResult
from repro.sparse.csr import CSRMatrix

__all__ = ["InProcessClient"]


class InProcessClient:
    """Synchronous, thread-safe front end over one solver service.

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
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InProcessClient":
        if not self._started:
            self.service.start()
            self._started = True
        return self

    def close(self) -> None:
        """Drain the service and stop its dispatcher thread."""
        if self._started:
            self.service.stop()
            self._started = False

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
        """Register an operator payload; thread-safe."""
        return self.service.register_operator(
            matrix, method=method, **config
        )

    def submit(
        self, operator: Union[str, CSRMatrix], rhs: np.ndarray, **kwargs: Any
    ) -> "Future[ServeResult]":
        """Admit one request; returns a waitable future.

        Keyword arguments are :meth:`SolverService.submit`'s (``rtol``,
        ``atol``, ``max_iterations``, ``timeout``).  A rejection
        (:class:`~repro.errors.OverloadRejectedError`) and every other
        request-level error surface through the future, not at call time.
        """
        if not self._started:
            raise RuntimeError("client is not started; use `with client:`")
        return self.service.submit(operator, rhs, **kwargs)

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
        """Submit a whole stream, then collect in order.

        All requests are admitted before the first result is awaited —
        this is what gives the dispatcher a window's worth of same-
        operator requests to batch.  The first failure in stream order
        (e.g. an overload rejection mid-stream) propagates like
        ``future.result()`` would.
        """
        futures = [
            self.submit(operator, rhs, **kwargs) for operator, rhs in requests
        ]
        return [future.result() for future in futures]

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
