"""``repro.serve`` — solver-as-a-service: a micro-batching front-end.

The serving layer the ROADMAP's "millions of users" north star asks for:
a request is ``(operator fingerprint or CSR payload, rhs, tolerance)``;
callers admit requests from their own threads into a bounded queue, and
one dispatcher thread micro-batches same-operator requests arriving
within a small time/size window into one blocked ``pcg_multi`` solve,
shares the :class:`repro.fsai.cache.PreconditionerCache` across all
requests, and applies admission control (bounded queue, typed overload
rejection, per-request timeouts) with full ``repro.trace``
observability.  See ``docs/serving.md``.

Usage (in-process, no network)::

    from repro.serve import InProcessClient

    with InProcessClient(window_seconds=0.002, max_batch=32) as client:
        fp = client.register(a)                 # ship the operator once
        res = client.solve(fp, b, rtol=1e-8)    # batched behind the scenes
        print(res.iterations, res.batch_size, res.latency_seconds)

Multi-process scaling: :class:`repro.serve.pool.MultiProcessClient`
shards operators across worker processes by fingerprint, keeping one
copy of each CSR payload in the shared-memory store of
:mod:`repro.serve.shm` — ``MultiProcessClient(4)`` is a drop-in for
``InProcessClient`` at the request surface.

An optional stdlib-HTTP front door lives in :mod:`repro.serve.http`
(``repro-fsai serve``); the core never needs it.
"""

from repro.serve.client import InProcessClient
from repro.serve.dispatcher import SolverService
from repro.serve.metrics import ServiceMetrics
from repro.serve.operators import OperatorEntry, OperatorRegistry
from repro.serve.pool import MultiProcessClient, shard_for
from repro.serve.request import ServeResult
from repro.serve.shm import SharedOperatorStore

__all__ = [
    "InProcessClient",
    "MultiProcessClient",
    "OperatorEntry",
    "OperatorRegistry",
    "ServeResult",
    "ServiceMetrics",
    "SharedOperatorStore",
    "SolverService",
    "shard_for",
]
