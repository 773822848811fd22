"""Exception hierarchy for :mod:`repro`.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to discriminate failure classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ShapeError(ReproError, ValueError):
    """An operand has an incompatible or non-sensical shape."""


class PatternError(ReproError, ValueError):
    """A sparsity pattern is malformed (unsorted, duplicated, out of range)."""


class NotSymmetricError(ReproError, ValueError):
    """A matrix required to be (structurally or numerically) symmetric is not."""


class NotSPDError(ReproError, ValueError):
    """A matrix required to be symmetric positive definite is not.

    Raised by the dense Cholesky factorisation used for the local FSAI row
    systems when a non-positive pivot is encountered.
    """


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to reach its tolerance within its budget."""

    def __init__(self, message: str, iterations: int, residual: float) -> None:
        super().__init__(message)
        #: Number of iterations performed before giving up.
        self.iterations = iterations
        #: Final relative residual norm.
        self.residual = residual


class MatrixFormatError(ReproError, ValueError):
    """Malformed matrix input: unparseable serialized text (e.g. Matrix
    Market) or non-finite values."""


class ConfigurationError(ReproError, ValueError):
    """An invalid machine/experiment configuration was supplied."""


class ServeError(ReproError):
    """Base class for failures raised by the serving layer (:mod:`repro.serve`).

    Every admission/servicing failure a client can observe derives from
    this, so a front door can map the family to transport-level error
    codes with a single ``except ServeError`` clause.
    """


class OverloadRejectedError(ServeError, RuntimeError):
    """Admission control rejected a request because the queue is full.

    This is the backpressure signal: the service sheds load instead of
    buffering unboundedly.  Clients should back off and retry.
    """

    def __init__(self, message: str, queue_capacity: int) -> None:
        super().__init__(message)
        #: Configured bound of the admission queue that was full.
        self.queue_capacity = queue_capacity

    def __reduce__(self):
        # Default exception pickling replays ``cls(*args)`` with
        # ``args=(message,)`` only — the worker pool ships these across
        # process boundaries, so the extra constructor argument must ride
        # along explicitly.
        return (type(self), (self.args[0], self.queue_capacity))


class RequestTimeoutError(ServeError, TimeoutError):
    """A request's deadline expired while it waited to be dispatched.

    Raised only *before* its batch starts solving — a request that makes
    it into a running block is always carried to completion.
    """

    def __init__(self, message: str, waited_seconds: float) -> None:
        super().__init__(message)
        #: How long the request had been queued when it was expired.
        self.waited_seconds = waited_seconds

    def __reduce__(self):
        return (type(self), (self.args[0], self.waited_seconds))


class WorkerCrashedError(ServeError, RuntimeError):
    """A pool worker died while this request was in flight on its shard.

    Raised by :class:`repro.serve.pool.MultiProcessClient` for every
    request routed to a worker that exited abnormally.  The pool respawns
    the shard immediately, so the error is **retryable**: resubmitting the
    same request reaches the replacement worker (same fingerprint, same
    shard — routing is deterministic while the pool size is fixed).
    """

    #: Clients may resubmit: the shard is respawned with its operators
    #: re-attached from the shared store.
    retryable = True

    def __init__(self, message: str, shard: int) -> None:
        super().__init__(message)
        #: Shard id of the worker that died (also the routing target the
        #: retried request will land on).
        self.shard = shard

    def __reduce__(self):
        return (type(self), (self.args[0], self.shard))


class UnknownOperatorError(ServeError, KeyError):
    """A request referenced an operator fingerprint never registered."""


class ServiceClosedError(ServeError, RuntimeError):
    """A request was submitted to a service that is stopped or stopping."""


class CampaignIncompleteError(ReproError, RuntimeError):
    """An orchestrated campaign finished with unrecovered case failures.

    Raised by consumers that require a complete sweep (report generation,
    the nightly pipeline); the per-case diagnostics are attached so CI logs
    show every traceback without re-running.
    """

    def __init__(self, message: str, failures) -> None:
        super().__init__(message)
        #: List of :class:`repro.experiments.orchestrator.CaseFailure`.
        self.failures = list(failures)
