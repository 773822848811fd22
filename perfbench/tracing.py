"""Outside-in tracing for the traced run (``--trace 1``).

Spans are recorded from the benchmark's own files, never inside ``src/``:

* the benchmark opens spans around its own calls into a layer
  (``fsai.setup``, ``solvers.pcg``, ``perf.costmodel``);
* :func:`instrument` swaps module-level names that ``repro.fsai.extended``,
  ``repro.perf.costmodel`` and ``repro.serve.dispatcher`` look up at call
  time for timing wrappers, and puts the kernels behind a
  :class:`TimingBackend` registered with ``repro.kernels``.  Everything is
  restored when the ``with`` block ends.

A span records name, start, end, parent and thread; the record also keeps
the method it ran under (inherited from the nearest ancestor) and the
time its children cover, so a layer's self time is ``end − start −
children``.  Spans stay in memory until :meth:`Recorder.write`.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.kernels.base import KernelBackend

#: Positions in a span record.
NAME, START, END, PARENT, METHOD, ATTRS, CHILD = range(7)

#: Span name → metric of its self time.  Every span the traced run opens
#: has an entry, so the self times partition the traced time.
SELF_METRICS = {
    "fsai.setup": "fsai.setup_other_s",
    "fsai.pattern": "fsai.pattern_s",
    "fsai.extend": "fsai.extend_s",
    "fsai.precalc": "fsai.precalc_s",
    "fsai.filter": "fsai.filter_s",
    "fsai.exact": "fsai.exact_s",
    "fsai.cache": "fsai.cache_s",
    "kernels.fsai_setup": "kernels.fsai_setup_s",
    "kernels.fsai_precalc": "kernels.fsai_precalc_s",
    "kernels.spmv": "kernels.spmv_s",
    "kernels.fsai_apply": "kernels.fsai_apply_s",
    "kernels.vector": "kernels.vector_s",
    "kernels.spmm": "kernels.spmm_s",
    "kernels.fsai_apply_multi": "kernels.fsai_apply_multi_s",
    "kernels.bind": "kernels.bind_s",
    "kernels.other": "kernels.other_s",
    "solvers.pcg": "solvers.pcg_overhead_s",
    "solvers.pcg_multi": "solvers.pcg_multi_overhead_s",
    "perf.costmodel": "perf.costmodel_s",
    "cachesim.simulate": "cachesim.simulate_s",
    "serve.batch": "serve.batch_s",
}

#: The setup phases that are also reported per method.
METHODS = ("fsai", "fsaie_sp", "fsaie_full")
FSAI_PHASES = {
    "fsai": ("pattern", "exact", "setup_other"),
    "fsaie_sp": ("pattern", "extend", "precalc", "filter", "exact", "setup_other"),
    "fsaie_full": ("pattern", "extend", "precalc", "filter", "exact", "setup_other"),
}

_backend_ids = itertools.count(1)


class _ThreadLog:
    __slots__ = ("thread", "spans", "stack")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.spans: List[list] = []
        self.stack: List[int] = []


class Recorder:
    """In-memory span store, one list per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.logs: List[_ThreadLog] = []
        self.counters: Dict[str, float] = {}
        #: ``id(rhs array)`` → request id, filled by the serve generator so
        #: a batch span can name the requests it carries.
        self.request_ids: Dict[int, int] = {}
        #: ``id(preconditioner application)`` → method name.
        self.app_methods: Dict[int, str] = {}
        #: ``(base, filtered, extended)`` patterns, checked after the run.
        self.filter_patterns: List[Tuple[Any, Any, Any]] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog(threading.current_thread().name)
            with self._lock:
                self.logs.append(log)
        return log

    @contextmanager
    def span(self, name: str, method: Optional[str] = None, **attrs: Any) -> Iterator[dict]:
        log = self._log()
        parent = log.stack[-1] if log.stack else -1
        if method is None and parent >= 0:
            method = log.spans[parent][METHOD]
        record = [name, perf_counter(), 0.0, parent, method, attrs, 0.0]
        log.stack.append(len(log.spans))
        log.spans.append(record)
        try:
            yield attrs
        finally:
            end = record[END] = perf_counter()
            log.stack.pop()
            if parent >= 0:
                log.spans[parent][CHILD] += end - record[START]

    def leaf(self, name: str, start: float, end: float, value: Any = None) -> None:
        """A span without children, timed by the caller (the kernel path)."""
        log = self._log()
        parent = log.stack[-1] if log.stack else -1
        method = log.spans[parent][METHOD] if parent >= 0 else None
        log.spans.append([name, start, end, parent, method, value, 0.0])
        if parent >= 0:
            log.spans[parent][CHILD] += end - start

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def spans(self, start: float = float("-inf"), end: float = float("inf")) -> Iterator[list]:
        """Every closed span that started inside ``[start, end]``."""
        for log in self.logs:
            for record in log.spans:
                if start <= record[START] <= end and record[END]:
                    yield record

    def write(self, path: Path, meta: Dict[str, Any]) -> None:
        """Dump all spans as JSON: one row per span, times relative to the
        first span, parents as indices into the same thread's rows."""
        origin = min(
            (log.spans[0][START] for log in self.logs if log.spans), default=0.0
        )
        threads = []
        for log in self.logs:
            rows = [
                [r[NAME], r[START] - origin, r[END] - origin, r[PARENT], r[METHOD],
                 r[ATTRS] if isinstance(r[ATTRS], dict) else None]
                for r in log.spans
            ]
            threads.append({"thread": log.thread, "spans": rows})
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"meta": meta, "counters": self.counters, "threads": threads}, fh)


class _NullRecorder:
    """Stand-in for untraced runs: every span is a no-op."""

    def span(self, name: str, method: Optional[str] = None, **attrs: Any):
        return nullcontext({})

    def count(self, name: str, value: float = 1) -> None:
        pass


NULL: Any = _NullRecorder()


def csr_bytes(m: Any) -> int:
    """Computed bytes one CSR product over ``m`` moves: values, indices and
    row pointers once, the input vector read and the output written once."""
    return int(
        m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + 16 * m.n_rows
    )


class TimingBackend(KernelBackend):
    """Kernel backend that times every call into another backend.

    Solve-side operations run on ``inner`` (the default backend); the two
    set-up operations run on ``setup_inner``, the backend ``compute_g``
    resolves by default.  Bound handles are wrapped, so each product in
    the PCG loop is one ``kernels.spmv``/``kernels.fsai_apply`` span; the
    value of those spans is the computed bytes of the product.
    """

    def __init__(
        self, inner: KernelBackend, setup_inner: KernelBackend,
        recorder: Recorder, name: str,
    ) -> None:
        self.inner = inner
        self.setup_inner = setup_inner
        self.recorder = recorder
        self.name = name

    def _time(self, span: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.recorder.leaf(span, start, perf_counter())

    def _bound(self, span: str, op: Callable, value: int) -> Callable:
        leaf = self.recorder.leaf

        def timed_op(x: Any, out: Any) -> Any:
            start = perf_counter()
            result = op(x, out)
            leaf(span, start, perf_counter(), value)
            return result

        return timed_op

    # Sparse products ---------------------------------------------------
    def spmv(self, a, x, out=None, *, scratch=None):
        start = perf_counter()
        result = self.inner.spmv(a, x, out, scratch=scratch)
        self.recorder.leaf("kernels.spmv", start, perf_counter(), csr_bytes(a))
        return result

    def spmv_t(self, a, x, out=None, *, scratch=None):
        return self._time("kernels.other", self.inner.spmv_t, a, x, out, scratch=scratch)

    def fsai_apply(self, g, r, out=None, *, tmp=None, scratch=None):
        start = perf_counter()
        result = self.inner.fsai_apply(g, r, out, tmp=tmp, scratch=scratch)
        self.recorder.leaf("kernels.fsai_apply", start, perf_counter(), 2 * csr_bytes(g))
        return result

    def spmm(self, a, x, out=None, *, scratch=None):
        return self._time("kernels.spmm", self.inner.spmm, a, x, out, scratch=scratch)

    def spmm_t(self, a, x, out=None, *, scratch=None):
        return self._time("kernels.other", self.inner.spmm_t, a, x, out, scratch=scratch)

    def fsai_apply_multi(self, g, r, out=None, *, tmp=None, scratch=None):
        return self._time(
            "kernels.fsai_apply_multi", self.inner.fsai_apply_multi, g, r, out,
            tmp=tmp, scratch=scratch,
        )

    def spmv_op(self, a, scratch=None):
        op = self._time("kernels.bind", self.inner.spmv_op, a, scratch)
        return self._bound("kernels.spmv", op, csr_bytes(a))

    def fsai_apply_op(self, g, tmp, scratch=None):
        op = self._time("kernels.bind", self.inner.fsai_apply_op, g, tmp, scratch)
        return self._bound("kernels.fsai_apply", op, 2 * csr_bytes(g))

    def spmm_op(self, a, scratch=None):
        op = self._time("kernels.bind", self.inner.spmm_op, a, scratch)
        return self._bound("kernels.spmm", op, 0)

    def fsai_apply_multi_op(self, g, tmp, scratch=None):
        op = self._time("kernels.bind", self.inner.fsai_apply_multi_op, g, tmp, scratch)
        return self._bound("kernels.fsai_apply_multi", op, 0)

    # Set-up operations ---------------------------------------------------
    def fsai_setup(self, a, pattern, lengths=None):
        return self._time(
            "kernels.fsai_setup", self.setup_inner.fsai_setup, a, pattern, lengths
        )

    def fsai_precalc(self, a, pattern, *, rtol, max_iterations, lengths=None):
        return self._time(
            "kernels.fsai_precalc", self.setup_inner.fsai_precalc, a, pattern,
            rtol=rtol, max_iterations=max_iterations, lengths=lengths,
        )

    def setup_threads(self) -> int:
        return self.setup_inner.setup_threads()

    def spgemm(self, a, b, *, cap=None):
        return self._time("kernels.other", self.inner.spgemm, a, b, cap=cap)

    def spgemm_op(self, a_pattern=None, b_pattern=None, *, cap=None, plan=None):
        return self.inner.spgemm_op(a_pattern, b_pattern, cap=cap, plan=plan)

    # PCG vector primitives -----------------------------------------------
    def dot(self, u, v):
        start = perf_counter()
        result = self.inner.dot(u, v)
        self.recorder.leaf("kernels.vector", start, perf_counter())
        return result

    def pcg_step(self, alpha, x, d, r, q, work=None):
        start = perf_counter()
        result = self.inner.pcg_step(alpha, x, d, r, q, work)
        self.recorder.leaf("kernels.vector", start, perf_counter())
        return result

    def pcg_direction(self, beta, d, z):
        start = perf_counter()
        self.inner.pcg_direction(beta, d, z)
        self.recorder.leaf("kernels.vector", start, perf_counter())

    def stacked_matvec(self, a_stack, d_stack, out=None):
        return self._time("kernels.other", self.inner.stacked_matvec, a_stack, d_stack, out)

    # Hooks the abstract base requires; the public methods above never
    # reach them, but base-class defaults might.
    def _spmv(self, a, x, out, scratch):
        return self.inner._spmv(a, x, out, scratch)

    def _spmv_t(self, a, x, out, scratch):
        return self.inner._spmv_t(a, x, out, scratch)

    def _fsai_apply(self, g, r, out, tmp, scratch):
        return self.inner._fsai_apply(g, r, out, tmp, scratch)


# ----------------------------------------------------------------------
# Wrappers for module-level names
# ----------------------------------------------------------------------
def _span_wrapper(rec: Recorder, name: str) -> Callable:
    def make(original: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with rec.span(name):
                return original(*args, **kwargs)
        return wrapper
    return make


def _extend_wrapper(rec: Recorder) -> Callable:
    def make(original: Callable) -> Callable:
        def extend(pattern: Any, *args: Any, **kwargs: Any) -> Any:
            with rec.span("fsai.extend"):
                extended = original(pattern, *args, **kwargs)
            rec.count("fsai.extension_entries", extended.nnz - pattern.nnz)
            return extended
        return extend
    return make


def _filter_wrapper(rec: Recorder) -> Callable:
    def make(original: Callable) -> Callable:
        def filter_extension(g_approx: Any, base: Any, filter_value: float) -> Any:
            with rec.span("fsai.filter"):
                filtered = original(g_approx, base, filter_value)
            extended = g_approx.pattern
            rec.count("fsai.filter_added", extended.nnz - base.nnz)
            rec.count("fsai.filter_kept", filtered.nnz - base.nnz)
            rec.filter_patterns.append((base, filtered, extended))
            return filtered
        return filter_extension
    return make


def _sim_wrapper(rec: Recorder) -> Callable:
    def make(original: Callable) -> Callable:
        def simulate(*args: Any, **kwargs: Any) -> Any:
            with rec.span("cachesim.simulate"):
                result = original(*args, **kwargs)
            rec.count("cachesim.accesses", result.total_accesses)
            return result
        return simulate
    return make


def _cache_wrapper(rec: Recorder) -> Callable:
    def make(original: Callable) -> Callable:
        def cached_setup(a: Any, *, method: str = "fsai", cache: Any = None, **kwargs: Any) -> Any:
            misses = cache.misses if cache is not None else 0
            with rec.span("fsai.cache", method=method):
                setup = original(a, method=method, cache=cache, **kwargs)
            rec.app_methods[id(setup.application)] = method
            if cache is not None and cache.misses > misses:
                rec.count("fsai.g_nnz", setup.g.nnz)
            return setup
        return cached_setup
    return make


def _batch_wrapper(rec: Recorder) -> Callable:
    def make(original: Callable) -> Callable:
        def solver(matrix, columns, application, rtol, atol, max_iterations):
            ids = [rec.request_ids.get(id(c)) for c in columns]
            with rec.span("serve.batch", width=len(columns), request_ids=ids):
                return original(matrix, columns, application, rtol, atol, max_iterations)
        return solver
    return make


def _solver_wrapper(rec: Recorder, name: str) -> Callable:
    def make(original: Callable) -> Callable:
        def solve(a: Any, b: Any, **kwargs: Any) -> Any:
            method = rec.app_methods.get(id(kwargs.get("preconditioner")))
            with rec.span(name, method=method) as attrs:
                result = original(a, b, **kwargs)
                if name == "solvers.pcg":
                    attrs["iterations"] = result.iterations
                else:
                    attrs["width"] = len(result.columns)
                    attrs["iterations"] = max(c.iterations for c in result.columns)
            return result
        return solve
    return make


def solve_pcg(rec: Any, method: str, a: Any, b: Any, **kwargs: Any) -> Any:
    """``pcg`` under a ``solvers.pcg`` span (the benchmark's own calls)."""
    from repro.solvers.cg import pcg

    with rec.span("solvers.pcg", method=method) as attrs:
        result = pcg(a, b, **kwargs)
        attrs["iterations"] = result.iterations
    return result


@contextmanager
def instrument(rec: Recorder) -> Iterator[TimingBackend]:
    """Install every wrapper for the duration of the block."""
    from repro.fsai import extended
    from repro.fsai.frobenius import resolve_setup_backend
    from repro.kernels import ENV_VAR, get_backend, register_backend, use_backend
    from repro.perf import costmodel
    from repro.serve import dispatcher

    patches = [
        (extended, "fsai_initial_pattern", _span_wrapper(rec, "fsai.pattern")),
        (extended, "extend_pattern_cache_friendly", _extend_wrapper(rec)),
        (extended, "precalculate_g", _span_wrapper(rec, "fsai.precalc")),
        (extended, "filter_extension_by_precalc", _filter_wrapper(rec)),
        (extended, "compute_g", _span_wrapper(rec, "fsai.exact")),
        (costmodel, "simulate_spmv", _sim_wrapper(rec)),
        (costmodel, "simulate_fsai_application", _sim_wrapper(rec)),
        (dispatcher, "_default_solver", _batch_wrapper(rec)),
        (dispatcher, "cached_setup", _cache_wrapper(rec)),
        (dispatcher, "pcg", _solver_wrapper(rec, "solvers.pcg")),
        (dispatcher, "pcg_multi", _solver_wrapper(rec, "solvers.pcg_multi")),
    ]
    name = f"perfbench-timing-{next(_backend_ids)}"
    backend = TimingBackend(
        get_backend(), get_backend(resolve_setup_backend()), rec, name
    )
    register_backend(name, lambda: backend)
    previous_env = os.environ.get(ENV_VAR)
    originals = []
    try:
        for module, attr, make in patches:
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, make(original))
        os.environ[ENV_VAR] = name
        with use_backend(backend):
            yield backend
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)
        if previous_env is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous_env
        # The registry keeps the name; detached, it times into a recorder
        # nobody reads, and no default resolution reaches it any more.
        backend.recorder = Recorder()


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(rec: Recorder, start: float, end: float) -> Dict[str, float]:
    """Self times, counts and ratios of every span in ``[start, end]``.

    ``trace.unattributed_s`` is the window minus the self time of every
    span in it, so the self-time metrics plus it add up to the window on
    single-threaded workloads.
    """
    values: Dict[str, float] = {metric: 0.0 for metric in SELF_METRICS.values()}
    for method, phases in FSAI_PHASES.items():
        for phase in phases:
            values[f"fsai.{phase}_s.{method}"] = 0.0
    totals = {"solvers.pcg": 0.0, "solvers.pcg_multi": 0.0}
    calls = {"kernels.spmv": 0, "kernels.fsai_apply": 0, "perf.costmodel": 0}
    gb = {"kernels.spmv": 0.0, "kernels.fsai_apply": 0.0}
    widths: List[int] = []
    per_method: Dict[str, List[float]] = {m: [0.0, 0] for m in METHODS}
    attributed = 0.0
    for record in rec.spans(start, end):
        name = record[NAME]
        duration = record[END] - record[START]
        own = duration - record[CHILD]
        attributed += own
        metric = SELF_METRICS[name]
        values[metric] += own
        method = record[METHOD]
        if name.startswith("fsai.") and name != "fsai.cache" and method in FSAI_PHASES:
            values[f"{metric}.{method}"] += own
        if name in totals:
            totals[name] += duration
            attrs = record[ATTRS]
            if name == "solvers.pcg_multi":
                widths.append(attrs["width"])
            elif method in per_method:
                per_method[method][0] += duration
                per_method[method][1] += attrs["iterations"]
        if name in calls:
            calls[name] += 1
        if name in gb:
            gb[name] += record[ATTRS] / 1e9
    added = rec.counters.get("fsai.filter_added", 0)
    values.update(
        {
            "fsai.extension_entries": rec.counters.get("fsai.extension_entries", 0),
            "fsai.filter_keep_ratio": (
                rec.counters.get("fsai.filter_kept", 0) / added if added else 0.0
            ),
            "fsai.g_nnz": rec.counters.get("fsai.g_nnz", 0),
            "kernels.spmv_calls": calls["kernels.spmv"],
            "kernels.fsai_apply_calls": calls["kernels.fsai_apply"],
            "kernels.spmv_gb_computed": gb["kernels.spmv"],
            "kernels.fsai_apply_gb_computed": gb["kernels.fsai_apply"],
            "solvers.pcg_s": totals["solvers.pcg"],
            "solvers.pcg_multi_s": totals["solvers.pcg_multi"],
            "solvers.pcg_multi_width_mean": (
                sum(widths) / len(widths) if widths else 0.0
            ),
            "perf.costmodel_calls": calls["perf.costmodel"],
            "cachesim.accesses": rec.counters.get("cachesim.accesses", 0),
            "trace.unattributed_s": (end - start) - attributed,
        }
    )
    for method, (seconds, iterations) in per_method.items():
        values[f"solvers.ms_per_iteration.{method}"] = (
            1e3 * seconds / iterations if iterations else 0.0
        )
    return values
