"""Parallel fault-tolerant campaign orchestrator with checkpoint/resume.

The paper's evaluation (§7) is a sweep of independent per-matrix
experiments — exactly the shape that parallelises at case granularity.
This module turns :func:`~repro.experiments.campaign.run_campaign` from a
strictly sequential in-process loop into a sharded, supervised execution:

* **Sharding** — each :class:`~repro.collection.suite.MatrixCase` becomes
  one task, dispatched to a pool of ``jobs`` worker *processes* (one
  process per case, so a crashed or wedged case can be killed without
  poisoning a long-lived worker).  Tasks are issued in
  longest-processing-time-first order via the static cost model in
  :func:`repro.parallel.cost.order_cases_by_cost`, which bounds makespan
  inflation from stragglers.
* **Isolation** — a case that raises is captured as a :class:`CaseFailure`
  (exception type, message, full traceback) instead of aborting the sweep;
  a case that exceeds ``timeout`` seconds is killed; a case whose worker
  dies (segfault, OOM kill) is recorded as a crash.  Every failure mode
  goes through the same bounded retry-with-backoff path first.
* **Checkpointing** — completed :class:`~repro.experiments.runner.CaseResult`
  records are appended to per-worker-slot JSONL shard files
  (``shard-NN.jsonl``) in ``checkpoint_dir`` the moment they finish, keyed
  by ``(machine, case_id, config_hash)``.  An interrupted campaign resumed
  with ``resume=True`` skips every already-checkpointed key and recomputes
  nothing.
* **Deterministic merge** — results are sorted by case id into the same
  :class:`~repro.experiments.campaign.CampaignResult` the sequential
  runner produces, so ``tables.py`` / ``figures.py`` / ``report.py`` are
  unchanged consumers and an orchestrated quick campaign is equal to the
  sequential one (asserted in ``tests/experiments/test_orchestrator.py``).

See ``docs/campaign_orchestration.md`` for the checkpoint format and the
nightly-pipeline wiring.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro import trace
from repro.collection.suite import MatrixCase, get_case, suite72
from repro.errors import CampaignIncompleteError, ConfigurationError
from repro.experiments.campaign import CampaignResult
from repro.experiments.runner import CaseResult, ExperimentConfig, run_case
from repro.fsai.extended import sweep_passes
from repro.fsai.registry import get_method
from repro.kernels import ENV_VAR as KERNEL_BACKEND_ENV_VAR
from repro.kernels import get_backend
from repro.parallel.cost import estimate_case_seconds, order_cases_by_cost
from repro.parallel.threadbudget import apply_thread_budget, thread_budget_env
from repro.perf.metrics import OrchestrationMetrics

__all__ = [
    "CHECKPOINT_VERSION",
    "CaseFailure",
    "OrchestratorResult",
    "run_campaign_parallel",
    "load_checkpoints",
    "checkpoint_key",
    "require_complete",
]

#: Bumped whenever the shard-record shape changes; mismatched records are
#: ignored on resume (recomputed, never misread).
CHECKPOINT_VERSION = 1

#: How often (seconds) the scheduler polls worker pipes.
_POLL_SECONDS = 0.02


# ----------------------------------------------------------------------
# Failure + result records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CaseFailure:
    """One case that exhausted its retry budget.

    ``kind`` is ``"error"`` (the case raised), ``"timeout"`` (killed after
    ``timeout`` seconds) or ``"crash"`` (the worker process died without
    reporting, e.g. a segfault or OOM kill); ``traceback`` carries the full
    worker-side trace for ``"error"`` and a synthesised one otherwise.
    """

    case_id: int
    case_name: str
    machine: str
    config_hash: str
    kind: str
    error_type: str
    message: str
    traceback: str
    attempts: int
    elapsed_seconds: float

    def summary(self) -> str:
        return (
            f"[{self.machine}] case {self.case_id} ({self.case_name}) "
            f"{self.kind} after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "case_id": self.case_id,
            "case_name": self.case_name,
            "machine": self.machine,
            "config_hash": self.config_hash,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CaseFailure":
        return cls(**payload)  # type: ignore[arg-type]


@dataclass
class OrchestratorResult:
    """Outcome of one orchestrated campaign: merged results + diagnostics."""

    campaign: CampaignResult
    failures: List[CaseFailure] = field(default_factory=list)
    metrics: Optional[OrchestrationMetrics] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_lines(self) -> List[str]:
        m = self.metrics
        lines = [
            f"machine            {self.campaign.machine}",
            f"cases completed    {len(self.campaign.results)}",
            f"case failures      {len(self.failures)}",
        ]
        if m is not None:
            lines += [
                f"workers            {m.jobs}",
                f"checkpoint-skipped {m.cases_skipped}",
                f"retries            {m.retries}",
                f"wall seconds       {m.wall_seconds:.2f}",
                f"throughput         {m.cases_per_second:.2f} cases/s",
            ]
        lines += [f"FAILED  {f.summary()}" for f in self.failures]
        return lines


def require_complete(result: OrchestratorResult) -> OrchestratorResult:
    """Raise :class:`CampaignIncompleteError` if any case failed."""
    if result.failures:
        detail = "\n".join(f.summary() for f in result.failures)
        raise CampaignIncompleteError(
            f"{len(result.failures)} case(s) failed in the "
            f"{result.campaign.machine} campaign:\n{detail}",
            result.failures,
        )
    return result


# ----------------------------------------------------------------------
# Checkpoint shards
# ----------------------------------------------------------------------
def checkpoint_key(machine: str, case_id: int, config_hash: str) -> Tuple[str, int, str]:
    """The identity under which a completed case is checkpointed."""
    return (machine, case_id, config_hash)


def _shard_path(checkpoint_dir: Path, slot: int) -> Path:
    return checkpoint_dir / f"shard-{slot:02d}.jsonl"


def _append_jsonl(path: Path, record: Dict[str, object]) -> None:
    # One open/write/close per record: a killed orchestrator loses at most
    # the line being written, and `json.loads` skips a torn tail on resume.
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")


def load_checkpoints(
    checkpoint_dir: Union[str, Path],
    config: ExperimentConfig,
    *,
    case_ids: Optional[Iterable[int]] = None,
) -> Dict[int, CaseResult]:
    """Completed cases recorded in ``checkpoint_dir`` for this config.

    Scans every ``shard-*.jsonl`` file; records are kept only when their
    ``(machine, case_id, config_hash)`` key matches ``config`` (and
    ``case_ids``, when given).  Malformed lines — e.g. the torn tail of a
    killed run — and version-mismatched records are skipped silently:
    resume must never be more fragile than recomputing.
    """
    checkpoint_dir = Path(checkpoint_dir)
    wanted = None if case_ids is None else set(case_ids)
    cfg_hash = config.config_hash()
    done: Dict[int, CaseResult] = {}
    for shard in sorted(checkpoint_dir.glob("shard-*.jsonl")):
        for line in shard.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if record.get("version") != CHECKPOINT_VERSION:
                    continue
                if record.get("machine") != config.machine:
                    continue
                if record.get("config_hash") != cfg_hash:
                    continue
                case_id = int(record["case_id"])
                if wanted is not None and case_id not in wanted:
                    continue
                done[case_id] = CaseResult.from_dict(record["result"])
            except (KeyError, TypeError, ValueError, ConfigurationError):
                continue
    return done


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _default_case_runner(case: MatrixCase, config: ExperimentConfig) -> CaseResult:
    return run_case(case, config)


def _worker_main(conn, case_runner, case, config, tracing=False,
                 kernel_backend=None, thread_env=None) -> None:
    """Run one case and report ``("ok", dict)`` or ``("error", dict)``.

    With ``tracing=True`` the case runs under a fresh per-worker collector;
    :func:`~repro.experiments.runner.run_case` attaches the span tree to
    the result, so it crosses the process boundary inside the result dict
    (and from there rides the JSONL checkpoint shards unchanged).

    ``kernel_backend`` is the backend name the *parent* resolved; pinning
    it into ``$REPRO_KERNEL_BACKEND`` here makes the worker solve with the
    same kernels regardless of start method — a fork inherits the parent's
    environment but not a ``use_backend(...)`` context override, and a
    spawn inherits neither.

    ``thread_env`` is the parent-computed thread budget
    (:func:`repro.parallel.threadbudget.thread_budget_env`): applied before
    the case runs so ``workers × threads`` never oversubscribes the
    machine, whatever threaded backend the case selects.
    """
    try:
        if kernel_backend is not None:
            os.environ[KERNEL_BACKEND_ENV_VAR] = kernel_backend
        if thread_env:
            apply_thread_budget(thread_env)
        if tracing:
            with trace.collecting():
                result = case_runner(case, config)
        else:
            result = case_runner(case, config)
        payload = ("ok", result.to_dict())
    except BaseException as exc:  # noqa: BLE001 — isolation is the point
        payload = (
            "error",
            {
                "error_type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
        )
    try:
        conn.send(payload)
    finally:
        conn.close()


def _try_recv(conn):
    """Receive a worker message, or ``None`` on bare EOF (worker died).

    ``Connection.poll()`` returns True at end-of-stream too, so a readable
    pipe does not guarantee a payload.
    """
    try:
        return conn.recv()
    except (EOFError, OSError):
        return None


def _mp_context():
    # fork starts workers in milliseconds and keeps test-injected runners
    # picklable-by-inheritance; fall back to the platform default elsewhere.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
@dataclass
class _Task:
    case: MatrixCase
    attempt: int = 1
    ready_at: float = 0.0


@dataclass
class _Slot:
    task: _Task
    process: object
    conn: object
    started: float
    deadline: Optional[float]


class _ProgressReporter:
    """Per-worker heartbeats + cases/sec + cost-weighted ETA lines."""

    def __init__(self, sink, machine: str, total_cases: int,
                 heartbeat_seconds: float) -> None:
        self._sink = sink
        self._machine = machine
        self._total = total_cases
        self._heartbeat = heartbeat_seconds
        self._t0 = time.monotonic()
        self._last_beat = self._t0
        self._done = 0
        self._failed = 0
        self._done_cost = 0.0
        self._remaining_cost = 0.0

    def emit(self, text: str) -> None:
        if self._sink is not None:
            self._sink(f"[{self._machine}] {text}")

    def set_workload(self, cases: Iterable[MatrixCase]) -> None:
        self._remaining_cost = sum(estimate_case_seconds(c) for c in cases)

    def _eta(self) -> str:
        elapsed = time.monotonic() - self._t0
        if self._done_cost <= 0.0 or elapsed <= 0.0:
            return "eta ?"
        rate = self._done_cost / elapsed
        return f"eta ~{self._remaining_cost / rate:.0f}s"

    def case_done(self, slot: int, case: MatrixCase, seconds: float,
                  attempt: int) -> None:
        self._done += 1
        cost = estimate_case_seconds(case)
        self._done_cost += cost
        self._remaining_cost = max(0.0, self._remaining_cost - cost)
        elapsed = time.monotonic() - self._t0
        rate = self._done / elapsed if elapsed > 0 else 0.0
        self.emit(
            f"{self._done + self._failed}/{self._total} {case.name} "
            f"ok in {seconds:.2f}s (w{slot}, attempt {attempt}) | "
            f"{rate:.2f} cases/s | {self._eta()} | failures {self._failed}"
        )

    def case_retry(self, case: MatrixCase, attempt: int, kind: str,
                   delay: float) -> None:
        self.emit(
            f"{case.name} attempt {attempt} {kind} — retrying in {delay:.1f}s"
        )

    def case_failed(self, failure: CaseFailure) -> None:
        self._failed += 1
        cost = estimate_case_seconds(get_case(failure.case_id))
        self._remaining_cost = max(0.0, self._remaining_cost - cost)
        self.emit(
            f"{self._done + self._failed}/{self._total} "
            f"FAILED {failure.case_name}: {failure.error_type}: "
            f"{failure.message} ({failure.kind}, "
            f"{failure.attempts} attempts)"
        )

    def skipped(self, n: int) -> None:
        if n:
            self.emit(f"resume: skipping {n} checkpointed case(s)")

    def maybe_heartbeat(self, slots: Dict[int, _Slot]) -> None:
        now = time.monotonic()
        if now - self._last_beat < self._heartbeat:
            return
        self._last_beat = now
        busy = [
            f"w{i} {s.task.case.name} {now - s.started:.1f}s"
            for i, s in sorted(slots.items())
        ]
        self.emit(
            f"heartbeat {now - self._t0:.0f}s: "
            f"{'; '.join(busy) if busy else 'all workers idle'} | "
            f"{self._done}/{self._total} done, {self._failed} failed"
        )


def run_campaign_parallel(
    config: Optional[ExperimentConfig] = None,
    *,
    case_ids: Optional[Iterable[int]] = None,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff_seconds: float = 1.0,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    heartbeat_seconds: float = 30.0,
    case_runner: Optional[Callable[[MatrixCase, ExperimentConfig], CaseResult]] = None,
    trace_spans: Optional[bool] = None,
) -> OrchestratorResult:
    """Run the campaign sharded across ``jobs`` worker processes.

    Parameters
    ----------
    config, case_ids:
        As in :func:`~repro.experiments.campaign.run_campaign`.
    jobs:
        Worker-process count; defaults to ``os.cpu_count()`` capped at the
        number of cases.  ``jobs=1`` still runs through the supervisor, so
        timeout/retry/checkpoint semantics are identical at any width.
    timeout:
        Per-case wall-clock budget in seconds; an over-budget worker is
        killed and the case retried.  ``None`` disables the limit.
    retries:
        Extra attempts after the first failure/timeout/crash (so a case
        runs at most ``retries + 1`` times).
    backoff_seconds:
        Linear backoff: attempt *k*'s re-dispatch waits ``backoff * k``.
    checkpoint_dir:
        Directory for JSONL shard files; created if missing.  ``None``
        disables checkpointing.
    resume:
        Skip cases already checkpointed under this config's
        ``(machine, case_id, config_hash)`` key.
    progress:
        Optional sink for progress/heartbeat lines (e.g. ``print``).
    case_runner:
        Module-level ``(case, config) -> CaseResult`` override, used by
        tests to inject failures/timeouts; defaults to
        :func:`~repro.experiments.runner.run_case`.
    trace_spans:
        Run each case under a worker-side trace collector so every merged
        :class:`CaseResult` carries its span tree (``trace_summary``).
        Defaults to the caller's own tracing state (``trace.enabled()``),
        so an orchestrated campaign inside ``trace.collecting()`` traces
        end to end; the parent additionally records one
        ``orchestrator.case`` event per completed case.
    """
    config = config or ExperimentConfig()
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    cases: List[MatrixCase] = (
        suite72() if case_ids is None else [get_case(i) for i in case_ids]
    )
    if jobs is None:
        jobs = min(os.cpu_count() or 1, max(1, len(cases)))
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    runner = case_runner or _default_case_runner
    if trace_spans is None:
        trace_spans = trace.enabled()
    # Resolve the kernel backend once in the parent (honouring any active
    # use_backend(...) override) and propagate the *name* to every worker.
    kernel_backend = get_backend().name
    # Thread-budget policy: jobs × per-worker threads ≤ cores, exported to
    # every worker so threaded setup kernels never oversubscribe the node.
    thread_env = thread_budget_env(jobs)
    cfg_hash = config.config_hash()
    ckpt_path: Optional[Path] = None
    if checkpoint_dir is not None:
        ckpt_path = Path(checkpoint_dir)
        ckpt_path.mkdir(parents=True, exist_ok=True)

    reporter = _ProgressReporter(
        progress, config.machine, len(cases), heartbeat_seconds
    )

    completed: Dict[int, CaseResult] = {}
    skipped = 0
    if resume and ckpt_path is not None:
        completed = load_checkpoints(
            ckpt_path, config, case_ids=[c.case_id for c in cases]
        )
        skipped = len(completed)
        reporter.skipped(skipped)

    # LPT weight in setup passes: the FSAI baseline, one per filter-free
    # method, and the Algorithm 4 sweep's distinct precalcs plus one exact
    # solve per (method, filter) -- the shared prefix counted once.
    swept = [m for m in config.methods if get_method(m).uses_filter]
    n_passes = (
        1 + len(config.methods) - len(swept) + sweep_passes(swept, config.filters)
    )
    todo = [
        c for c in order_cases_by_cost(cases, n_passes=n_passes)
        if c.case_id not in completed
    ]
    reporter.set_workload(todo)

    ctx = _mp_context()
    pending: List[_Task] = [_Task(case=c) for c in todo]
    slots: Dict[int, _Slot] = {}
    free_slots = list(range(min(jobs, max(1, len(pending)))))
    failures: List[CaseFailure] = []
    retry_count = 0
    t0 = time.monotonic()

    def launch(slot: int, task: _Task) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, runner, task.case, config, trace_spans,
                  kernel_backend, thread_env),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        now = time.monotonic()
        slots[slot] = _Slot(
            task=task,
            process=proc,
            conn=parent_conn,
            started=now,
            deadline=None if timeout is None else now + timeout,
        )

    def reap(slot: int) -> _Slot:
        s = slots.pop(slot)
        free_slots.append(slot)
        s.conn.close()
        return s

    def kill(proc) -> None:
        proc.terminate()
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - terminate() suffices here
            proc.kill()
            proc.join()

    def settle(slot: int, kind: str, error: Dict[str, str]) -> None:
        """A case attempt failed; retry with backoff or record the failure."""
        nonlocal retry_count
        s = reap(slot)
        task, now = s.task, time.monotonic()
        if task.attempt <= retries:
            retry_count += 1
            delay = backoff_seconds * task.attempt
            reporter.case_retry(task.case, task.attempt, kind, delay)
            pending.append(
                _Task(case=task.case, attempt=task.attempt + 1,
                      ready_at=now + delay)
            )
        else:
            failure = CaseFailure(
                case_id=task.case.case_id,
                case_name=task.case.name,
                machine=config.machine,
                config_hash=cfg_hash,
                kind=kind,
                error_type=error["error_type"],
                message=error["message"],
                traceback=error["traceback"],
                attempts=task.attempt,
                elapsed_seconds=now - s.started,
            )
            failures.append(failure)
            reporter.case_failed(failure)
            if ckpt_path is not None:
                _append_jsonl(
                    ckpt_path / f"failures-{config.machine}.jsonl",
                    {"version": CHECKPOINT_VERSION, **failure.to_dict()},
                )

    def finish(slot: int, result_dict: Dict[str, object]) -> None:
        s = reap(slot)
        task = s.task
        elapsed = time.monotonic() - s.started
        completed[task.case.case_id] = CaseResult.from_dict(result_dict)
        trace.event(
            "orchestrator.case",
            elapsed,
            case_id=task.case.case_id,
            slot=slot,
            attempt=task.attempt,
        )
        if ckpt_path is not None:
            _append_jsonl(
                _shard_path(ckpt_path, slot),
                {
                    "version": CHECKPOINT_VERSION,
                    "machine": config.machine,
                    "case_id": task.case.case_id,
                    "case_name": task.case.name,
                    "config_hash": cfg_hash,
                    "attempts": task.attempt,
                    "elapsed_seconds": elapsed,
                    "result": result_dict,
                },
            )
        reporter.case_done(slot, task.case, elapsed, task.attempt)

    try:
        while pending or slots:
            now = time.monotonic()
            # Dispatch: pending is kept in cost order; backoff delays only
            # hold back the retried case itself, never the queue.
            if free_slots:
                ready = [t for t in pending if t.ready_at <= now]
                for task in ready[: len(free_slots)]:
                    pending.remove(task)
                    launch(free_slots.pop(0), task)

            for slot in list(slots):
                s = slots[slot]
                if s.conn.poll() or not s.process.is_alive():
                    message = _try_recv(s.conn) if s.conn.poll() else None
                    s.process.join()
                    if message is None:  # died without reporting
                        settle(slot, "crash", {
                            "error_type": "WorkerCrash",
                            "message": (
                                f"worker exited with code {s.process.exitcode} "
                                "without reporting a result"
                            ),
                            "traceback": "",
                        })
                    elif message[0] == "ok":
                        finish(slot, message[1])
                    else:
                        settle(slot, "error", message[1])
                elif s.deadline is not None and now > s.deadline:
                    kill(s.process)
                    settle(slot, "timeout", {
                        "error_type": "CaseTimeout",
                        "message": f"exceeded per-case timeout of {timeout}s",
                        "traceback": "",
                    })

            reporter.maybe_heartbeat(slots)
            if slots or pending:  # idle tick while awaiting results/backoff
                time.sleep(_POLL_SECONDS)
    finally:
        for s in slots.values():  # interrupted: leave no orphans behind
            kill(s.process)
            s.conn.close()

    wall = time.monotonic() - t0
    campaign = CampaignResult(
        config=config,
        results=[completed[cid] for cid in sorted(completed)],
        elapsed_seconds=wall,
    )
    metrics = OrchestrationMetrics(
        jobs=jobs,
        wall_seconds=wall,
        cases_total=len(cases),
        cases_completed=len(completed) - skipped,
        cases_skipped=skipped,
        failures=len(failures),
        retries=retry_count,
    )
    if ckpt_path is not None:
        (ckpt_path / f"orchestration-{config.machine}.json").write_text(
            json.dumps(metrics.to_dict(), indent=2) + "\n"
        )
    return OrchestratorResult(
        campaign=campaign, failures=failures, metrics=metrics
    )
