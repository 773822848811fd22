"""Tests for the parallel fault-tolerant campaign orchestrator.

Worker processes are spawned per case, so every injected ``case_runner``
here is a module-level function (picklable under any start method).
Cross-attempt state (e.g. "fail once, then succeed") goes through marker
files in ``tmp_path`` handed over via an environment variable, since each
attempt runs in a fresh process.
"""

import json
import os
import time

import pytest

from repro.errors import CampaignIncompleteError, ConfigurationError
from repro.experiments.campaign import run_campaign
from repro.experiments.orchestrator import (
    CHECKPOINT_VERSION,
    CaseFailure,
    checkpoint_key,
    load_checkpoints,
    require_complete,
    run_campaign_parallel,
)
from repro.experiments.runner import (
    CaseResult,
    ExperimentConfig,
    MethodRun,
    run_case,
)

#: Small cross-section + reduced filter sweep: enough to exercise the
#: merge order (ids intentionally not sorted) while staying fast.
IDS = (52, 37, 72, 65)
CFG = ExperimentConfig(filters=(0.0, 0.01))

_MARKER_ENV = "REPRO_TEST_ORCH_MARKER"


# ----------------------------------------------------------------------
# Injectable case runners (module-level: workers import them by reference)
# ----------------------------------------------------------------------
def _fake_run(case, config, *, iters=10):
    mr = MethodRun(
        method="fsaie_full", filter_value=0.0, iterations=iters,
        converged=True, relative_residual=1e-9, setup_seconds=0.01,
        solve_seconds=0.02, g_nnz=3 * case.case_id, pct_nnz=12.5,
        x_misses_per_g_nnz=0.25, gflops=1.5,
    )
    return CaseResult(
        case=case, n=10 * case.case_id, nnz=40 * case.case_id,
        machine=config.machine, baseline=mr,
        runs={("fsaie_full", 0.0): mr},
    )


def fast_runner(case, config):
    return _fake_run(case, config)


def bomb_runner(case, config):
    raise AssertionError(f"case {case.case_id} must not be recomputed")


def fail_case_37_runner(case, config):
    if case.case_id == 37:
        raise ValueError("synthetic failure for case 37")
    return _fake_run(case, config)


def hang_case_37_runner(case, config):
    if case.case_id == 37:
        time.sleep(60.0)
    return _fake_run(case, config)


def crash_case_37_runner(case, config):
    if case.case_id == 37:
        os._exit(3)  # dies without reporting: simulated segfault/OOM kill
    return _fake_run(case, config)


def flaky_case_37_runner(case, config):
    """Fails case 37 until the marker file exists, then succeeds."""
    if case.case_id == 37:
        marker = os.environ[_MARKER_ENV]
        if not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write("attempt seen\n")
            raise RuntimeError("transient failure, retry should recover")
    return _fake_run(case, config)


# ----------------------------------------------------------------------
# Equivalence with the sequential runner
# ----------------------------------------------------------------------
class TestEquivalence:
    @pytest.fixture(scope="class")
    def sequential(self):
        return run_campaign(CFG, case_ids=IDS)

    def test_parallel_equals_sequential(self, sequential):
        outcome = run_campaign_parallel(CFG, case_ids=IDS, jobs=4)
        assert outcome.ok
        assert outcome.campaign.config == sequential.config
        seq_sorted = sorted(sequential.results, key=lambda r: r.case.case_id)
        assert outcome.campaign.results == seq_sorted

    def test_single_job_supervised_path(self, sequential):
        outcome = run_campaign_parallel(CFG, case_ids=IDS[:2], jobs=1)
        assert outcome.ok
        by_id = {r.case.case_id: r for r in sequential.results}
        assert outcome.campaign.results == [
            by_id[i] for i in sorted(IDS[:2])
        ]

    def test_merge_is_sorted_by_case_id(self):
        outcome = run_campaign_parallel(
            CFG, case_ids=IDS, jobs=4, case_runner=fast_runner
        )
        got = [r.case.case_id for r in outcome.campaign.results]
        assert got == sorted(IDS)

    def test_metrics_populated(self):
        outcome = run_campaign_parallel(
            CFG, case_ids=IDS, jobs=2, case_runner=fast_runner
        )
        m = outcome.metrics
        assert m.jobs == 2
        assert m.cases_total == len(IDS)
        assert m.cases_completed == len(IDS)
        assert m.cases_skipped == 0
        assert m.failures == 0
        assert m.cases_per_second > 0


# ----------------------------------------------------------------------
# Failure isolation, timeout, retry, crash
# ----------------------------------------------------------------------
class TestFaultTolerance:
    def test_exception_captured_without_killing_sweep(self):
        outcome = run_campaign_parallel(
            CFG, case_ids=IDS, jobs=2, retries=0,
            case_runner=fail_case_37_runner,
        )
        assert not outcome.ok
        assert [f.case_id for f in outcome.failures] == [37]
        f = outcome.failures[0]
        assert f.kind == "error"
        assert f.error_type == "ValueError"
        assert "synthetic failure" in f.message
        assert "ValueError" in f.traceback  # full worker-side trace
        assert f.attempts == 1
        # The three healthy cases still completed and merged in order.
        done = [r.case.case_id for r in outcome.campaign.results]
        assert done == sorted(set(IDS) - {37})

    def test_timeout_triggers_retry_then_failure(self):
        outcome = run_campaign_parallel(
            CFG, case_ids=(37, 52), jobs=2, timeout=0.4, retries=1,
            backoff_seconds=0.05, case_runner=hang_case_37_runner,
        )
        assert [f.case_id for f in outcome.failures] == [37]
        f = outcome.failures[0]
        assert f.kind == "timeout"
        assert f.error_type == "CaseTimeout"
        assert f.attempts == 2  # first run + one retry, both killed
        assert outcome.metrics.retries == 1
        assert [r.case.case_id for r in outcome.campaign.results] == [52]

    def test_retry_recovers_transient_failure(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_MARKER_ENV, str(tmp_path / "marker"))
        outcome = run_campaign_parallel(
            CFG, case_ids=(37, 52), jobs=2, retries=1,
            backoff_seconds=0.05, case_runner=flaky_case_37_runner,
        )
        assert outcome.ok
        assert outcome.metrics.retries == 1
        assert [r.case.case_id for r in outcome.campaign.results] == [37, 52]

    def test_worker_crash_recorded(self):
        outcome = run_campaign_parallel(
            CFG, case_ids=(37, 52), jobs=2, retries=0,
            case_runner=crash_case_37_runner,
        )
        assert [f.case_id for f in outcome.failures] == [37]
        f = outcome.failures[0]
        assert f.kind == "crash"
        assert "exited with code 3" in f.message
        assert [r.case.case_id for r in outcome.campaign.results] == [52]

    def test_require_complete_raises_with_failures(self):
        outcome = run_campaign_parallel(
            CFG, case_ids=(37,), jobs=1, retries=0,
            case_runner=fail_case_37_runner,
        )
        with pytest.raises(CampaignIncompleteError) as exc_info:
            require_complete(outcome)
        assert exc_info.value.failures == outcome.failures
        assert require_complete(
            run_campaign_parallel(
                CFG, case_ids=(52,), jobs=1, case_runner=fast_runner
            )
        ).ok

    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign_parallel(CFG, case_ids=(37,), jobs=0)
        with pytest.raises(ConfigurationError):
            run_campaign_parallel(CFG, case_ids=(37,), retries=-1)


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_resume_skips_checkpointed_cases(self, tmp_path):
        first = run_campaign_parallel(
            CFG, case_ids=IDS, jobs=2, checkpoint_dir=tmp_path,
            case_runner=fast_runner,
        )
        assert first.ok
        assert list(tmp_path.glob("shard-*.jsonl"))
        # Resume with a runner that would blow up on any recompute: every
        # case must come back from the shards, none from the bomb.
        resumed = run_campaign_parallel(
            CFG, case_ids=IDS, jobs=2, checkpoint_dir=tmp_path,
            resume=True, case_runner=bomb_runner,
        )
        assert resumed.ok
        assert resumed.metrics.cases_skipped == len(IDS)
        assert resumed.metrics.cases_completed == 0
        assert resumed.campaign.results == first.campaign.results

    def test_partial_checkpoint_resumes_remainder(self, tmp_path):
        run_campaign_parallel(
            CFG, case_ids=IDS[:2], jobs=2, checkpoint_dir=tmp_path,
            case_runner=fast_runner,
        )
        resumed = run_campaign_parallel(
            CFG, case_ids=IDS, jobs=2, checkpoint_dir=tmp_path,
            resume=True, case_runner=fast_runner,
        )
        assert resumed.ok
        assert resumed.metrics.cases_skipped == 2
        assert resumed.metrics.cases_completed == 2
        assert [r.case.case_id for r in resumed.campaign.results] == sorted(IDS)

    def test_different_config_hash_not_reused(self, tmp_path):
        run_campaign_parallel(
            CFG, case_ids=(37,), jobs=1, checkpoint_dir=tmp_path,
            case_runner=fast_runner,
        )
        other = ExperimentConfig(filters=(0.0,))  # different knobs
        assert load_checkpoints(tmp_path, other) == {}
        done = load_checkpoints(tmp_path, CFG)
        assert sorted(done) == [37]

    def test_torn_tail_and_bad_records_skipped(self, tmp_path):
        run_campaign_parallel(
            CFG, case_ids=(37,), jobs=1, checkpoint_dir=tmp_path,
            case_runner=fast_runner,
        )
        shard = next(tmp_path.glob("shard-*.jsonl"))
        good = shard.read_text()
        wrong_version = json.loads(good.splitlines()[0])
        wrong_version["version"] = CHECKPOINT_VERSION + 1
        wrong_version["case_id"] = 52
        with open(shard, "a") as fh:
            fh.write(json.dumps(wrong_version) + "\n")
            fh.write('{"version": 1, "machine": "skylake", "case')  # torn
        done = load_checkpoints(tmp_path, CFG)
        assert sorted(done) == [37]

    def test_failures_logged_to_checkpoint_dir(self, tmp_path):
        run_campaign_parallel(
            CFG, case_ids=(37,), jobs=1, retries=0,
            checkpoint_dir=tmp_path, case_runner=fail_case_37_runner,
        )
        log = tmp_path / f"failures-{CFG.machine}.jsonl"
        records = [json.loads(s) for s in log.read_text().splitlines()]
        assert [r["case_id"] for r in records] == [37]
        assert records[0]["kind"] == "error"
        metrics_file = tmp_path / f"orchestration-{CFG.machine}.json"
        assert json.loads(metrics_file.read_text())["failures"] == 1


# ----------------------------------------------------------------------
# Serialization round-trips
# ----------------------------------------------------------------------
class TestSerialization:
    def test_experiment_config_round_trip(self):
        assert ExperimentConfig.from_dict(CFG.to_dict()) == CFG

    def test_config_hash_stable_and_discriminating(self):
        assert CFG.config_hash() == ExperimentConfig(filters=(0.0, 0.01)).config_hash()
        assert CFG.config_hash() != ExperimentConfig(machine="a64fx", filters=(0.0, 0.01)).config_hash()
        assert len(CFG.config_hash()) == 12

    def test_case_result_round_trip_exact(self):
        from repro.collection.suite import get_case

        result = run_case(get_case(37), CFG)
        rebuilt = CaseResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt == result  # floats survive the JSON round-trip exactly

    def test_case_failure_round_trip(self):
        f = CaseFailure(
            case_id=3, case_name="x", machine="skylake", config_hash="ab",
            kind="error", error_type="ValueError", message="m",
            traceback="tb", attempts=2, elapsed_seconds=1.5,
        )
        assert CaseFailure.from_dict(f.to_dict()) == f
        assert "case 3" in f.summary()

    def test_checkpoint_key(self):
        assert checkpoint_key("skylake", 7, "abc") == ("skylake", 7, "abc")


# ----------------------------------------------------------------------
# Kernel-backend propagation into workers
# ----------------------------------------------------------------------
def backend_probe_runner(case, config):
    """Record what the *worker* resolved: env var + registry answer."""
    from repro.kernels import ENV_VAR, get_backend

    result = _fake_run(case, config)
    result.kernel_backend = get_backend().name
    result.runs[("fsaie_full", 0.0)].method = (
        f"env={os.environ.get(ENV_VAR, '<unset>')}"
    )
    return result


class TestBackendPropagation:
    def test_parent_override_reaches_workers(self):
        """A use_backend(...) override in the parent pins every worker.

        Workers are fresh processes (possibly spawned, not forked), so the
        parent's in-process registry override cannot travel by itself; the
        orchestrator resolves the name once and pins it through the
        environment variable the registry honours.
        """
        from repro.kernels import use_backend

        with use_backend("reference"):
            outcome = run_campaign_parallel(
                CFG, case_ids=IDS[:2], jobs=2,
                case_runner=backend_probe_runner,
            )
        assert outcome.ok
        for r in outcome.campaign.results:
            assert r.kernel_backend == "reference"
            assert r.runs[("fsaie_full", 0.0)].method == "env=reference"

    def test_default_backend_recorded_on_results(self):
        from repro.kernels import get_backend

        outcome = run_campaign_parallel(
            CFG, case_ids=IDS[:2], jobs=2, case_runner=backend_probe_runner,
        )
        assert outcome.ok
        expected = get_backend().name
        for r in outcome.campaign.results:
            assert r.kernel_backend == expected

    def test_real_runner_stamps_kernel_backend(self):
        outcome = run_campaign_parallel(CFG, case_ids=IDS[:1], jobs=1)
        assert outcome.ok
        (result,) = outcome.campaign.results
        assert result.kernel_backend is not None
        # And the stamp survives the checkpoint JSON round-trip.
        rebuilt = CaseResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt.kernel_backend == result.kernel_backend


# ----------------------------------------------------------------------
# Thread-budget propagation + setup-backend recording
# ----------------------------------------------------------------------
def thread_env_probe_runner(case, config):
    """Record the thread-budget env exactly as the worker received it."""
    result = _fake_run(case, config)
    result.runs[("fsaie_full", 0.0)].method = (
        f"numba={os.environ.get('NUMBA_NUM_THREADS', '<unset>')}"
        f",omp={os.environ.get('OMP_NUM_THREADS', '<unset>')}"
    )
    return result


class TestThreadBudget:
    def test_workers_receive_thread_budget_env(self):
        """Every worker sees NUMBA_NUM_THREADS/OMP_NUM_THREADS set to the
        parent-computed budget (cores // jobs, at least 1)."""
        from repro.parallel.threadbudget import threads_per_worker

        jobs = 2
        expected = str(threads_per_worker(jobs))
        outcome = run_campaign_parallel(
            CFG, case_ids=IDS[:2], jobs=jobs,
            case_runner=thread_env_probe_runner,
        )
        assert outcome.ok
        for r in outcome.campaign.results:
            assert (
                r.runs[("fsaie_full", 0.0)].method
                == f"numba={expected},omp={expected}"
            )

    def test_policy_never_oversubscribes(self):
        from repro.parallel.threadbudget import (
            THREAD_ENV_VARS,
            thread_budget_env,
            threads_per_worker,
        )

        for cores in (1, 2, 4, 7, 48):
            for jobs in (1, 2, 3, cores, cores + 5):
                t = threads_per_worker(jobs, cores=cores)
                assert t >= 1
                assert jobs * t <= max(cores, jobs)  # never oversubscribed
        env = thread_budget_env(4, cores=48)
        assert set(env) == set(THREAD_ENV_VARS)
        assert all(v == "12" for v in env.values())

    def test_real_runner_stamps_setup_backend(self):
        from repro.fsai.frobenius import resolve_setup_backend

        outcome = run_campaign_parallel(CFG, case_ids=IDS[:1], jobs=1)
        assert outcome.ok
        (result,) = outcome.campaign.results
        assert result.setup_backend == resolve_setup_backend(None)
        rebuilt = CaseResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt.setup_backend == result.setup_backend

    def test_explicit_setup_backend_recorded(self):
        cfg = ExperimentConfig(
            filters=(0.0,), methods=("fsaie_sp",), setup_backend="reference"
        )
        from repro.collection.suite import get_case

        result = run_case(get_case(52), cfg)
        assert result.setup_backend == "reference"
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
