"""MultiProcessClient: sharded batching, respawn, cross-process seeding.

These tests spawn real worker processes (2 at most, small operators) so
they run on single-core CI runners; the kill-a-worker chaos test is the
acceptance gate for graceful degradation — typed retryable error for
in-flight requests, automatic respawn, factor-seeded recovery, no
shared-memory leaks.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.collection.generators.fd import poisson2d
from repro.errors import (
    ServiceClosedError,
    ShapeError,
    UnknownOperatorError,
    WorkerCrashedError,
)
from repro.serve import MultiProcessClient, shard_for
from repro.serve import pool as pool_module
from repro.serve.pool import _portable_exception


def _rhs(a, seed=0):
    return np.ascontiguousarray(
        np.random.default_rng(seed).standard_normal(a.n_rows)
    )


def _wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestShardRouting:
    def test_shard_for_is_deterministic_and_in_range(self):
        fps = [poisson2d(n).fingerprint() for n in (5, 6, 7, 8)]
        for n_workers in (1, 2, 3, 4):
            shards = [shard_for(fp, n_workers) for fp in fps]
            assert shards == [shard_for(fp, n_workers) for fp in fps]
            assert all(0 <= s < n_workers for s in shards)

    def test_shard_for_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            shard_for("ab" * 32, 0)

    def test_single_worker_owns_everything(self):
        assert shard_for("ff" * 32, 1) == 0


class TestPortableException:
    def test_multi_arg_errors_survive_pickling(self):
        exc = WorkerCrashedError("shard 3 died", 3)
        out = _portable_exception(exc)
        assert isinstance(out, WorkerCrashedError)
        assert out.shard == 3
        assert out.retryable

    def test_unpicklable_error_degrades_to_runtime_error(self):
        class Weird(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a}/{b}")

        out = _portable_exception(Weird("x", "y"))
        assert isinstance(out, RuntimeError)
        assert "Weird" in str(out)


class TestPoolServing:
    def test_batches_across_two_shards(self):
        a1, a2 = poisson2d(8), poisson2d(9)
        with MultiProcessClient(2, window_seconds=0.02) as client:
            fp1 = client.register(a1)
            fp2 = client.register(a2)
            assert client.operator_count() == 2
            stream = []
            for seed in range(6):
                stream.append((fp1, _rhs(a1, seed)))
                stream.append((fp2, _rhs(a2, seed)))
            results = client.solve_many(stream, rtol=1e-8)
            assert len(results) == 12
            assert all(r.converged for r in results)
            metrics = client.merged_metrics()
            assert metrics.solved == 12
            # Same-operator requests admitted together must batch.
            assert metrics.batches < metrics.batched_rhs
            snap = client.snapshot()
            assert snap["workers"] == 2
            assert snap["respawns"] == 0
            assert set(snap["shards"]) == {"0", "1"}

    def test_register_accepts_matrix_in_solve(self):
        a = poisson2d(8)
        with MultiProcessClient(1, window_seconds=0.005) as client:
            result = client.solve(a, _rhs(a, 1), rtol=1e-8)
            assert result.converged

    def test_unknown_operator_and_bad_shape_are_typed(self):
        a = poisson2d(8)
        with MultiProcessClient(1, window_seconds=0.005) as client:
            with pytest.raises(UnknownOperatorError):
                client.solve("0" * 64, np.ones(4))
            fp = client.register(a)
            with pytest.raises(ShapeError):
                client.solve(fp, np.ones(3))

    def test_merged_metrics_picklable_snapshot(self):
        a = poisson2d(8)
        with MultiProcessClient(1, window_seconds=0.005) as client:
            fp = client.register(a)
            client.solve(fp, _rhs(a, 1), rtol=1e-8)
            snap = client.snapshot()
            assert snap["solved"] == 1
            assert snap["shm"]["published"] == 1


def _refuse(*args, **kwargs):
    raise ValueError("command queue is closed")


class TestRegisterFailure:
    """``register`` must not report an attach the shard never received."""

    def test_refused_attach_raises_and_retry_succeeds(self, monkeypatch):
        a = poisson2d(8)
        with MultiProcessClient(1, window_seconds=0.005) as client:
            queue = client._workers[0].cmd_queue
            monkeypatch.setattr(pool_module, "MONITOR_INTERVAL", 0.001)
            monkeypatch.setattr(queue, "put", _refuse)
            with pytest.raises(WorkerCrashedError) as info:
                client.register(a)
            assert info.value.shard == 0 and info.value.retryable
            monkeypatch.undo()
            # The spec stays in the attach manifest: once the shard is
            # respawned its replay attaches it, and the retry succeeds.
            os.kill(client._workers[0].process.pid, signal.SIGKILL)
            assert _wait_until(lambda: client.respawns == 1)
            fp = client.register(a)
            assert client.solve(fp, _rhs(a, 1), rtol=1e-8).converged

    def test_refused_attach_while_closing_is_service_closed(
        self, monkeypatch
    ):
        a = poisson2d(8)
        with MultiProcessClient(1, window_seconds=0.005) as client:
            queue = client._workers[0].cmd_queue

            def refuse_and_close(*args, **kwargs):
                client._closing = True
                raise ValueError("command queue is closed")

            monkeypatch.setattr(pool_module, "MONITOR_INTERVAL", 0.001)
            monkeypatch.setattr(queue, "put", refuse_and_close)
            with pytest.raises(ServiceClosedError):
                client.register(a)
            monkeypatch.undo()


class TestChaosRespawn:
    def test_killed_worker_respawns_and_shard_recovers(self):
        """The acceptance chaos test: SIGKILL the owning worker mid-flight.

        In-flight requests fail with the typed retryable error, the
        shard respawns, and — because the factor was published to the
        store after the first solve — the respawned worker serves cache
        hits without re-running FSAI setup.
        """
        a = poisson2d(10)
        with MultiProcessClient(2, window_seconds=0.005) as client:
            fp = client.register(a)
            shard = client.shard_of(fp)
            # Warm solve: builds the factor and publishes it.
            assert client.solve(fp, _rhs(a, 0), rtol=1e-8).converged
            assert _wait_until(lambda: len(client.store.factors()) == 1)

            victim = client._workers[shard].process
            futures = [
                client.submit(fp, _rhs(a, seed), rtol=1e-8)
                for seed in range(4)
            ]
            os.kill(victim.pid, signal.SIGKILL)

            crashed = 0
            for future in futures:
                try:
                    future.result(timeout=60)
                except WorkerCrashedError as exc:
                    crashed += 1
                    assert exc.shard == shard
                    assert exc.retryable
            assert crashed >= 1  # at least the batch in flight died

            assert _wait_until(lambda: client.respawns == 1)
            assert _wait_until(
                lambda: client._workers[shard].process.is_alive()
            )

            # The respawned shard serves again...
            for seed in range(3):
                assert client.solve(fp, _rhs(a, 10 + seed),
                                    rtol=1e-8).converged
            metrics = client.merged_metrics()
            # ...from the seeded factor: the respawned incarnation never
            # misses (the only miss happened before the kill).
            assert metrics.cache_hits >= 3
            snap = client.snapshot()
            assert snap["respawns"] == 1
            assert snap["shards"][str(shard)]["respawns"] == 1

    def test_replacement_installed_before_respawn_count(self, monkeypatch):
        """``respawns`` counts a replacement only once it is installed.

        The replay into the replacement's queue is slowed down; a caller
        that sees the count change must already find the replacement in
        ``_workers``, never the dead worker and its closed queue.
        """
        a = poisson2d(8)
        with MultiProcessClient(1, window_seconds=0.005) as client:
            client.register(a)  # gives the respawn an attach to replay
            dead = client._workers[0]
            spawn = client._spawn

            def spawn_with_slow_replay(shard):
                worker = spawn(shard)
                put = worker.cmd_queue.put

                def slow_put(*args, **kwargs):
                    time.sleep(0.2)
                    return put(*args, **kwargs)

                monkeypatch.setattr(worker.cmd_queue, "put", slow_put)
                return worker

            monkeypatch.setattr(client, "_spawn", spawn_with_slow_replay)
            os.kill(dead.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while client.respawns == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            installed = client._workers[0]
            assert client.respawns == 1
            assert installed is not dead

    def test_submit_after_close_raises(self):
        a = poisson2d(8)
        client = MultiProcessClient(1, window_seconds=0.005)
        client.start()
        fp = client.register(a)
        client.close()
        with pytest.raises(Exception):
            client.solve(fp, _rhs(a, 1))
        client.close()  # idempotent
