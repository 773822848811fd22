"""InProcessClient: the synchronous, multi-thread harness over the service."""

import threading

import numpy as np
import pytest

from repro.collection.generators.fd import poisson2d
from repro.errors import OverloadRejectedError, UnknownOperatorError
from repro.fsai.extended import setup_fsai
from repro.serve import InProcessClient, SolverService
from repro.serve.client import _as_stream
from repro.solvers.cg import pcg


def _rhs(a, seed=0):
    return np.ascontiguousarray(
        np.random.default_rng(seed).standard_normal(a.n_rows)
    )


class TestLifecycle:
    def test_context_manager_starts_and_drains(self):
        a = poisson2d(6)
        with InProcessClient(window_seconds=0.001) as client:
            fp = client.register(a)
            result = client.solve(fp, _rhs(a, 1), rtol=1e-8)
        assert result.converged

    def test_solve_before_start_raises(self):
        client = InProcessClient()
        with pytest.raises(RuntimeError, match="not started"):
            client.solve("0" * 64, np.ones(4))

    def test_close_is_idempotent_and_restart_works(self):
        a = poisson2d(6)
        client = InProcessClient(window_seconds=0.001)
        client.start()
        client.start()  # second start is a no-op
        fp = client.register(a)
        assert client.solve(fp, _rhs(a, 1), rtol=1e-8).converged
        client.close()
        client.close()  # second close is a no-op

    def test_serves_on_one_dispatcher_thread(self):
        def service_threads():
            return {
                t for t in threading.enumerate()
                if t.name.startswith("repro-serve")
            }

        a = poisson2d(6)
        before = service_threads()
        with InProcessClient(window_seconds=0.001) as client:
            fp = client.register(a)
            assert client.solve(fp, _rhs(a, 1), rtol=1e-8).converged
            serving = service_threads() - before
            assert [t.name for t in serving] == ["repro-serve"]
        assert service_threads() - before == set()

    def test_service_and_kwargs_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            InProcessClient(SolverService(), window_seconds=0.01)

    def test_wraps_an_injected_service(self):
        service = SolverService(window_seconds=0.001)
        a = poisson2d(6)
        with InProcessClient(service=service) as client:
            assert client.service is service
            fp = client.register(a)
            assert client.solve(fp, _rhs(a, 2), rtol=1e-8).converged


class TestRequests:
    def test_submit_returns_waitable_future(self):
        a = poisson2d(6)
        with InProcessClient(window_seconds=0.001) as client:
            fp = client.register(a)
            future = client.submit(fp, _rhs(a, 1), rtol=1e-8)
            assert future.result(timeout=30).converged

    def test_typed_errors_surface_through_futures(self):
        with InProcessClient(window_seconds=0.001) as client:
            future = client.submit("0" * 64, np.ones(4))
            with pytest.raises(UnknownOperatorError):
                future.result(timeout=30)

    def test_solve_many_preserves_stream_order(self):
        mats = [poisson2d(6), poisson2d(8)]
        apps = [setup_fsai(a).application for a in mats]
        with InProcessClient(window_seconds=0.005, max_batch=8) as client:
            fps = [client.register(a) for a in mats]
            blocks = [
                np.random.default_rng(3 + i).standard_normal((3, a.n_rows))
                for i, a in enumerate(mats)
            ]
            stream = _as_stream(fps, blocks)
            results = client.solve_many(stream, rtol=1e-10)
        assert len(results) == len(stream)
        by_fp = dict(zip(fps, zip(mats, apps)))
        for (fp, rhs), served in zip(stream, results):
            assert served.operator == fp
            a, app = by_fp[fp]
            direct = pcg(a, rhs, preconditioner=app, rtol=1e-10)
            np.testing.assert_allclose(
                served.x, direct.x, rtol=1e-6, atol=1e-9
            )

    def test_solve_many_propagates_first_failure(self):
        a = poisson2d(6)
        with InProcessClient(window_seconds=0.001) as client:
            fp = client.register(a)
            stream = [(fp, _rhs(a, 1)), ("0" * 64, _rhs(a, 2))]
            with pytest.raises(UnknownOperatorError):
                client.solve_many(stream, rtol=1e-8)

    def test_concurrent_submitters_from_many_threads(self):
        """The client surface is thread-safe: N threads share one service."""
        a = poisson2d(8)
        n_threads, per_thread = 4, 3
        results, errors = [], []
        with InProcessClient(
            window_seconds=0.005, max_batch=32, queue_capacity=64
        ) as client:
            fp = client.register(a)

            def worker(seed):
                try:
                    for i in range(per_thread):
                        results.append(
                            client.solve(
                                fp, _rhs(a, seed * 100 + i), rtol=1e-8
                            )
                        )
                except Exception as exc:  # pragma: no cover - fail the test
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        assert errors == []
        assert len(results) == n_threads * per_thread
        assert all(r.converged for r in results)

    def test_rejection_reaches_the_submitting_thread(self):
        a = poisson2d(6)
        entered = threading.Event()
        release = threading.Event()

        def blocking(matrix, cols, app, rtol, atol, max_iterations):
            from repro.serve.dispatcher import _default_solver

            entered.set()
            assert release.wait(30)
            return _default_solver(
                matrix, cols, app, rtol, atol, max_iterations
            )

        service = SolverService(
            window_seconds=0.0, max_batch=1, queue_capacity=1,
            solver=blocking,
        )
        with InProcessClient(service=service) as client:
            fp = client.register(a)
            first = client.submit(fp, _rhs(a, 0), rtol=1e-8)
            assert entered.wait(30)
            second = client.submit(fp, _rhs(a, 1), rtol=1e-8)
            # Queue (capacity 1) now holds the second request; the third
            # must be shed and the rejection must reach this thread.
            with pytest.raises(OverloadRejectedError):
                client.solve(fp, _rhs(a, 2), rtol=1e-8)
            release.set()
            assert first.result(timeout=30).converged
            assert second.result(timeout=30).converged


class TestStreamHelper:
    def test_round_robin_interleaving(self):
        fps = ["op-a", "op-b"]
        blocks = [
            np.arange(6, dtype=np.float64).reshape(3, 2),
            np.arange(4, dtype=np.float64).reshape(2, 2),
        ]
        stream = _as_stream(fps, blocks)
        assert [fp for fp, _ in stream] == [
            "op-a", "op-b", "op-a", "op-b", "op-a",
        ]
        np.testing.assert_array_equal(stream[0][1], blocks[0][0])
        np.testing.assert_array_equal(stream[1][1], blocks[1][0])
        np.testing.assert_array_equal(stream[4][1], blocks[0][2])

    def test_empty_stream(self):
        assert _as_stream([], []) == []
