"""A NaN or infinite right-hand side ends in one typed error.

Without a check, ``pcg`` on ``poisson2d(10)`` with an ``Inf`` in ``b``
(or in ``x0``) reports ``converged=True`` after 0 iterations with
``x = 0``, a ``NaN`` in ``b`` runs the whole iteration budget and returns
a NaN ``x``, and in a ``pcg_multi`` block the poisoned row silently comes
back unconverged.  ``pcg`` and ``pcg_multi`` now raise
:class:`~repro.errors.MatrixFormatError` naming the first non-finite
entry before any product; serving checks each request at admission, so a
bad request fails alone through its own future and never joins a block.
"""

import re
import warnings

import numpy as np
import pytest

from repro.collection.generators.fd import poisson2d
from repro.errors import MatrixFormatError
from repro.fsai.extended import setup_fsai
from repro.serve import InProcessClient, MultiProcessClient, SolverService
from repro.serve.dispatcher import _default_solver
from repro.solvers.cg import pcg, pcg_multi

VALUES = pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
)


@pytest.fixture(scope="module")
def system():
    a = poisson2d(10)
    return a, setup_fsai(a).application


def poisoned(n, value, at, k=None):
    v = np.ones(n) if k is None else np.ones((k, n))
    v[at] = value
    return v


def raises_at(where):
    return pytest.raises(MatrixFormatError, match=re.escape(f"at {where}"))


@VALUES
def test_pcg_rejects_non_finite_b(system, value):
    a, app = system
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with raises_at("b[7]"):
            pcg(a, poisoned(a.n_rows, value, 7), preconditioner=app)


@VALUES
def test_pcg_rejects_non_finite_x0(system, value):
    a, app = system
    with raises_at("x0[3]"):
        pcg(a, np.ones(a.n_rows), preconditioner=app,
            x0=poisoned(a.n_rows, value, 3))


@VALUES
def test_pcg_multi_rejects_a_non_finite_row(system, value):
    a, app = system
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with raises_at("b[2, 5]"):
            pcg_multi(a, poisoned(a.n_rows, value, (2, 5), k=4),
                      preconditioner=app)
    with raises_at("x0[1, 0]"):
        pcg_multi(a, np.ones((4, a.n_rows)), preconditioner=app,
                  x0=poisoned(a.n_rows, value, (1, 0), k=4))


def test_in_process_solve_rejects_non_finite_rhs(system):
    a, _ = system
    with InProcessClient(window_seconds=0.001) as client:
        fp = client.register(a)
        future = client.submit(fp, poisoned(a.n_rows, np.inf, 4))
        with raises_at("rhs[4]"):
            future.result(timeout=30)
        assert client.metrics.submitted == 0


def test_multiprocess_submit_raises_immediately(system):
    a, _ = system
    with MultiProcessClient(1, window_seconds=0.005) as client:
        fp = client.register(a)
        with raises_at("rhs[4]"):
            client.submit(fp, poisoned(a.n_rows, np.nan, 4))


def test_bad_request_never_fails_its_batch_mates(system):
    """One bad and three good requests inside one window: the bad one
    fails alone at admission, the good three share one block and converge."""
    a, _ = system
    widths = []

    def capturing(matrix, cols, app, rtol, atol, max_iterations):
        widths.append(len(cols))
        return _default_solver(matrix, cols, app, rtol, atol, max_iterations)

    rng = np.random.default_rng(5)
    service = SolverService(window_seconds=0.2, max_batch=4, solver=capturing)
    with InProcessClient(service) as client:
        fp = client.register(a)
        rhs = [rng.standard_normal(a.n_rows) for _ in range(4)]
        rhs[1][9] = np.nan
        futures = [client.submit(fp, b, rtol=1e-8) for b in rhs]
        good = [futures[j].result(timeout=30) for j in (0, 2, 3)]
        with raises_at("rhs[9]"):
            futures[1].result(timeout=30)
    assert all(r.converged for r in good)
    assert widths == [3]
    assert service.metrics.failed == 0
