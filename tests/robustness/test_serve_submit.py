"""Hostile requests through ``InProcessClient.submit`` end typed or finite.

Hypothesis draws an operator and a few right-hand sides and sends them
through one long-lived in-process service, registering each operator
under FSAI or FSAIE(full).  Operators: diagonally dominant SPD,
indefinite with a positive diagonal, a singular graph Laplacian (an
isolated row gets a unit diagonal, so the diagonal stays positive),
``D A D`` with ``D`` across
up to 1e±12, one with a dense row and column, ``n = 1``, and one with a
NaN entry.  Right-hand sides: ones, zeros, integers, a NaN or an
infinite entry, the wrong length, and finite vectors scaled across
1e±300.

* ``register`` returns a fingerprint or raises a typed
  :mod:`repro.errors` exception;
* each request's future yields a :class:`~repro.serve.ServeResult` with a
  finite ``x`` or a typed :mod:`repro.errors` exception;
* a result says ``converged`` only when its recurrence residual meets
  ``rtol``, and after zero iterations only for a zero right-hand side
  (``x0 = 0``, so the recurrence residual is then ``b`` itself);
* after every draw, a request on a fresh ``poisson2d(4)`` operator still
  converges: the dispatcher survived.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.address import ArrayPlacement
from repro.collection.generators.fd import poisson2d
from repro.errors import ReproError
from repro.serve import InProcessClient, ServeResult
from repro.sparse.construct import csr_from_dense
from repro.sparse.csr import CSRMatrix

RTOL = 1e-8
#: Each method's registration recipe.
RECIPES = {"fsai": {}, "fsaie_full": {"placement": ArrayPlacement.aligned(64)}}
#: Keeps a singular or indefinite draw's non-convergence cheap.
MAX_ITERATIONS = 300


@pytest.fixture(scope="module")
def client():
    with InProcessClient(
        window_seconds=0.001, max_batch=8, queue_capacity=64
    ) as served:
        yield served


def _operator(rng, n, kind):
    """A symmetric ``kind`` matrix with a positive diagonal (bar ``nan``)."""
    off = np.tril(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3), -1)
    if kind == "dense_row":
        row = int(rng.integers(n))
        off[row, :row] = rng.standard_normal(row)
        off[row + 1:, row] = rng.standard_normal(n - row - 1)
    off += off.T
    if kind == "singular":  # graph Laplacian: zero row sums
        off = -np.abs(off)
        dense = off - np.diag(off.sum(axis=1))
        dense[np.diag_indices(n)] += dense.diagonal() == 0  # isolated rows
    elif kind == "indefinite":
        dense = off + np.diag(rng.uniform(0.05, 0.5, n))
    else:  # strictly diagonally dominant
        dense = off + np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.1, 1.0, n))
    if kind == "scaled":
        scale = 10.0 ** rng.uniform(-12, 12, n)
        dense = scale[:, None] * dense * scale[None, :]
    a = csr_from_dense(dense)
    if kind == "nan":
        data = a.data.copy()
        data[rng.integers(a.nnz)] = np.nan
        a = CSRMatrix(n, n, a.indptr, a.indices, data)
    return a


def _rhs(rng, n, kind):
    if kind == "ones":
        return np.ones(n)
    if kind == "zeros":
        return np.zeros(n)
    if kind == "integers":
        return rng.integers(-5, 6, n).astype(np.float64)
    if kind == "wrong_length":
        return np.ones(n + 1)
    b = rng.standard_normal(n)
    if kind in ("nan", "inf"):
        b[rng.integers(n)] = np.nan if kind == "nan" else np.inf
        return b
    return b * 10.0 ** rng.uniform(-300, 300)  # "scaled"


@st.composite
def requests(draw):
    kind = draw(st.sampled_from(
        ["spd", "indefinite", "singular", "scaled", "dense_row", "one", "nan"]
    ))
    n = 1 if kind == "one" else draw(st.integers(2, 30))
    method = draw(st.sampled_from(sorted(RECIPES)))
    rhs_kinds = draw(st.lists(
        st.sampled_from(
            ["ones", "zeros", "integers", "nan", "inf", "wrong_length", "scaled"]
        ),
        min_size=1, max_size=3,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = _operator(rng, n, "spd" if kind == "one" else kind)
    return a, method, [_rhs(rng, n, k) for k in rhs_kinds]


def _check(future, b):
    try:
        served = future.result(timeout=60)
    except ReproError:
        return
    assert isinstance(served, ServeResult)
    assert np.isfinite(served.x).all()
    if served.converged:
        assert served.result.relative_residual <= RTOL * (1 + 1e-12)
        assert served.iterations > 0 or not np.any(b)


def _norm_repro(value):
    """``poisson2d(5)`` with ``b`` whose squared norm leaves float64."""
    return poisson2d(5), "fsai", [np.full(25, value)]


@given(requests())
@example(_norm_repro(1e154))
@example(_norm_repro(1e-170))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_hostile_requests_end_typed_or_finite(client, case):
    a, method, rhs = case
    try:
        fp = client.register(a, method=method, **RECIPES[method])
    except ReproError:
        fp = None
    if fp is not None:
        futures = [
            client.submit(fp, b, rtol=RTOL, max_iterations=MAX_ITERATIONS)
            for b in rhs
        ]
        for future, b in zip(futures, rhs):
            _check(future, b)
    probe = poisson2d(4)
    assert client.solve(probe, np.ones(probe.n_rows), rtol=RTOL).converged
