"""Pattern → set-up on hostile matrices: the numpy and reference backends agree.

Hypothesis draws the matrices that stress the set-up: diagonally
dominant SPD ones, indefinite ones (a weak positive diagonal, or some
negative diagonal entries), singular graph Laplacians, symmetric
scalings ``D A D`` with ``D`` across up to 1e±12, an optional dense row
and column, ``n`` from 1 to 40, and an optional NaN or infinite entry.
Each goes through :func:`~repro.fsai.extended.setup_fsai`,
:func:`~repro.fsai.extended.setup_fsaie_sp` and
:func:`~repro.fsai.extended.setup_fsaie_full` on both kernel backends,
and each outcome is one of two things:

* equal, finite ``G`` bytes on both backends, with the base pattern
  inside the final one, and — on SPD draws — ``diag(G A Gᵀ)`` within
  1e-10 of 1;
* the same typed :mod:`repro.errors` exception on both backends.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.address import ArrayPlacement
from repro.errors import ReproError
from repro.fsai.extended import setup_fsai, setup_fsaie_full, setup_fsaie_sp
from repro.sparse.construct import csr_from_dense
from repro.sparse.csr import CSRMatrix

PLACEMENT = ArrayPlacement.aligned(64)

SETUPS = {
    "fsai": lambda a, backend: setup_fsai(a, setup_backend=backend),
    "fsaie_sp": lambda a, backend: setup_fsaie_sp(
        a, PLACEMENT, filter_value=0.01, setup_backend=backend
    ),
    "fsaie_full": lambda a, backend: setup_fsaie_full(
        a, PLACEMENT, filter_value=0.01, setup_backend=backend
    ),
}


def _dense(rng, n, kind, dense_row):
    """A symmetric ``kind`` matrix; ``dense_row`` couples to every row."""
    off = np.tril(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2), -1)
    if dense_row is not None:
        off[dense_row, :dense_row] = rng.standard_normal(dense_row)
        off[dense_row + 1:, dense_row] = rng.standard_normal(n - dense_row - 1)
    off += off.T
    if kind == "singular":  # graph Laplacian: zero row sums
        off = -np.abs(off)
        return off - np.diag(off.sum(axis=1))
    if kind == "spd":  # strictly diagonally dominant
        return off + np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.1, 1.0, n))
    diag = rng.uniform(0.05, 1.0, n)  # indefinite: too weak a diagonal
    diag[rng.random(n) < 0.1] *= -1.0
    return off + np.diag(diag)


@st.composite
def setup_cases(draw):
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["spd", "indefinite", "singular"]))
    spread = draw(st.sampled_from([0.0, 3.0, 6.0, 12.0]))  # D across 10^±spread
    dense_row = draw(st.none() | st.integers(0, n - 1))
    poison = draw(st.sampled_from([None] * 9 + [np.nan, np.inf, -np.inf]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = _dense(rng, n, kind, dense_row)
    scale = 10.0 ** rng.uniform(-spread, spread, n)
    a = csr_from_dense(scale[:, None] * dense * scale[None, :])
    if poison is not None and a.nnz:  # one stored entry
        data = a.data.copy()
        data[rng.integers(a.nnz)] = poison
        a = CSRMatrix(n, n, a.indptr, a.indices, data)
    return a, kind == "spd" and poison is None


def _outcome(method, a, backend):
    try:
        return SETUPS[method](a, backend)
    except ReproError as exc:
        return exc


def _assert_twins(a, spd):
    for method in SETUPS:
        got = _outcome(method, a, "numpy")
        ref = _outcome(method, a, "reference")
        if isinstance(ref, ReproError):
            assert type(got) is type(ref), (method, got, ref)
            assert str(got) == str(ref)
            continue
        assert not isinstance(got, ReproError), (method, got)
        assert np.isfinite(ref.g.data).all(), method
        assert got.g.data.tobytes() == ref.g.data.tobytes(), method
        assert got.g.pattern == ref.g.pattern, method
        assert ref.base_pattern.is_subset_of(ref.final_pattern), method
        if spd:
            g = ref.g.to_dense()
            unit = np.einsum("ij,jk,ik->i", g, a.to_dense(), g)
            np.testing.assert_allclose(unit, 1.0, rtol=0, atol=1e-10)


def _scaled_laplacian(n):
    """A shifted 1-D Laplacian under ``D`` across 1e±12 (an SPD draw)."""
    dense = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1) + 0.01 * np.eye(n)
    scale = 10.0 ** np.linspace(-12, 12, n)
    return csr_from_dense(scale[:, None] * dense * scale[None, :]), True


@given(setup_cases())
@example(_scaled_laplacian(1))
@example(_scaled_laplacian(40))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_setups_agree_across_backends(case):
    _assert_twins(*case)
