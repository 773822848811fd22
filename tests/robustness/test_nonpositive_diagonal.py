"""A non-positive diagonal ends in one typed error at entry.

``poisson2d(8)`` with ``a_55 = -4`` is square and finite but not SPD.
The global iterations would fall back to a Jacobi row there and return a
finite, wrong ``G``; serving would accept the matrix until its first
solve.  The setups' one entry check,
:func:`repro.sparse.validate.require_spd_screen`, makes every setup and
both serving ``register``s raise :class:`~repro.errors.NotSPDError`.
"""

import pytest

from repro.arch.address import ArrayPlacement
from repro.collection.generators.fd import poisson2d
from repro.errors import NotSPDError
from repro.fsai.adaptive import setup_fspai, setup_fspai_cache_extended
from repro.fsai.extended import setup_fsaie_full, setup_fsaie_sweep
from repro.fsai.registry import available_methods, get_method
from repro.serve.client import InProcessClient
from repro.serve.pool import MultiProcessClient
from repro.sparse.csr import CSRMatrix

PLACEMENT = ArrayPlacement.aligned(64)


def indefinite() -> CSRMatrix:
    a = poisson2d(8)
    data = a.data.copy()
    data[(a.row_ids() == 5) & (a.indices == 5)] = -4.0
    return CSRMatrix(a.n_rows, a.n_cols, a.indptr, a.indices, data)


def registry_entry(name):
    spec = get_method(name)
    if spec.uses_filter:
        return lambda a: spec.builder(a, PLACEMENT)
    if name == "fsaie_random":
        return lambda a: spec.builder(a, setup_fsaie_full(poisson2d(8), PLACEMENT))
    return spec.builder


def register_multiprocess(a):
    with MultiProcessClient(1, window_seconds=0.005) as client:
        client.register(a)


ENTRY_POINTS = {
    **{name: registry_entry(name) for name in available_methods()},
    "setup_fspai": setup_fspai,
    "setup_fspai_cache_extended": lambda a: setup_fspai_cache_extended(a, PLACEMENT),
    "setup_fsaie_sweep": lambda a: setup_fsaie_sweep(
        a, PLACEMENT, ["fsaie_sp", "fsaie_full"], [0.0, 0.01]
    ),
    "InProcessClient.register": lambda a: InProcessClient().register(a),
    "MultiProcessClient.register": register_multiprocess,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_positive_diagonal_raises_not_spd(entry):
    with pytest.raises(NotSPDError, match=r"rows? .*5"):
        ENTRY_POINTS[entry](indefinite())
