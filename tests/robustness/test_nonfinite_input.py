"""Non-finite input ends in one typed error at entry.

A NaN or infinite entry, on or off the diagonal, must raise
:class:`~repro.errors.MatrixFormatError` naming its position from every
FSAI setup and from serving's ``register``.  The check runs before any
arithmetic on the values, so not one numpy ``RuntimeWarning`` escapes:
warnings are errors in these tests.
"""

import re
import warnings

import numpy as np
import pytest

from repro.arch.address import ArrayPlacement
from repro.collection.generators.fd import poisson2d
from repro.errors import MatrixFormatError
from repro.fsai.adaptive import setup_fspai
from repro.fsai.extended import setup_fsai, setup_fsaie_full, setup_fsaie_sp
from repro.fsai.global_iter import setup_gsai_st
from repro.fsai.patterns import fsai_initial_pattern
from repro.serve.client import InProcessClient
from repro.sparse.csr import CSRMatrix

PLACEMENT = ArrayPlacement.aligned(64)

ENTRY_POINTS = {
    "setup_fsai": setup_fsai,
    "setup_fsaie_sp": lambda a: setup_fsaie_sp(a, PLACEMENT),
    "setup_fsaie_full": lambda a: setup_fsaie_full(a, PLACEMENT),
    "setup_fspai": setup_fspai,
    "setup_gsai_st": setup_gsai_st,
    "InProcessClient.register": lambda a: InProcessClient().register(a),
}


def poisoned(value: float, *, diagonal: bool) -> CSRMatrix:
    """poisson2d(8) with ``a_33`` (or the pair ``a_23 = a_32``) set to ``value``."""
    a = poisson2d(8)
    rows, cols = a.row_ids(), a.indices
    data = a.data.copy()
    if diagonal:
        data[(rows == 3) & (cols == 3)] = value
    else:
        data[((rows == 3) & (cols == 2)) | ((rows == 2) & (cols == 3))] = value
    return CSRMatrix(a.n_rows, a.n_cols, a.indptr, a.indices, data)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("diagonal", [True, False], ids=["diag", "offdiag"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_entry_raises_matrix_format_error(entry, diagonal, value):
    a = poisoned(value, diagonal=diagonal)
    # The first non-finite entry in storage order.
    where = "(3, 3)" if diagonal else "(2, 3)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixFormatError, match=re.escape(f"at {where}")):
            ENTRY_POINTS[entry](a)


@pytest.mark.parametrize(
    "entry",
    [
        lambda a: fsai_initial_pattern(a, threshold=0.01),
        lambda a: setup_fsai(a, threshold=0.01),
    ],
    ids=["fsai_initial_pattern", "setup_fsai"],
)
def test_thresholded_pattern_checks_values_first(entry):
    """``threshold > 0`` scales by ``sqrt(a_ii a_jj)``: Inf next to a zero
    diagonal would warn there before any typed error."""
    a = poisoned(np.inf, diagonal=True)
    a.data[(a.row_ids() == 2) & (a.indices == 2)] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixFormatError, match=re.escape("at (3, 3)")):
            entry(a)
