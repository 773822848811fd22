"""A served request's answer does not depend on the batch it lands in.

The dispatcher stacks whichever same-operator requests share a batching
window into one ``pcg_multi`` block, so the same right-hand side can be
solved alone, in a pair or among a dozen others.  Each row of a blocked
product equals the single-vector product of that row and each row's dots
reduce over that row alone, so the answer must be byte-identical however
the block was cut.  The operators are the ``serve`` benchmark's eight
quick-slice cases with their FSAIE(full) preconditioners.
"""

import numpy as np
import pytest

from repro.arch.address import ArrayPlacement
from repro.arch.presets import get_machine
from repro.collection.suite import get_case
from repro.fsai.cache import PreconditionerCache, cached_setup
from repro.solvers.cg import pcg_multi

SERVE_CASES = (5, 12, 24, 28, 37, 46, 54, 59)
WIDTH = 7


@pytest.mark.parametrize("case_id", SERVE_CASES)
def test_answer_independent_of_batch_width(case_id):
    a = get_case(case_id).build()
    placement = ArrayPlacement.aligned(get_machine("skylake").line_bytes)
    app = cached_setup(
        a, method="fsaie_full", cache=PreconditionerCache(), placement=placement
    ).application
    rng = np.random.default_rng(case_id)
    block = rng.uniform(-1.0, 1.0, (WIDTH, a.n_rows)) / a.max_norm()
    full = pcg_multi(a, block, preconditioner=app, record_history=False)
    assert full.converged
    for width in (1, 2, 4):
        part = pcg_multi(
            a, block[:width], preconditioner=app, record_history=False
        )
        for j in range(width):
            assert part.columns[j].iterations == full.columns[j].iterations
            assert part.x[j].tobytes() == full.x[j].tobytes(), (width, j)
