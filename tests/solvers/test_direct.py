"""Unit tests for repro.solvers.direct."""

import numpy as np
import pytest

from repro.errors import NotSPDError, ShapeError
from repro.solvers.direct import solve_spd
from tests.conftest import random_spd_dense


class TestSolveSPD:
    def test_solves(self, rng):
        a = random_spd_dense(9, seed=4)
        b = rng.standard_normal(9)
        assert np.allclose(a @ solve_spd(a, b), b)

    def test_empty(self):
        assert solve_spd(np.zeros((0, 0)), np.zeros(0)).shape == (0,)

    def test_indefinite_raises(self):
        with pytest.raises(NotSPDError):
            solve_spd(np.diag([1.0, -2.0]), np.ones(2))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            solve_spd(np.eye(3), np.ones(4))
