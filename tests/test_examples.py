"""Helpers of the example scripts under ``examples/``."""

import importlib.util
from pathlib import Path

import pytest

_EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def cfd():
    return _load("cfd_time_stepping")


class TestCfdRepayment:
    def test_repaid_after_whole_steps(self, cfd):
        assert cfd.repayment(1.0, 0.3) == "is repaid after 4 time steps"

    def test_never_repaid_when_solve_is_not_faster(self, cfd):
        for saved in (0.0, -2e-4):
            assert cfd.repayment(3e-4, saved).startswith("is never repaid")

    def test_no_overhead(self, cfd):
        assert cfd.repayment(0.0, -1.0) == "needs no repaying"
        assert cfd.repayment(-1e-3, 1.0) == "needs no repaying"
