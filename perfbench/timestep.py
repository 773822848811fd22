"""``timestep``: implicit time-stepping on two ~64k-row operators.

The shape of ``examples/cfd_time_stepping.py`` at a size where the solve
dominates: each step solves one system with the same operator, a new
right-hand side, and the previous step as the initial guess.

* ``heat2d`` — heterogeneous heat conduction, natural numbering, with an
  implicit-Euler mass shift.  ``A`` and ``G`` are stencil-shaped, so the
  numpy backend takes its DIA path.
* ``poisson3d_rcm`` — 3D Poisson renumbered by reverse Cuthill–McKee, the
  way mesh-generator matrices arrive.  The renumbering breaks the
  diagonal structure, so ``A`` and ``G`` take the general (ELL) path.

Both get FSAI and FSAIE(full).  Set-up is the four builds plus one warm
solve per pair; the measured unit is ``steps`` warm-started solves per
pair.  The seed draws the forcing terms; the operators are fixed.
"""

from __future__ import annotations

import time
from typing import Any, List, Tuple

import numpy as np

from perfbench.harness import Ledger, Solve, Unit, check_setup, check_solve, fresh
from perfbench.tracing import NULL, solve_pcg
from repro.arch.address import ArrayPlacement
from repro.arch.presets import get_machine
from repro.collection.generators.fd import poisson3d, thermal_conduction2d
from repro.fsai.extended import setup_fsai, setup_fsaie_full
from repro.solvers.cg import DEFAULT_MAX_ITERATIONS, DEFAULT_RTOL
from repro.sparse.csr import CSRMatrix
from repro.sparse.ordering import permute_symmetric, reverse_cuthill_mckee

def heat2d(nx: int) -> CSRMatrix:
    return thermal_conduction2d(nx, contrast=1e2, mass_shift=0.05, seed=13)


def poisson3d_rcm(nx: int) -> CSRMatrix:
    a = poisson3d(nx)
    return permute_symmetric(a, reverse_cuthill_mckee(a))


class TimeStep:
    name = "timestep"
    setup_repeats = 3
    repeat_measure = True

    def __init__(
        self,
        heat_nx: int = 256,
        poisson_nx: int = 40,
        steps: int = 4,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> None:
        self.heat_nx = heat_nx
        self.poisson_nx = poisson_nx
        self.steps = steps
        self.max_iterations = max_iterations
        self.placement = ArrayPlacement.aligned(get_machine("skylake").line_bytes)

    def prepare(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.operators = [
            ("heat2d", heat2d(self.heat_nx)),
            ("poisson3d_rcm", poisson3d_rcm(self.poisson_nx)),
        ]
        rng = np.random.default_rng(seed)
        self.forcing = {}
        for label, a in self.operators:
            scale = a.max_norm()
            base = rng.uniform(-1.0, 1.0, a.n_rows) / scale
            drift = rng.uniform(-1.0, 1.0, a.n_rows) / scale
            self.forcing[label] = [
                base + 0.1 * step * drift for step in range(self.steps)
            ]

    def warm_up(self) -> None:
        warm = TimeStep(16, 6, 1, self.max_iterations)
        warm.prepare(self.seed, 0.0)
        warm.measure(warm.setup(warm.fresh(), NULL), NULL)

    def fresh(self) -> List[Tuple[str, CSRMatrix]]:
        return [(label, fresh(a)) for label, a in self.operators]

    def setup(self, inputs: List[Tuple[str, CSRMatrix]], rec: Any) -> dict:
        pairs = []
        for label, a in inputs:
            with rec.span("fsai.setup", method="fsai"):
                pairs.append((label, a, setup_fsai(a)))
            with rec.span("fsai.setup", method="fsaie_full"):
                pairs.append((label, a, setup_fsaie_full(a, self.placement)))
        for _, _, setup in pairs:
            rec.count("fsai.g_nnz", setup.g.nnz)
        warm = [self._solve(rec, label, a, setup, self.forcing[label][0], None, "warm", 0)
                for label, a, setup in pairs]
        return {"pairs": pairs, "warm": warm}

    def check_setup(self, state: dict, ledger: Ledger) -> None:
        for label, _, setup in state["pairs"]:
            check_setup(ledger, f"{label} {setup.method}", setup)
        for solve in state["warm"]:
            check_solve(ledger, solve)

    def _solve(self, rec, label, a, setup, rhs, x0, step, op) -> Solve:
        try:
            result = solve_pcg(
                rec, setup.method, a, rhs,
                preconditioner=setup.application, x0=x0,
                rtol=DEFAULT_RTOL, max_iterations=self.max_iterations,
                record_history=False,
            )
            error = None
        except Exception as exc:  # counted as a failed operation
            result, error = None, exc
        return Solve(
            what=f"{label} {setup.method} step {step}", a=a, b=rhs,
            rtol=DEFAULT_RTOL, op=op, result=result, error=error,
            method=setup.method,
            app=setup.application,
        )

    def measure(self, state: dict, rec: Any) -> Unit:
        """``steps`` time steps; each advances every pair by one solve."""
        unit = Unit()
        iterates: List[Any] = [None] * len(state["pairs"])
        for step in range(self.steps):
            start = time.perf_counter()
            for p, (label, a, setup) in enumerate(state["pairs"]):
                u = iterates[p]
                forcing = self.forcing[label][step]
                rhs = forcing if u is None else forcing + 0.5 * u / (step + 1.0)
                solve = self._solve(rec, label, a, setup, rhs, u, step, step)
                unit.solves.append(solve)
                iterates[p] = None if solve.result is None else solve.result.x
            unit.latencies.append(time.perf_counter() - start)
        return unit

    def close(self, state: Any) -> None:
        pass

    def layer_metrics(self, rec: Any, state: Any, unit: Unit) -> dict:
        return {}
