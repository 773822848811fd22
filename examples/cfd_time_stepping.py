"""CFD-style time stepping: amortising the FSAIE setup cost (§7.4).

The paper notes the setup overhead of the extended preconditioners
"becomes negligible in a practical numerical simulation context since the
setup phase is performed only once while the solve phase is repeated
several times for the same matrix".  This example demonstrates exactly
that workload: an implicit time-stepper for an anisotropic
convection-diffusion problem solves one linear system per step with the
same operator and a changing right-hand side.

Run:  python examples/cfd_time_stepping.py [n_steps]
"""

import sys

import numpy as np

from repro.arch import SKYLAKE, ArrayPlacement
from repro.collection import anisotropic_poisson2d
from repro.fsai import setup_fsai, setup_fsaie_full
from repro.perf import CostModel
from repro.solvers import pcg


def main(n_steps: int = 20) -> None:
    # Anisotropic diffusion operator (boundary-layer-style CFD mesh) plus
    # an implicit-Euler mass shift.
    a = anisotropic_poisson2d(48, epsilon=2e-3, theta=0.45)
    n = a.n_rows
    print(f"operator: n={n}, nnz={a.nnz}, steps={n_steps}")

    placement = ArrayPlacement.aligned(SKYLAKE.line_bytes)
    model = CostModel(SKYLAKE, cache_scale=0.125)

    results = {}
    for name, setup in (
        ("FSAI", setup_fsai(a)),
        ("FSAIE(full)", setup_fsaie_full(a, placement, filter_value=0.01)),
    ):
        setup_time = model.setup_seconds(setup)
        solve_time = 0.0
        iters_total = 0
        # Time loop: u_{k+1} solves A u = f(u_k); RHS changes every step.
        u = np.zeros(n)
        rng = np.random.default_rng(1)
        forcing = rng.uniform(-1, 1, n) / a.max_norm()
        for step in range(n_steps):
            rhs = forcing + 0.5 * u / (step + 1.0)
            res = pcg(a, rhs, preconditioner=setup.application, x0=u)
            assert res.converged
            u = res.x
            iters_total += res.iterations
            solve_time += model.solve_seconds(a, setup, res.iterations)
        results[name] = (setup_time, solve_time, iters_total)
        print(
            f"{name:>12}: setup {setup_time:.3e}s, "
            f"{iters_total} total iters, solve {solve_time:.3e}s, "
            f"total {setup_time + solve_time:.3e}s"
        )

    # Amortisation: FSAIE(full) pays more setup but wins on the time loop.
    s0, t0, _ = results["FSAI"]
    s1, t1, _ = results["FSAIE(full)"]
    print(
        f"\nsetup overhead {100 * (s1 / s0 - 1):.0f}% "
        f"{repayment(s1 - s0, (t0 - t1) / n_steps)}; over {n_steps} steps "
        f"the extended method is "
        f"{100 * ((s0 + t0) - (s1 + t1)) / (s0 + t0):+.1f}% faster end-to-end."
    )


def repayment(extra_setup: float, saved_per_step: float) -> str:
    """How many time steps repay ``extra_setup`` seconds of set-up."""
    if extra_setup <= 0.0:
        return "needs no repaying"
    if saved_per_step <= 0.0:
        return "is never repaid (the modelled solve per step is not faster)"
    return f"is repaid after {np.ceil(extra_setup / saved_per_step):.0f} time steps"


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20)
