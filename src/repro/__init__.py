"""repro — reproduction of *Cache-aware Sparse Patterns for the Factorized
Sparse Approximate Inverse Preconditioner* (Laut, Borrell, Casas — HPDC 2021).

The package is organised as a set of substrates plus the paper's core
contribution:

``repro.sparse``
    From-scratch sparse linear algebra (COO/CSR, patterns, SpMV).
``repro.arch``
    Machine models (Skylake / POWER9 / A64FX) and the virtual-address /
    cache-line alignment model of §4.1.
``repro.cachesim``
    Set-associative LRU cache simulator replaying SpMV access streams.
``repro.solvers``
    CG / PCG with instrumentation, dense Cholesky, local iterative solves.
``repro.fsai``
    FSAI, cache-friendly fill-in, precalculation filtering, FSAIE(sp)/(full).
``repro.collection``
    Synthetic 72-matrix mirror of the paper's SuiteSparse test set.
``repro.perf``
    Roofline cost model and performance metrics.
``repro.experiments``
    Campaign runner and Table 1-5 / Figure 1-7 regeneration.

Quickstart
----------
>>> import numpy as np
>>> from repro.arch import SKYLAKE, ArrayPlacement
>>> from repro.collection import poisson2d
>>> from repro.fsai import setup_fsaie_full
>>> from repro.solvers import pcg
>>> A = poisson2d(32)
>>> placement = ArrayPlacement.aligned(SKYLAKE.line_bytes)
>>> setup = setup_fsaie_full(A, placement, filter_value=0.01)
>>> result = pcg(A, np.ones(A.n_rows), preconditioner=setup.application)
>>> result.converged
True
"""

from repro import errors
from repro.version import __version__

__all__ = ["errors", "__version__"]
