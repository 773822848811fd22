"""``repro.kernels`` — pluggable backends for the solve-side hot paths.

The PCG loop spends its time in three memory-bound primitives — the SpMV
with ``A``, the fused FSAI application ``G^T (G r)``, and the vector
updates — exactly the kernels the paper's §2 analysis identifies.  This
package routes all of them through a backend registry:

>>> from repro.kernels import get_backend
>>> backend = get_backend()          # $REPRO_KERNEL_BACKEND or "numpy"
>>> y = backend.spmv(a, x, out=y, scratch=ws)

Shipped backends:

``numpy`` (default)
    Cached DIA/HYB views for stencils, row-length-bucketed ELL for
    every other matrix.
``numba``
    Parallel ``prange`` row loops, auto-detected; silently resolves to
    ``numpy`` when numba is not installed.
``reference``
    The seed's allocating ``np.bincount`` formulation, kept as the
    benchmark/property-test oracle.

See ``docs/kernels.md`` for the workspace contract and selection rules.
"""

from repro.kernels import numba_backend
from repro.kernels.base import KernelBackend, KernelInputWarning
from repro.kernels.numpy_backend import NumpyBackend
from repro.kernels.reference import ReferenceBackend
from repro.kernels.registry import (
    DEFAULT_BACKEND,
    ENV_VAR,
    available_backends,
    get_backend,
    register_backend,
    use_backend,
)

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "KernelBackend",
    "KernelInputWarning",
    "NumpyBackend",
    "ReferenceBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "use_backend",
]

register_backend("reference", ReferenceBackend)
register_backend("numpy", NumpyBackend)
register_backend("numba", numba_backend.make_backend)
