"""Shared-memory operator store: publish CSR payloads once, attach anywhere.

The multi-process pool (:mod:`repro.serve.pool`) runs one dispatcher per
worker process, but the operators it serves must not be duplicated per
worker: that is the memory-footprint-vs-parallelism trade the paper
optimizes at cache-line granularity, replayed at process granularity.
This module keeps exactly one copy of each registered matrix in a
``multiprocessing.shared_memory`` segment and hands workers **zero-copy**
``np.ndarray`` views over it.  Built FSAI factors are not stored here:
each worker builds its own shard's, and the pool ships them to the parent
over its result queue (see :mod:`repro.serve.pool`).

Segment layout (one segment per matrix, all offsets 8-byte aligned
because every field is 8 bytes wide)::

    indptr  int64[n_rows + 1]
    indices int64[nnz]
    data    float64[nnz]

Naming/cleanup contract:

* Segment names are ``<prefix>-<fp12>``, where ``<prefix>`` is unique per
  store instance (``rs`` + 6 random hex chars) and ``<fp12>`` is the
  first 12 hex characters of the matrix fingerprint.  Names stay well
  under the 31-character POSIX portability limit.
* A published operator stays published until the store closes.  The
  creating process owns every unlink: workers only ever attach and
  ``close()``, and the parent unlinks each segment in
  :meth:`SharedOperatorStore.close`, so a SIGKILLed worker can never
  leak one.
"""

from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro import trace
from repro.sparse.csr import CSRMatrix

__all__ = [
    "AttachedOperator",
    "SharedOperatorSpec",
    "SharedOperatorStore",
]

_ITEM = 8  # bytes per element: int64 indptr/indices, float64 data


def _segment_size(n_rows: int, nnz: int) -> int:
    return _ITEM * (n_rows + 1 + 2 * nnz)


def _views(
    buf: memoryview, n_rows: int, nnz: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, data) ndarray views over a segment buffer."""
    o_indices = _ITEM * (n_rows + 1)
    o_data = o_indices + _ITEM * nnz
    indptr = np.ndarray((n_rows + 1,), dtype=np.int64, buffer=buf)
    indices = np.ndarray((nnz,), dtype=np.int64, buffer=buf, offset=o_indices)
    data = np.ndarray((nnz,), dtype=np.float64, buffer=buf, offset=o_data)
    return indptr, indices, data


def _pack(matrix: CSRMatrix, shm: shared_memory.SharedMemory) -> None:
    indptr, indices, data = _views(shm.buf, matrix.n_rows, matrix.nnz)
    np.copyto(indptr, matrix.indptr)
    np.copyto(indices, matrix.indices)
    np.copyto(data, matrix.data)


def _matrix_view(
    buf: memoryview, n_rows: int, n_cols: int, nnz: int, fingerprint: str
) -> CSRMatrix:
    """Zero-copy :class:`CSRMatrix` over a segment buffer.

    ``_validated=True`` skips structure validation (the publisher already
    held a valid matrix) and the fingerprint slot is pre-seeded so the
    attach side never re-hashes content it identified by fingerprint in
    the first place.
    """
    indptr, indices, data = _views(buf, n_rows, nnz)
    matrix = CSRMatrix(n_rows, n_cols, indptr, indices, data, _validated=True)
    matrix._fingerprint = fingerprint
    return matrix


@dataclass(frozen=True)
class SharedOperatorSpec:
    """Manifest entry for one published operator (picklable, worker-bound)."""

    fingerprint: str
    segment: str
    n_rows: int
    n_cols: int
    nnz: int
    method: str
    config: Dict[str, Any] = field(default_factory=dict)


class AttachedOperator:
    """Worker-side attachment: zero-copy entry over a published segment."""

    def __init__(self, spec: SharedOperatorSpec) -> None:
        self.spec = spec
        self._shm: Optional[shared_memory.SharedMemory] = (
            shared_memory.SharedMemory(name=spec.segment)
        )
        self.matrix: Optional[CSRMatrix] = _matrix_view(
            self._shm.buf, spec.n_rows, spec.n_cols, spec.nnz,
            spec.fingerprint,
        )

    def close(self) -> None:
        """Drop the views and unmap (never unlinks — the parent owns that).

        ``SharedMemory.close`` raises :class:`BufferError` while ndarray
        views over its buffer are alive; references are dropped first and
        the close is best-effort because other objects (a cached setup's
        kernels, a batch in flight) may still legitimately hold views.
        """
        self.matrix = None
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:
                pass  # views still referenced elsewhere; unmap at exit
            self._shm = None


class SharedOperatorStore:
    """Parent-side manifest of published operator segments.

    Thread-safe; the pool's client threads all touch it.  ``publish`` is
    exactly-once per fingerprint: concurrent publishes of the same matrix
    return the same spec, and the segment is written once.
    """

    def __init__(self, prefix: Optional[str] = None) -> None:
        self.prefix = prefix if prefix else f"rs{secrets.token_hex(3)}"
        self._lock = threading.Lock()
        self._specs: Dict[str, SharedOperatorSpec] = {}
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self.published = 0

    def publish(
        self,
        matrix: CSRMatrix,
        *,
        method: str = "fsai",
        config: Optional[Dict[str, Any]] = None,
    ) -> SharedOperatorSpec:
        """Copy ``matrix`` into a segment once; republish returns the spec."""
        fingerprint = matrix.fingerprint()
        with self._lock:
            existing = self._specs.get(fingerprint)
            if existing is not None:
                return existing
            name = f"{self.prefix}-{fingerprint[:12]}"
            shm = shared_memory.SharedMemory(
                name=name,
                create=True,
                size=_segment_size(matrix.n_rows, matrix.nnz),
            )
            _pack(matrix, shm)
            spec = SharedOperatorSpec(
                fingerprint=fingerprint,
                segment=name,
                n_rows=matrix.n_rows,
                n_cols=matrix.n_cols,
                nnz=matrix.nnz,
                method=method,
                config=dict(config or {}),
            )
            self._specs[fingerprint] = spec
            self._segments[fingerprint] = shm
            self.published += 1
            trace.add_counter("serve.shm_publish")
            return spec

    def spec(self, fingerprint: str) -> Optional[SharedOperatorSpec]:
        with self._lock:
            return self._specs.get(fingerprint)

    def __len__(self) -> int:
        with self._lock:
            return len(self._specs)

    def close(self) -> None:
        """Unlink every segment this store published."""
        with self._lock:
            segments = list(self._segments.values())
            self._specs.clear()
            self._segments.clear()
        for shm in segments:
            shm.close()
            shm.unlink()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "published": self.published,
                "live_segments": len(self._segments),
            }

    def __repr__(self) -> str:
        return (
            f"SharedOperatorStore(prefix={self.prefix!r}, "
            f"operators={len(self._specs)})"
        )
