"""Operator registry: fingerprint-keyed CSR store shared across requests.

Requests reference operators by content fingerprint
(:meth:`repro.sparse.csr.CSRMatrix.fingerprint`), so a serving client
ships the matrix payload **once** and every later request is a ~64-byte
key — the amortisation the paper's economics depend on.  The registry
also pins each operator's preconditioner recipe (setup method + kwargs)
at registration time, so all requests against one operator share a
single cache entry in :class:`repro.fsai.cache.PreconditionerCache`.

Unlike the preconditioner cache, the registry is **not** an LRU: it
holds raw CSR payloads (cheap relative to built setups), and dropping a
registered operator under a client still sending its fingerprint would
turn a capacity decision into request failures.  A registered operator
stays registered for the registry's lifetime.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import UnknownOperatorError
from repro.sparse.csr import CSRMatrix
from repro.sparse.validate import require_spd_screen

__all__ = ["OperatorEntry", "OperatorRegistry"]


@dataclass(frozen=True)
class OperatorEntry:
    """One registered operator plus its pinned preconditioner recipe."""

    matrix: CSRMatrix
    method: str
    config: Dict[str, Any] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.matrix.n_rows


class OperatorRegistry:
    """Thread-safe fingerprint -> :class:`OperatorEntry` store."""

    def __init__(self) -> None:
        self._entries: Dict[str, OperatorEntry] = {}
        self._lock = threading.Lock()

    def register(
        self,
        matrix: CSRMatrix,
        *,
        method: str = "fsai",
        **config: Any,
    ) -> str:
        """Store ``matrix`` under its content fingerprint; returns the key.

        Re-registering an identical matrix is a no-op returning the same
        fingerprint; re-registering with a *different* recipe replaces
        the recipe (the preconditioner cache keys on method/config too,
        so previously built setups stay valid for their own keys).
        The setups' entry check runs first: a NaN or infinite entry
        raises :class:`~repro.errors.MatrixFormatError`, a non-positive
        diagonal :class:`~repro.errors.NotSPDError`, before anything is
        stored.
        """
        require_spd_screen(matrix)
        fingerprint = matrix.fingerprint()
        entry = OperatorEntry(matrix=matrix, method=method, config=dict(config))
        with self._lock:
            self._entries[fingerprint] = entry
        return fingerprint

    def resolve(self, fingerprint: str) -> OperatorEntry:
        """Look up a fingerprint; raises :class:`UnknownOperatorError`."""
        with self._lock:
            entry = self._entries.get(fingerprint)
        if entry is None:
            raise UnknownOperatorError(
                f"operator {fingerprint[:16]}... is not registered; "
                f"POST the CSR payload (or call register) first"
            )
        return entry

    def get(self, fingerprint: str) -> Optional[OperatorEntry]:
        with self._lock:
            return self._entries.get(fingerprint)

    def fingerprints(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: object) -> bool:
        with self._lock:
            return fingerprint in self._entries
