"""Machine models.

A :class:`MachineModel` bundles the handful of architectural parameters the
reproduction needs: the cache-line size (the single input of the fill-in
algorithm, §4.1), the cache geometry (its first level is the L1 the
simulator of :mod:`repro.cachesim` replays), and sustained bandwidth /
flop-rate figures (for the roofline cost model in :mod:`repro.perf`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import ConfigurationError

__all__ = ["CacheLevelSpec", "MachineModel"]

#: Bytes per double-precision element; the paper (and this library) assume
#: 64-bit floating point values throughout.
BYTES_PER_ELEMENT = 8


def _require_power_of_two(value: int, name: str) -> None:
    if value <= 0 or (value & (value - 1)) != 0:
        raise ConfigurationError(f"{name} must be a positive power of two, got {value}")


@dataclass(frozen=True)
class CacheLevelSpec:
    """Geometry of one cache level.

    Attributes
    ----------
    name:
        Human-readable level name (``"L1"``, ``"L2"``, ...).
    size_bytes:
        Total capacity of the level.
    associativity:
        Number of ways per set.
    line_bytes:
        Cache-line size.  All levels of one machine share the line size in
        the systems the paper evaluates.
    latency_cycles:
        Approximate load-to-use latency, used only for reporting.
    """

    name: str
    size_bytes: int
    associativity: int
    line_bytes: int
    latency_cycles: int = 4

    def __post_init__(self) -> None:
        _require_power_of_two(self.line_bytes, "line_bytes")
        if self.associativity <= 0:
            raise ConfigurationError(
                f"associativity must be positive, got {self.associativity}"
            )
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line*ways = {self.line_bytes * self.associativity}"
            )

    @property
    def n_lines(self) -> int:
        """Total number of lines the level can hold."""
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        """Number of sets (``n_lines / associativity``)."""
        return self.n_lines // self.associativity

    @property
    def elements_per_line(self) -> int:
        """Double-precision elements per cache line."""
        return self.line_bytes // BYTES_PER_ELEMENT


@dataclass(frozen=True)
class MachineModel:
    """Architectural parameters of one evaluation system.

    The performance figures are *sustained* values for memory-bound sparse
    kernels, not marketing peaks — they parameterise the roofline model that
    converts simulated cache traffic into per-iteration times.
    """

    name: str
    cores: int
    frequency_ghz: float
    cache_levels: Tuple[CacheLevelSpec, ...]
    #: Sustained memory bandwidth for irregular streams, bytes/second.
    memory_bandwidth_bps: float
    #: Peak double-precision flop rate of the full node, flops/second.
    peak_flops: float
    #: Effective flop rate achievable by SpMV-like kernels (paper §7.3 notes
    #: SpMV rarely exceeds ~40 GF/s on wide-SIMD x86 nodes).
    spmv_flops: float
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.cache_levels:
            raise ConfigurationError("machine needs at least one cache level")
        line = self.cache_levels[0].line_bytes
        for lvl in self.cache_levels:
            if lvl.line_bytes != line:
                raise ConfigurationError(
                    "mixed line sizes across levels are not modelled"
                )
        if self.memory_bandwidth_bps <= 0 or self.peak_flops <= 0:
            raise ConfigurationError("bandwidth and flop rates must be positive")

    @property
    def line_bytes(self) -> int:
        """Cache-line size — the single architecture input of the fill-in."""
        return self.cache_levels[0].line_bytes

    @property
    def elements_per_line(self) -> int:
        """Double-precision elements per cache line (8 on 64 B, 32 on 256 B)."""
        return self.line_bytes // BYTES_PER_ELEMENT

    @property
    def l1(self) -> CacheLevelSpec:
        """First-level data cache."""
        return self.cache_levels[0]

    def level(self, name: str) -> CacheLevelSpec:
        """Look up a cache level by name (case-insensitive)."""
        for lvl in self.cache_levels:
            if lvl.name.lower() == name.lower():
                return lvl
        raise ConfigurationError(
            f"{self.name} has no cache level {name!r}; "
            f"levels: {[lvl.name for lvl in self.cache_levels]}"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lvls = ", ".join(
            f"{lvl.name}={lvl.size_bytes // 1024}KiB/{lvl.associativity}w"
            for lvl in self.cache_levels
        )
        return (
            f"{self.name}: {self.cores} cores @ {self.frequency_ghz} GHz, "
            f"{self.line_bytes} B lines [{lvls}]"
        )
