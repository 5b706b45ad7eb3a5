"""Microarchitecture configuration (paper, Table 2)."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.fingerprint import check_lower_bounds
from repro.fingerprint import fingerprint as _fingerprint


@dataclass(frozen=True)
class CacheConfig:
    """Set-associative cache geometry and miss penalty."""

    size_bytes: int
    assoc: int
    line_bytes: int
    miss_penalty: int

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError("cache size must be a multiple of assoc * line size")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


#: Table 2: instruction cache 64kB/4-way/LRU, 16-instruction (64B) lines,
#: 12-cycle miss penalty.
ICACHE_DEFAULT = CacheConfig(size_bytes=64 * 1024, assoc=4, line_bytes=64, miss_penalty=12)

#: Table 2: data cache 64kB/4-way/LRU, 64B lines, 14-cycle miss penalty.
DCACHE_DEFAULT = CacheConfig(size_bytes=64 * 1024, assoc=4, line_bytes=64, miss_penalty=14)


#: (field, least valid value) of every bounded :class:`CoreConfig` field.
_CORE_LOWER_BOUNDS = (
    ("fetch_width", 1),
    ("dispatch_width", 1),
    ("issue_width", 1),
    ("retire_width", 1),
    ("rob_size", 1),
    ("frontend_depth", 1),
    ("redirect_penalty", 0),
)


@dataclass(frozen=True)
class CoreConfig:
    """One superscalar processing element.

    Defaults model the paper's base core: 4-way dispatch/issue/retire,
    64-entry ROB, fetch of up to a full 16-instruction cache block per
    cycle past multiple not-taken branches (2-way interleaved I-cache).
    """

    name: str = "SS(64x4)"
    fetch_width: int = 16
    dispatch_width: int = 4
    issue_width: int = 4
    retire_width: int = 4
    rob_size: int = 64
    #: Front-end pipeline depth: cycles from fetch to dispatch.  Also the
    #: post-redirect refill component of the branch misprediction penalty.
    frontend_depth: int = 4
    #: Extra redirect bubble beyond resolving the branch and refilling
    #: the front end (decode/rename of the redirected stream).
    redirect_penalty: int = 1
    icache: CacheConfig = ICACHE_DEFAULT
    dcache: CacheConfig = DCACHE_DEFAULT

    def __post_init__(self) -> None:
        """Reject an out-of-range field with one
        :class:`~repro.fingerprint.ConfigError`."""
        check_lower_bounds(self, _CORE_LOWER_BOUNDS)

    def fingerprint(self) -> str:
        """Stable content hash, used in experiment-cache keys."""
        return _fingerprint(self)

    def scaled(self, name: str, rob_size: int, width: int) -> "CoreConfig":
        """Derive a core with a different window/width (e.g. SS(128x8))."""
        return replace(
            self,
            name=name,
            rob_size=rob_size,
            dispatch_width=width,
            issue_width=width,
            retire_width=width,
        )


#: The paper's base model: one conventional 4-way, 64-entry-ROB core.
SS_64x4 = CoreConfig()

#: The paper's big-core comparison: 8-way, 128-entry ROB.
SS_128x8 = SS_64x4.scaled("SS(128x8)", rob_size=128, width=8)
