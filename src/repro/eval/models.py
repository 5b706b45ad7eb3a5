"""The three processor models of the evaluation (paper, section 5).

* ``SS(64x4)`` — one conventional 4-way superscalar, 64-entry ROB.
* ``SS(128x8)`` — one conventional 8-way superscalar, 128-entry ROB.
* ``CMP(2x64x4)`` — the slipstream processor: two SS(64x4) cores.

All three use the same trace predictor for control-flow prediction, so
comparisons are direct.  Runs are cached at two levels, keyed by
:class:`repro.eval.jobs.JobKey`:

* an in-process dict (Figure 6, Figure 8 and Table 3 share the same
  underlying simulations within one report);
* the persistent :class:`repro.eval.jobs.DiskCache`, so re-running the
  artifact suite performs zero simulations until the code or the
  requested configuration changes.  Set ``REPRO_EVAL_DISK_CACHE=0`` (or
  call :func:`configure_disk_cache`) to opt out.

Caller-supplied :class:`SlipstreamConfig` objects are cached like any
other run: their stable :meth:`~SlipstreamConfig.fingerprint` is part of
the job key.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.ceiling import CeilingReport
from repro.analysis.ineffectual import CrossCheckResult
from repro.core.slipstream import SlipstreamConfig, SlipstreamResult
from repro.eval.jobs import (
    MISS,
    DiskCache,
    JobKey,
    JobSpec,
    baseline_spec,
    big_core_spec,
    count_spec,
    simulate,
    slipstream_spec,
    static_spec,
)
from repro.uarch.core import CoreRunResult

_CACHE: Dict[JobKey, object] = {}

#: Lazily-created default disk cache; ``False`` means "disabled".
_DISK: Optional[DiskCache] = None
_DISK_ENABLED: Optional[bool] = None


def clear_cache() -> None:
    """Drop the in-process cache (the disk cache is left alone)."""
    _CACHE.clear()


def configure_disk_cache(enabled: bool = True,
                         cache_dir: Optional[str] = None) -> None:
    """Enable/disable or repoint the persistent cache for this process."""
    global _DISK, _DISK_ENABLED
    _DISK_ENABLED = enabled
    _DISK = DiskCache(cache_dir) if enabled else None


def disk_cache() -> Optional[DiskCache]:
    """The active persistent cache, or None when disabled."""
    global _DISK, _DISK_ENABLED
    if _DISK_ENABLED is None:
        _DISK_ENABLED = os.environ.get("REPRO_EVAL_DISK_CACHE", "1") != "0"
        _DISK = DiskCache() if _DISK_ENABLED else None
    return _DISK


def run_cached(spec: JobSpec):
    """Memory cache → disk cache → simulate, storing at both levels."""
    key = spec.key
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    disk = disk_cache()
    if disk is not None:
        hit = disk.load(key)
        if hit is not MISS:
            _CACHE[key] = hit
            return hit
    result = simulate(spec)
    _CACHE[key] = result
    if disk is not None:
        disk.store(key, result)
    return result


def run_instruction_count(benchmark: str, scale: int = 1) -> int:
    """Dynamic instruction count of one benchmark (Table 1)."""
    return run_cached(count_spec(benchmark, scale))  # type: ignore[return-value]


def run_baseline(benchmark: str, scale: int = 1) -> CoreRunResult:
    """SS(64x4): the base model."""
    return run_cached(baseline_spec(benchmark, scale))  # type: ignore[return-value]


def run_big_core(benchmark: str, scale: int = 1) -> CoreRunResult:
    """SS(128x8): double the window and width."""
    return run_cached(big_core_spec(benchmark, scale))  # type: ignore[return-value]


def run_slipstream_model(
    benchmark: str,
    scale: int = 1,
    removal_triggers: Tuple[str, ...] = ("BR", "WW", "SV"),
    config: Optional[SlipstreamConfig] = None,
) -> SlipstreamResult:
    """CMP(2x64x4): the slipstream processor.

    ``removal_triggers=("BR",)`` reproduces the branch-only removal
    variant of Figure 8 (bottom).  A caller-supplied ``config`` takes
    precedence over ``removal_triggers`` and is cached by its
    fingerprint.
    """
    spec = slipstream_spec(benchmark, scale, removal_triggers, config)
    return run_cached(spec)  # type: ignore[return-value]


def run_static(
    benchmark: str, scale: int = 1
) -> Tuple[CrossCheckResult, CeilingReport]:
    """Static analysis of one benchmark: the static/dynamic
    ineffectuality cross-check (static write classification vs
    IR-detector verdicts) and the static ineffectuality ceiling
    (abstract interpretation weighted by an execution profile)."""
    return run_cached(static_spec(benchmark, scale))  # type: ignore[return-value]


@dataclass
class ModelRuns:
    """All three models on one benchmark."""

    benchmark: str
    base: CoreRunResult
    big: CoreRunResult
    slip: SlipstreamResult

    @property
    def slip_gain(self) -> float:
        """% IPC improvement of CMP(2x64x4) over SS(64x4) (Figure 6)."""
        return 100.0 * (self.slip.ipc / self.base.ipc - 1.0)

    @property
    def big_gain(self) -> float:
        """% IPC improvement of SS(128x8) over SS(64x4) (Figure 7)."""
        return 100.0 * (self.big.ipc / self.base.ipc - 1.0)


def run_all_models(benchmark: str, scale: int = 1) -> ModelRuns:
    return ModelRuns(
        benchmark=benchmark,
        base=run_baseline(benchmark, scale),
        big=run_big_core(benchmark, scale),
        slip=run_slipstream_model(benchmark, scale),
    )
