"""The layer ledger: charge a cProfile run's self time to the repo's layers.

Every function's self time is charged to the layer of the module that
defines it.  Builtins and stdlib functions have no layer of their own:
their self time goes to the layer of the nearest calling ``repro``
function, split by how much of it each caller accounts for.  Time with
no ``repro`` ancestor at all (the benchmark's own driver code) and time
in a ``repro`` module missing from :data:`LAYERS` is charged to
``other``, so a module left out of the map shows up as ``other.share``.

Work counts come from two places, both outside ``src/``: profile call
counts of each layer's public functions (:func:`call_count`) and the
public counters on the simulator objects after ``run()``
(:class:`CounterTap`).
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Module prefixes of each layer.  A module belongs to the layer of its
#: longest matching prefix; package ``__init__`` files are named
#: ``pkg.__init__`` so that an exact package entry never swallows the
#: package's other modules.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "build": ("repro.__init__", "repro.workloads", "repro.isa.assembler",
              "repro.analysis"),
    "arch": ("repro.arch", "repro.isa"),
    "trace": ("repro.trace",),
    "ir_predictor": ("repro.core.ir_predictor", "repro.core.pc_ir_predictor"),
    "ir_detector": ("repro.core.ir_detector", "repro.core.rdfg",
                    "repro.core.rename_table", "repro.core.removal"),
    "delay_recovery": ("repro.core.delay_buffer", "repro.core.recovery"),
    "slipstream": ("repro.core.__init__", "repro.core.slipstream",
                   "repro.core.modes", "repro.core.smt"),
    "nstream": ("repro.core.nstream",),
    "timing": ("repro.uarch",),
    "fault": ("repro.fault",),
    "eval": ("repro.eval", "repro.fingerprint"),
    "obs": ("repro.obs",),
}

OTHER = "other"
LEDGER_LAYERS: Tuple[str, ...] = tuple(LAYERS) + (OTHER,)

FuncKey = Tuple[str, int, str]


def layer_matches(module: str) -> List[Tuple[int, str]]:
    """Every (prefix length, layer) whose prefix covers ``module``."""
    return [
        (len(prefix), layer)
        for layer, prefixes in LAYERS.items()
        for prefix in prefixes
        if module == prefix or module.startswith(prefix + ".")
    ]


def layer_of(module: str) -> str:
    """The layer of a ``repro`` module (``other`` when unmapped)."""
    matches = layer_matches(module)
    return max(matches)[1] if matches else OTHER


def module_of(filename: str, package_dir: str) -> Optional[str]:
    """Dotted module name of a source file inside the ``repro`` package,
    or None for any file outside it (stdlib, builtins, the benchmark)."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix) or not filename.endswith(".py"):
        return None
    relative = filename[len(prefix):-3]
    return "repro." + relative.replace(os.sep, ".")


def func_key(fn: Callable) -> FuncKey:
    """The profile key of a Python function."""
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def call_count(stats: pstats.Stats, fn: Callable) -> int:
    """How many times the profiled run called ``fn``."""
    entry = stats.stats.get(func_key(fn))  # type: ignore[attr-defined]
    return entry[1] if entry else 0


def module_calls(stats: pstats.Stats, package_dir: str,
                 prefix: str) -> Dict[str, int]:
    """Call counts of every function in modules under ``prefix``."""
    counts: Dict[str, int] = {}
    for (filename, _line, name), entry in stats.stats.items():  # type: ignore[attr-defined]
        module = module_of(filename, package_dir)
        if module is not None and (module == prefix
                                   or module.startswith(prefix + ".")):
            counts[name] = counts.get(name, 0) + entry[1]
    return counts


def charge_layers(stats: pstats.Stats, package_dir: str) -> Dict[str, float]:
    """Self seconds per layer; the values sum to the profile's total."""
    table = stats.stats  # type: ignore[attr-defined]
    own_layer: Dict[FuncKey, Optional[str]] = {}
    for key in table:
        module = module_of(key[0], package_dir)
        own_layer[key] = None if module is None else layer_of(module)

    ancestry: Dict[FuncKey, Dict[str, float]] = {}

    def split(weights: Dict[FuncKey, float], stack: frozenset) -> Iterator[Tuple[str, float]]:
        """(layer, fraction) for time split over ``weights``' callers."""
        total = sum(weights.values())
        if total <= 0:
            count = len(weights)
            weights = {caller: 1.0 for caller in weights}
            total = float(count)
        for caller, weight in weights.items():
            layer = own_layer.get(caller)
            if layer is not None:
                yield layer, weight / total
            else:
                for sub, fraction in shares(caller, stack).items():
                    yield sub, fraction * weight / total

    def shares(key: FuncKey, stack: frozenset) -> Dict[str, float]:
        """How a non-repro function's time divides over the layers of
        its nearest repro ancestors, weighted by callers' cumulative
        time; a call cycle with no repro function in it is ``other``."""
        cached = ancestry.get(key)
        if cached is not None:
            return cached
        if key in stack or key not in table or not table[key][4]:
            return {OTHER: 1.0}
        out: Dict[str, float] = defaultdict(float)
        callers = {caller: entry[3] for caller, entry in table[key][4].items()}
        for layer, fraction in split(callers, stack | {key}):
            out[layer] += fraction
        ancestry[key] = dict(out)
        return ancestry[key]

    charged: Dict[str, float] = {layer: 0.0 for layer in LEDGER_LAYERS}
    for key, (_cc, _nc, tottime, _ct, callers) in table.items():
        if tottime <= 0:
            continue
        layer = own_layer[key]
        if layer is not None:
            charged[layer] += tottime
        elif not callers:
            charged[OTHER] += tottime
        else:
            weights = {caller: entry[2] for caller, entry in callers.items()}
            for sub, fraction in split(weights, frozenset({key})):
                charged[sub] += tottime * fraction
    return charged


def profile_total(stats: pstats.Stats) -> float:
    """Total self seconds the profile recorded."""
    return sum(entry[2] for entry in stats.stats.values())  # type: ignore[attr-defined]


class CounterTap:
    """Fold the public counters of every simulator run into totals.

    While active, the ``run`` method of each simulator class is wrapped
    so that, after the original returns, its result and the object's
    public counters (schedulers, IR-detector, delay buffer) are added
    up.  Used by the traced run only; the wrapper is one extra frame
    per simulation job, not per instruction.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, int] = defaultdict(int)
        self._restore: List[Tuple[type, Callable]] = []

    def __enter__(self) -> "CounterTap":
        from repro.core.nstream import ReplayWindowProcessor, TMRProcessor
        from repro.core.slipstream import SlipstreamProcessor
        from repro.uarch.core import SuperscalarCore

        self._wrap(SlipstreamProcessor, self._fold_slipstream)
        self._wrap(SuperscalarCore, self._fold_core)
        self._wrap(TMRProcessor, self._fold_tmr)
        self._wrap(ReplayWindowProcessor, self._fold_replay)
        return self

    def __exit__(self, *exc) -> None:
        for cls, original in reversed(self._restore):
            cls.run = original  # type: ignore[attr-defined]
        self._restore.clear()

    def _wrap(self, cls: type, fold: Callable) -> None:
        original = cls.run  # type: ignore[attr-defined]

        def run(sim):
            result = original(sim)
            fold(sim, result)
            return result

        self._restore.append((cls, original))
        cls.run = run  # type: ignore[attr-defined]

    def _fold_sched(self, sched) -> None:
        totals = self.totals
        totals["timing_instrs"] += sched.retired
        totals["memo_hit"] += sched.timing_block_hit
        totals["memo_miss"] += sched.timing_block_miss
        totals["memo_fallback"] += sched.timing_fallback

    def _fold_slipstream(self, sim, result) -> None:
        totals = self.totals
        totals["arch_instrs"] += result.a_executed + result.retired
        totals["slip_instrs"] += result.retired
        totals["trace_instrs"] += result.retired
        totals["branch_mispredicts"] += result.branch_mispredictions
        totals["a_executed"] += result.a_executed
        totals["a_removed"] += result.a_removed
        totals["ir_mispredicts"] += result.ir_mispredictions
        totals["detector_selected"] += sim.detector.selected_total
        totals["backpressure"] += sim.delay_buffer.backpressure_events
        self._fold_sched(sim.a_sched)
        self._fold_sched(sim.r_sched)

    def _fold_core(self, sim, result) -> None:
        totals = self.totals
        totals["arch_instrs"] += result.retired
        totals["trace_instrs"] += result.retired
        totals["branch_mispredicts"] += result.branch_mispredictions
        self._fold_sched(sim.scheduler)

    def _fold_tmr(self, _sim, result) -> None:
        # Every replica executes every instruction.
        self.totals["arch_instrs"] += result.retired * result.n_streams

    def _fold_replay(self, _sim, result) -> None:
        # The shadow re-executes only the replayed windows.
        self.totals["arch_instrs"] += result.retired + result.replayed_instructions
