"""Differential tests: the flat IRDetector against the object-graph reference.

Every workload's dynamic stream (truncated) is chunked into traces and
fed to both :class:`repro.core.ir_detector.IRDetector` and
:class:`tests.reference_ir_detector.ReferenceIRDetector`; every
retired :class:`TraceAnalysis` must be equal field for field, with
every kind a :class:`RemovalKind`.
"""

from functools import lru_cache
from itertools import islice
from typing import List, Tuple

import pytest

from repro.arch.functional import FunctionalSimulator
from repro.core.ir_detector import ALL_TRIGGERS, IRDetector, TraceAnalysis
from repro.core.removal import RemovalKind
from repro.trace.selection import CompletedTrace, TraceSelector
from repro.workloads.suite import benchmark_suite, get_benchmark
from tests.reference_ir_detector import ReferenceIRDetector

#: Dynamic instructions per workload stream: over a thousand retired
#: traces with steady-state removal each, small enough that this file
#: runs in well under half a minute.
STREAM_INSTRUCTIONS = 40_000

TRIGGER_SETS = (
    tuple(sorted(ALL_TRIGGERS)),
    ("BR",),
    ("WW",),
    ("BR", "SV"),
)


@lru_cache(maxsize=None)
def traces_of(name: str) -> Tuple[CompletedTrace, ...]:
    program = get_benchmark(name).program(1)
    stream = islice(FunctionalSimulator(program).steps(), STREAM_INSTRUCTIONS)
    return tuple(TraceSelector().chunk(stream))


def analyses(detector, traces) -> List[TraceAnalysis]:
    out: List[TraceAnalysis] = []
    for trace in traces:
        out.extend(detector.feed_trace(trace))
    out.extend(detector.drain())
    return out


def assert_same_verdicts(traces, scope=8, triggers=ALL_TRIGGERS):
    fast_detector = IRDetector(scope, triggers)
    ref_detector = ReferenceIRDetector(scope, triggers)
    fast = analyses(fast_detector, traces)
    ref = analyses(ref_detector, traces)
    assert len(fast) == len(ref) == len(traces)
    for got, want in zip(fast, ref):
        assert got.trace_seq == want.trace_seq
        assert got.trace_id == want.trace_id
        assert got.pcs == want.pcs
        assert got.ir_vec == want.ir_vec, f"ir-vec of trace {want.trace_seq}"
        assert got.kinds == want.kinds, f"kinds of trace {want.trace_seq}"
        assert all(type(bit) is bool for bit in got.ir_vec)
        assert all(isinstance(kind, RemovalKind) for kind in got.kinds)
    assert fast_detector.snapshot() == ref_detector.snapshot()
    return fast


@pytest.mark.parametrize("name", [b.name for b in benchmark_suite()])
def test_default_detector_matches_reference(name):
    verdicts = assert_same_verdicts(traces_of(name))
    assert any(any(a.ir_vec) for a in verdicts)


@pytest.mark.parametrize("scope", (1, 3, 8))
@pytest.mark.parametrize("triggers", TRIGGER_SETS, ids="+".join)
@pytest.mark.parametrize("name", ("m88ksim", "vortex"))
def test_trigger_and_scope_grid_matches_reference(name, triggers, scope):
    assert_same_verdicts(traces_of(name), scope, triggers)


def test_one_detector_across_two_programs_matches_reference():
    """The per-PC operand memo is rebuilt when a PC's instruction
    changes, so a detector fed two programs still matches."""
    traces = traces_of("li")[:150] + traces_of("compress")[:150]
    assert_same_verdicts(traces, scope=3)
