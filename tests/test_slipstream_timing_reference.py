"""Differential tests: the fused slipstream timing loops against the reference.

:class:`repro.core.slipstream.SlipstreamProcessor` schedules both
streams through hand-fused loops;
:class:`tests.reference_slipstream_timing.ReferenceSlipstreamProcessor`
schedules the same co-simulation through ``Cache.probe`` and
``OoOScheduler.add_args`` per instruction.  Every run must give an
equal :class:`SlipstreamResult`, equal A- and R-scheduler snapshots,
and equal counters and LRU contents in all four caches: on every suite
workload, on random looped programs, and under fault injection (where
the fault hook sees every step of both streams), each with and without
the decorrelated layout.
"""

import pytest
from hypothesis import given, settings

from repro.core.modes import decorrelated_config
from repro.core.slipstream import SlipstreamProcessor
from repro.fault.injector import FaultInjector, FaultSite, TransientFault
from repro.isa.assembler import assemble
from repro.workloads.suite import benchmark_suite, get_benchmark
from tests.reference_slipstream_timing import ReferenceSlipstreamProcessor
from tests.test_uarch_compiled_timing import _program_text

CACHES = ("a_icache", "a_dcache", "r_icache", "r_dcache")

#: Strike points per workload: (site, stream seq, whether the struck
#: instruction is redundantly executed).  Each strike fires on a
#: value-producing instruction and the struck run completes.  jpeg
#: removes nothing, so only li has a skipped (unvalidated) R-stream
#: instruction to strike.
STRIKES = {
    "jpeg": [
        (FaultSite.A_RESULT, 13126, True),
        (FaultSite.R_TRANSIENT, 19692, True),
        (FaultSite.R_ARCH, 26258, True),
        (FaultSite.CORRELATED, 19692, True),
    ],
    "li": [
        (FaultSite.A_RESULT, 78081, True),
        (FaultSite.R_TRANSIENT, 128004, True),
        (FaultSite.R_TRANSIENT, 128320, False),
        (FaultSite.R_ARCH, 170670, True),
        (FaultSite.CORRELATED, 117028, True),
    ],
}
STRIKE_BIT = 17


def timing_state(proc):
    """Everything the timing paths leave behind in one processor."""
    state = {
        "a_sched": proc.a_sched.snapshot(),
        "r_sched": proc.r_sched.snapshot(),
    }
    for name in CACHES:
        cache = getattr(proc, name)
        state[name] = cache.snapshot()
        state[name + ".sets"] = cache._sets
    return state


def run_both(program, config=None, fault=None):
    """Run the fused and the reference processor on ``program``;
    returns ``[(result, timing state, fault report), ...]``."""
    runs = []
    for cls in (SlipstreamProcessor, ReferenceSlipstreamProcessor):
        injector = None
        if fault is not None:
            injector = FaultInjector(
                fault, decorrelated=config is not None and config.decorrelated
            )
        proc = cls(program, config, fault_hook=injector)
        result = proc.run()
        runs.append((result, timing_state(proc),
                     injector.report if injector is not None else None))
    return runs


@pytest.mark.parametrize("name", [b.name for b in benchmark_suite()])
def test_workload_matches_reference(name):
    (fast, fast_state, _), (ref, ref_state, _) = run_both(
        get_benchmark(name).program()
    )
    assert fast == ref
    assert fast_state == ref_state


@given(_program_text())
@settings(max_examples=25, deadline=None)
def test_random_program_matches_reference(source):
    """Random programs mix redirects, cache misses, store forwarding
    and removal, so A-stream redirects, R-stream overrides, merge-port
    stalls and recoveries all meet the reference."""
    (fast, fast_state, _), (ref, ref_state, _) = run_both(
        assemble(source, name="prop")
    )
    assert fast == ref
    assert fast_state == ref_state


@pytest.mark.parametrize("decorrelated", [False, True],
                         ids=["correlated-layout", "decorrelated"])
@pytest.mark.parametrize(
    "name,site,seq,compared",
    [(name, site, seq, compared)
     for name, strikes in STRIKES.items()
     for site, seq, compared in strikes],
    ids=lambda v: v.value if isinstance(v, FaultSite) else str(v),
)
def test_struck_run_matches_reference(name, site, seq, compared, decorrelated):
    config = decorrelated_config() if decorrelated else None
    fault = TransientFault(site, target_seq=seq, bit=STRIKE_BIT)
    (fast, fast_state, fast_report), (ref, ref_state, ref_report) = run_both(
        get_benchmark(name).program(), config, fault
    )
    assert fast_report.fired
    assert fast_report.struck_compared is compared
    assert fast_report == ref_report
    assert fast == ref
    assert fast_state == ref_state
