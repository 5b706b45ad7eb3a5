"""The N-stream engines (TMR voting and replay windows) give the same
results on the compiled engine as on the interpreter: full
``NStreamResult`` equality fault-free on every suite workload, and
``NStreamResult`` plus ``FaultReport`` equality under single strikes,
including strikes that make a replica trap or jump to a wild PC (the
compiled engine's ``execute_one`` fallback)."""

import pytest

import repro.core.nstream as nstream
from repro.arch.compiled import ENGINE_ENV
from repro.core.nstream import ReplayWindowProcessor, TMRProcessor
from repro.fault.injector import FaultInjector, FaultSite, TransientFault
from repro.isa.assembler import assemble
from repro.workloads.suite import benchmark_suite, get_benchmark

ENGINES = ("interpreted", "compiled")

#: Fault-free geometries: (label, processor class, constructor kwargs).
CLEAN_CONFIGS = (
    ("tmr3", TMRProcessor, {"n_streams": 3}),
    ("tmr5", TMRProcessor, {"n_streams": 5}),
    ("replay", ReplayWindowProcessor, {}),
    ("replay-scrub1", ReplayWindowProcessor, {"scrub_interval": 1}),
)

#: Struck points per workload as (target_seq, bit).  The first seq of
#: each list produces the base register of the very next load, so an
#: architectural flip of bit 0 makes the struck replica's load
#: unaligned: the replica traps.  The others land early, mid-run and
#: late.
STRIKES = {
    "jpeg": ((8, 0), (49, 7), (5_000, 3), (30_000, 12)),
    "li": ((12, 0), (100_000, 3), (200_000, 12)),
}

#: A call/return loop.  ``jal`` (seq 2 + 5k) writes the return address
#: that ``jalr`` reads two retirements later, so a strike on it sends
#: the struck stream to a wild PC: misaligned for bit 1, past the text
#: segment for bit 20.  No suite workload uses ``jalr``.
CALLS = """
main:
    addi r5, r0, 40
    addi r4, r0, 0
loop:
    jal  r31, body
    addi r5, r5, -1
    bne  r5, r0, loop
    out  r4
    halt
body:
    add  r4, r4, r5
    jalr r0, r31
"""


@pytest.fixture
def fallback_calls(monkeypatch):
    """Count ``execute_one`` calls made by the N-stream engines, and how
    many of them raised (a trap)."""
    counts = {"calls": 0, "raised": 0}
    real = nstream.execute_one

    def counting(*args, **kwargs):
        counts["calls"] += 1
        try:
            return real(*args, **kwargs)
        except Exception:
            counts["raised"] += 1
            raise

    monkeypatch.setattr(nstream, "execute_one", counting)
    return counts


def pass_through(stream, dyn, state, compared):
    """A hook that alters nothing and declares no ``quiet_until``: the
    machine offers it every retirement, so a fault-free run with it
    goes through the lockstep loop (a hook-less run is quiet to the end
    and never enters it)."""
    return dyn


def _run_both(cls, program, fault=None, **kwargs):
    """Run ``cls`` on each engine; returns [(result, report), ...]."""
    runs = []
    for engine in ENGINES:
        injector = FaultInjector(fault) if fault is not None else None
        result = cls(program, fault_hook=injector, engine=engine,
                     **kwargs).run()
        runs.append((result, injector.report if injector else None))
    return runs


@pytest.mark.parametrize("label,cls,kwargs", CLEAN_CONFIGS,
                         ids=[c[0] for c in CLEAN_CONFIGS])
@pytest.mark.parametrize("bench", [b.name for b in benchmark_suite()])
def test_fault_free_results_identical(bench, label, cls, kwargs):
    program = get_benchmark(bench).program()
    interp, comp = (cls(program, fault_hook=pass_through, engine=engine,
                        **kwargs).run() for engine in ENGINES)
    assert comp == interp
    assert comp.detections == 0


@pytest.mark.parametrize("site", [FaultSite.R_TRANSIENT, FaultSite.R_ARCH],
                         ids=lambda s: s.value)
@pytest.mark.parametrize("cls", [TMRProcessor, ReplayWindowProcessor],
                         ids=["tmr", "replay"])
@pytest.mark.parametrize("bench", sorted(STRIKES))
def test_struck_grid_identical(bench, cls, site):
    program = get_benchmark(bench).program()
    for seq, bit in STRIKES[bench]:
        fault = TransientFault(site, target_seq=seq, bit=bit)
        (interp, interp_report), (comp, comp_report) = _run_both(
            cls, program, fault
        )
        assert comp_report.fired, (seq, bit)
        assert comp == interp, (seq, bit)
        assert comp_report == interp_report, (seq, bit)


def test_struck_replica_trap_runs_on_both_engines(fallback_calls):
    """Bit 0 of a load's base register: the struck TMR replica traps
    (every interpreter step goes through ``execute_one``, so the trap
    shows up as a raise), is outvoted and repaired, on both engines."""
    program = get_benchmark("jpeg").program()
    seq, bit = STRIKES["jpeg"][0]
    fault = TransientFault(FaultSite.R_ARCH, target_seq=seq, bit=bit)
    interp = TMRProcessor(program, fault_hook=FaultInjector(fault),
                          engine="interpreted").run()
    assert fallback_calls["raised"] == 1
    assert interp.detections == 1
    comp = TMRProcessor(program, fault_hook=FaultInjector(fault),
                        engine="compiled").run()
    assert comp == interp


@pytest.mark.parametrize("seq", [2, 72], ids=["scrubbed", "unscrubbed"])
@pytest.mark.parametrize("bit", [1, 20], ids=["misaligned", "past-text"])
@pytest.mark.parametrize("site", [FaultSite.R_TRANSIENT, FaultSite.R_ARCH],
                         ids=lambda s: s.value)
def test_wild_pc_strike_uses_the_fallback(fallback_calls, site, bit, seq):
    """A struck return address sends the replay primary to a PC with no
    compiled closure; the fallback raises the interpreter's error, the
    window traps and is replayed, and both engines agree."""
    program = assemble(CALLS, name="nstream-calls")
    fault = TransientFault(site, target_seq=seq, bit=bit)
    comp_injector = FaultInjector(fault)
    comp = ReplayWindowProcessor(program, fault_hook=comp_injector,
                                 engine="compiled").run()
    # The compiled run reached execute_one only at the wild PC, once.
    assert fallback_calls["calls"] == fallback_calls["raised"] == 1
    interp_injector = FaultInjector(fault)
    interp = ReplayWindowProcessor(program, fault_hook=interp_injector,
                                   engine="interpreted").run()
    assert comp == interp
    assert comp_injector.report == interp_injector.report
    assert comp.detections == 1


class TestEngineSelection:
    @pytest.mark.parametrize("cls", [TMRProcessor, ReplayWindowProcessor])
    def test_env_opt_out_selects_the_interpreter(self, monkeypatch,
                                                 fallback_calls, cls):
        """``REPRO_COMPILED=0`` runs every step through ``execute_one``;
        the default runs none through it on a clean program.  The
        pass-through hook keeps both runs in the lockstep loop."""
        program = get_benchmark("jpeg").program()
        monkeypatch.setenv(ENGINE_ENV, "0")
        processor = cls(program, fault_hook=pass_through)
        assert processor.engine == "interpreted"
        result = processor.run()
        assert fallback_calls["calls"] >= result.retired
        monkeypatch.delenv(ENGINE_ENV)
        fallback_calls.update(calls=0, raised=0)
        processor = cls(program, fault_hook=pass_through)
        assert processor.engine == "compiled"
        assert processor.run() == result
        assert fallback_calls["calls"] == 0

    @pytest.mark.parametrize("cls", [TMRProcessor, ReplayWindowProcessor])
    def test_unknown_engine_rejected(self, cls):
        with pytest.raises(ValueError, match="unknown execution engine"):
            cls(assemble(CALLS, name="nstream-calls"), engine="jit")
