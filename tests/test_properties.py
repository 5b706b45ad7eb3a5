"""Property-based tests (hypothesis) on core data structures."""

from hypothesis import given, settings, strategies as st

from repro.core.delay_buffer import DelayBuffer
from repro.core.removal import RemovalKind
from repro.uarch.config import CoreConfig
from repro.uarch.scheduler import InstrTiming, OoOScheduler
from tests.reference_ir_detector import RDFGNode, connect, kill, select, try_propagate


# ----------------------------------------------------------------------
# Scheduler invariants.
# ----------------------------------------------------------------------

def _timing_strategy():
    regs = st.integers(min_value=0, max_value=63)
    return st.builds(
        InstrTiming,
        new_block=st.booleans(),
        icache_penalty=st.sampled_from([0, 0, 0, 12]),
        srcs=st.tuples(regs, regs),
        dest=st.one_of(st.none(), regs),
        latency=st.integers(min_value=1, max_value=6),
        is_load=st.booleans(),
        is_store=st.booleans(),
        mem_addr=st.one_of(st.none(), st.integers(0, 64).map(lambda a: a * 4)),
        dcache_penalty=st.sampled_from([0, 0, 14]),
        ready_override=st.one_of(st.none(), st.integers(0, 50)),
        fetch_floor=st.integers(0, 20),
        merged=st.booleans(),
    )


class TestSchedulerProperties:
    @given(st.lists(_timing_strategy(), min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_pipeline_stage_ordering(self, timings):
        """fetch <= dispatch <= issue < complete < retire, always."""
        sched = OoOScheduler(CoreConfig(name="prop"))
        first = True
        for timing in timings:
            ts = sched.add(timing._replace(new_block=timing.new_block or first))
            first = False
            assert ts.fetch <= ts.dispatch <= ts.issue < ts.complete < ts.retire

    @given(st.lists(_timing_strategy(), min_size=2, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_inorder_dispatch_and_retire(self, timings):
        sched = OoOScheduler(CoreConfig(name="prop"))
        last_dispatch = last_retire = 0
        first = True
        for timing in timings:
            ts = sched.add(timing._replace(new_block=timing.new_block or first))
            first = False
            assert ts.dispatch >= last_dispatch
            assert ts.retire >= last_retire
            last_dispatch, last_retire = ts.dispatch, ts.retire

    @given(st.lists(_timing_strategy(), min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_width_limits_hold(self, timings):
        config = CoreConfig(name="prop")
        sched = OoOScheduler(config, merge_width=2)
        dispatches = {}
        retires = {}
        first = True
        for timing in timings:
            ts = sched.add(timing._replace(new_block=timing.new_block or first))
            first = False
            dispatches[ts.dispatch] = dispatches.get(ts.dispatch, 0) + 1
            retires[ts.retire] = retires.get(ts.retire, 0) + 1
        assert max(dispatches.values()) <= config.dispatch_width
        assert max(retires.values()) <= config.retire_width

    @given(st.lists(_timing_strategy(), min_size=1, max_size=80), st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_redirect_monotonic_fetch(self, timings, redirect_at):
        """After a redirect, no later block fetches before the floor."""
        sched = OoOScheduler(CoreConfig(name="prop"))
        sched.add(timings[0]._replace(new_block=True))
        sched.redirect(redirect_at)
        floor = redirect_at + 1
        for timing in timings[1:]:
            ts = sched.add(timing)
            if timing.new_block:
                assert ts.fetch >= min(floor, ts.fetch + 1) - 1  # non-strict sanity
                assert ts.fetch >= floor or timing.new_block is False


# ----------------------------------------------------------------------
# Delay buffer invariants.
# ----------------------------------------------------------------------

class TestDelayBufferProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 32), st.integers(0, 50)),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_occupancy_never_exceeds_capacity_and_pushes_monotone(self, groups):
        buf = DelayBuffer(capacity=64)
        clock = 0
        last_push = 0
        for count, delta in groups:
            clock += delta
            push = buf.push(count, clock)
            assert push >= clock
            assert buf.occupancy <= buf.capacity
            buf.mark_popped(push + 5)
            last_push = push

    @given(st.lists(st.integers(1, 16), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_flush_resets(self, counts):
        buf = DelayBuffer(capacity=1024)
        for count in counts:
            buf.push(count, 0)
        buf.flush()
        assert buf.occupancy == 0


# ----------------------------------------------------------------------
# R-DFG invariants (reference object-graph R-DFG; the fast detector is
# checked against it in tests/test_ir_detector_reference.py).
# ----------------------------------------------------------------------

def _chain(n, trace_seq=0):
    nodes = [RDFGNode(trace_seq, i) for i in range(n)]
    for producer, consumer in zip(nodes, nodes[1:]):
        connect(producer, consumer)
    return nodes


class TestRDFGProperties:
    @given(st.integers(min_value=2, max_value=20))
    def test_selecting_tail_and_killing_selects_whole_chain(self, n):
        nodes = _chain(n)
        select(nodes[-1], RemovalKind.BR)
        for node in nodes[:-1]:
            kill(node, unreferenced=False)
        assert all(node.selected for node in nodes)
        for node in nodes[:-1]:
            assert node.kind & RemovalKind.PROPAGATED

    @given(st.integers(min_value=2, max_value=20), st.integers(0, 18))
    def test_external_ref_blocks_propagation(self, n, external_at):
        external_at = min(external_at, n - 2)
        nodes = _chain(n)
        external = RDFGNode(trace_seq=1, index=0)  # different trace
        connect(nodes[external_at], external)
        select(nodes[-1], RemovalKind.BR)
        for node in nodes[:-1]:
            kill(node, unreferenced=False)
        assert not nodes[external_at].selected
        # Everything strictly between the externally-referenced node and
        # the tail still propagates.
        for node in nodes[external_at + 1:-1]:
            assert node.selected

    @given(st.integers(min_value=1, max_value=20))
    def test_unkilled_nodes_never_propagate(self, n):
        nodes = _chain(n)
        select(nodes[-1], RemovalKind.BR)
        for node in nodes[:-1]:
            try_propagate(node)
        assert not any(node.selected for node in nodes[:-1])
