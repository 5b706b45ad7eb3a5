"""Unit tests for the table-scheduled out-of-order timing model."""

import pytest

from repro.uarch.config import CoreConfig
from repro.uarch.scheduler import InstrTiming, OoOScheduler


def alu(new_block=False, srcs=(), dest=None, latency=1, **kw):
    return InstrTiming(
        new_block=new_block, icache_penalty=0, srcs=srcs, dest=dest,
        latency=latency, **kw
    )


def small_config(**kw):
    defaults = dict(
        name="test", fetch_width=4, dispatch_width=2, issue_width=2,
        retire_width=2, rob_size=8, frontend_depth=2, redirect_penalty=0,
    )
    defaults.update(kw)
    return CoreConfig(**defaults)


class TestBasicPipeline:
    def test_single_instruction_flows_through(self):
        sched = OoOScheduler(small_config())
        ts = sched.add(alu(new_block=True, dest=1))
        assert ts.fetch == 0
        assert ts.dispatch == ts.fetch + 2
        assert ts.issue >= ts.dispatch
        assert ts.complete == ts.issue + 1
        assert ts.retire > ts.complete

    def test_same_block_instructions_share_fetch_cycle(self):
        sched = OoOScheduler(small_config())
        first = sched.add(alu(new_block=True))
        second = sched.add(alu())
        assert first.fetch == second.fetch

    def test_blocks_fetch_one_per_cycle(self):
        sched = OoOScheduler(small_config())
        a = sched.add(alu(new_block=True))
        b = sched.add(alu(new_block=True))
        assert b.fetch == a.fetch + 1

    def test_icache_miss_delays_block(self):
        sched = OoOScheduler(small_config())
        sched.add(alu(new_block=True))
        miss = sched.add(
            InstrTiming(new_block=True, icache_penalty=12, srcs=(), dest=None, latency=1)
        )
        assert miss.fetch == 13


class TestDependencies:
    def test_consumer_waits_for_producer(self):
        sched = OoOScheduler(small_config())
        producer = sched.add(alu(new_block=True, dest=1, latency=10))
        consumer = sched.add(alu(srcs=(1,)))
        assert consumer.issue >= producer.complete

    def test_independent_instructions_overlap(self):
        sched = OoOScheduler(small_config())
        a = sched.add(alu(new_block=True, dest=1, latency=10))
        b = sched.add(alu(dest=2, latency=1))
        assert b.complete < a.complete

    def test_load_waits_for_store_to_same_address(self):
        sched = OoOScheduler(small_config())
        store = sched.add(alu(new_block=True, is_store=True, mem_addr=0x100))
        load = sched.add(alu(is_load=True, mem_addr=0x100, latency=3))
        assert load.issue >= store.complete

    def test_load_ignores_store_to_other_address(self):
        sched = OoOScheduler(small_config())
        store = sched.add(
            alu(new_block=True, is_store=True, mem_addr=0x100, latency=30)
        )
        load = sched.add(alu(is_load=True, mem_addr=0x200, latency=3))
        assert load.issue < store.complete

    def test_ready_override_breaks_dependence(self):
        """Value-predicted operands (delay buffer) ignore local producers."""
        sched = OoOScheduler(small_config())
        producer = sched.add(alu(new_block=True, dest=1, latency=30))
        predicted = sched.add(alu(srcs=(1,), ready_override=0))
        assert predicted.issue < producer.complete

    def test_dcache_miss_extends_load(self):
        sched = OoOScheduler(small_config())
        load = sched.add(
            alu(new_block=True, is_load=True, mem_addr=0x40, latency=3,
                dcache_penalty=14)
        )
        assert load.complete == load.issue + 3 + 14


class TestWidthLimits:
    def test_issue_width_respected(self):
        sched = OoOScheduler(small_config(issue_width=2))
        stamps = [sched.add(alu(new_block=(i == 0))) for i in range(6)]
        by_cycle = {}
        for ts in stamps:
            by_cycle[ts.issue] = by_cycle.get(ts.issue, 0) + 1
        assert max(by_cycle.values()) <= 2

    def test_retire_width_respected(self):
        sched = OoOScheduler(small_config(retire_width=2))
        stamps = [sched.add(alu(new_block=(i == 0))) for i in range(8)]
        by_cycle = {}
        for ts in stamps:
            by_cycle[ts.retire] = by_cycle.get(ts.retire, 0) + 1
        assert max(by_cycle.values()) <= 2

    def test_retire_in_order(self):
        sched = OoOScheduler(small_config())
        long_op = sched.add(alu(new_block=True, dest=1, latency=20))
        short_op = sched.add(alu(dest=2, latency=1))
        assert short_op.retire >= long_op.retire  # in-order retirement

    def test_rob_limits_inflight(self):
        config = small_config(rob_size=4)
        sched = OoOScheduler(config)
        blocker = sched.add(alu(new_block=True, dest=1, latency=100))
        stamps = [sched.add(alu(srcs=(), dest=None)) for _ in range(6)]
        # The 4th instruction after the blocker needs the blocker's ROB
        # entry, which frees only at its retirement.
        assert stamps[3].dispatch >= blocker.retire

    def test_dispatch_monotonic(self):
        sched = OoOScheduler(small_config())
        stamps = [sched.add(alu(new_block=(i % 3 == 0))) for i in range(20)]
        dispatches = [ts.dispatch for ts in stamps]
        assert dispatches == sorted(dispatches)


class TestRedirects:
    def test_redirect_floors_next_block(self):
        sched = OoOScheduler(small_config())
        branch = sched.add(alu(new_block=True, latency=5))
        sched.redirect(branch.complete)
        after = sched.add(alu(new_block=True))
        assert after.fetch >= branch.complete + 1

    def test_redirect_does_not_move_fetch_backward(self):
        sched = OoOScheduler(small_config())
        sched.add(alu(new_block=True))
        sched.redirect(0)  # stale redirect
        later = sched.add(alu(new_block=True))
        assert later.fetch >= 1

    def test_stall_fetch_until(self):
        sched = OoOScheduler(small_config())
        sched.stall_fetch_until(100)
        ts = sched.add(alu(new_block=True))
        assert ts.fetch >= 100

    def test_fetch_floor_per_block(self):
        sched = OoOScheduler(small_config())
        ts = sched.add(alu(new_block=True, fetch_floor=50))
        assert ts.fetch == 50


class TestThroughput:
    def test_ideal_ipc_approaches_width(self):
        """Independent single-cycle ops, no branches: IPC ~ issue width."""
        config = small_config(fetch_width=16, dispatch_width=4, issue_width=4,
                              retire_width=4, rob_size=64)
        sched = OoOScheduler(config)
        count = 4000
        for i in range(count):
            sched.add(alu(new_block=(i % 16 == 0)))
        assert sched.ipc == pytest.approx(4.0, rel=0.05)

    def test_serial_chain_ipc_is_one(self):
        config = small_config(fetch_width=16, issue_width=4, retire_width=4)
        sched = OoOScheduler(config)
        for i in range(2000):
            sched.add(alu(new_block=(i % 16 == 0), srcs=(1,), dest=1))
        assert sched.ipc == pytest.approx(1.0, rel=0.05)

    def test_cycles_monotonic_with_work(self):
        sched = OoOScheduler(small_config())
        sched.add(alu(new_block=True))
        c1 = sched.total_cycles
        for _ in range(100):
            sched.add(alu())
        assert sched.total_cycles >= c1


class TestFork:
    def _busy(self):
        """A scheduler with many issue cycles behind its dispatch point:
        long-latency producers and their consumers spread issue out."""
        sched = OoOScheduler(small_config())
        for i in range(300):
            sched.add(alu(new_block=(i % 4 == 0), srcs=((i % 5) + 1,),
                          dest=(i % 7) + 1, latency=1 + (i % 3) * 4))
        return sched

    def test_fork_drops_issue_cycles_below_last_dispatch(self):
        sched = self._busy()
        assert min(sched._issue_count) < sched._last_dispatch
        forked = sched.fork()
        assert forked._issue_count
        assert min(forked._issue_count) >= forked._last_dispatch
        # The source keeps its own table.
        assert min(sched._issue_count) < sched._last_dispatch

    def test_pruned_fork_schedules_like_its_source(self):
        sched = self._busy()
        forked = sched.fork()
        tail = [alu(new_block=(i % 3 == 0), srcs=((i % 4) + 1,),
                    dest=(i % 6) + 1, latency=1 + (i % 5))
                for i in range(200)]
        assert [forked.add(t) for t in tail] == [sched.add(t) for t in tail]
        assert forked.total_cycles == sched.total_cycles
