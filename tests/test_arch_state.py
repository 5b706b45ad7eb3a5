"""Unit tests for register file and copy-on-write memory."""

import pytest
from hypothesis import given, strategies as st

from repro.arch.state import ArchState, Memory, RegisterFile
from repro.isa.instructions import REG_COUNT


class TestRegisterFile:
    def test_initially_zero(self):
        regs = RegisterFile()
        assert all(regs.read(i) == 0 for i in range(REG_COUNT))

    def test_r0_write_discarded(self):
        regs = RegisterFile()
        regs.write(0, 42)
        assert regs.read(0) == 0

    def test_write_read(self):
        regs = RegisterFile()
        regs.write(5, -7)
        assert regs.read(5) == -7

    def test_copy_is_independent(self):
        regs = RegisterFile()
        regs.write(1, 10)
        clone = regs.copy()
        clone.write(1, 20)
        assert regs.read(1) == 10

    def test_copy_from_overwrites_all(self):
        a, b = RegisterFile(), RegisterFile()
        a.write(1, 10)
        b.write(1, 99)
        b.write(2, 98)
        a.copy_from(b)
        assert a == b

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            RegisterFile([0] * 10)


class TestMemory:
    def test_default_zero(self):
        assert Memory().read(0x1000) == 0

    def test_image_visible_through_overlay(self):
        mem = Memory(image={0x100: 7})
        assert mem.read(0x100) == 7

    def test_write_shadows_image(self):
        mem = Memory(image={0x100: 7})
        mem.write(0x100, 8)
        assert mem.read(0x100) == 8
        assert mem.image[0x100] == 7  # image untouched

    def test_fork_shares_image_copies_writes(self):
        mem = Memory(image={0x100: 7})
        mem.write(0x200, 1)
        forked = mem.fork()
        forked.write(0x200, 2)
        assert mem.read(0x200) == 1
        assert forked.read(0x200) == 2
        assert forked.read(0x100) == 7

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            Memory().read(0x101)
        with pytest.raises(ValueError):
            Memory().write(0x102, 1)

    @pytest.mark.parametrize("addr,message", [
        (0x101, "unaligned memory access"),
        (0x103, "unaligned memory access"),
        (-8, "negative memory address"),
        # Both faults: alignment is reported first.
        (-7, "unaligned memory access"),
        (-2, "unaligned memory access"),
    ])
    def test_bad_address_messages_and_no_state_change(self, addr, message):
        mem = Memory(image={0x100: 7})
        mem.write(0x200, 1)
        with pytest.raises(ValueError, match=message):
            mem.read(addr)
        with pytest.raises(ValueError, match=message):
            mem.write(addr, 9)
        assert mem.writes == {0x200: 1}
        assert mem.image == {0x100: 7}

    def test_differing_addresses(self):
        base = Memory(image={0x100: 1})
        a, b = base.fork(), base.fork()
        a.write(0x200, 5)
        b.write(0x200, 5)
        a.write(0x300, 1)
        assert a.differing_addresses(b) == {0x300}

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=1 << 20).map(lambda a: a * 4),
            st.integers(min_value=-(2**31), max_value=2**31 - 1),
            max_size=50,
        )
    )
    def test_differing_addresses_symmetric(self, writes):
        a, b = Memory(), Memory()
        for addr, value in writes.items():
            a.write(addr, value)
        assert a.differing_addresses(b) == b.differing_addresses(a)
        # Repairing the differing addresses makes the memories equal.
        for addr in a.differing_addresses(b):
            b.write(addr, a.read(addr))
        assert a.differing_addresses(b) == set()


class TestArchState:
    def test_fork_independent_contexts(self):
        state = ArchState(image={0x100: 3})
        state.regs.write(1, 10)
        state.mem.write(0x200, 20)
        state.output.append(1)
        forked = state.fork()
        forked.regs.write(1, 11)
        forked.mem.write(0x200, 21)
        forked.output.append(2)
        assert state.regs.read(1) == 10
        assert state.mem.read(0x200) == 20
        assert state.output == [1]
        assert forked.output == [1, 2]
