"""Unit tests for removal-kind taxonomy and the reference rename table."""

import pytest

from repro.core.removal import CATEGORIES, RemovalKind, removal_category
from tests.reference_ir_detector import OperandRenameTable


class TestRemovalCategory:
    def test_direct_triggers(self):
        assert removal_category(RemovalKind.BR) == "BR"
        assert removal_category(RemovalKind.WW) == "WW"
        assert removal_category(RemovalKind.SV) == "SV"

    def test_sv_priority_over_ww(self):
        assert removal_category(RemovalKind.SV | RemovalKind.WW) == "SV"

    def test_propagated_combinations(self):
        p = RemovalKind.PROPAGATED
        assert removal_category(p | RemovalKind.BR) == "P: BR"
        assert removal_category(p | RemovalKind.SV | RemovalKind.WW) == "P: SV,WW"
        assert (
            removal_category(p | RemovalKind.SV | RemovalKind.WW | RemovalKind.BR)
            == "P: SV,WW,BR"
        )

    def test_all_categories_reachable(self):
        produced = set()
        p = RemovalKind.PROPAGATED
        for kind in [
            RemovalKind.BR, RemovalKind.WW, RemovalKind.SV,
            p | RemovalKind.BR, p | RemovalKind.WW, p | RemovalKind.SV,
            p | RemovalKind.WW | RemovalKind.BR,
            p | RemovalKind.SV | RemovalKind.BR,
            p | RemovalKind.SV | RemovalKind.WW,
            p | RemovalKind.SV | RemovalKind.WW | RemovalKind.BR,
        ]:
            produced.add(removal_category(kind))
        assert produced == set(CATEGORIES)

    def test_none_rejected(self):
        with pytest.raises(ValueError):
            removal_category(RemovalKind.NONE)


class _Node:
    """Stand-in producer with a trace_seq, for rename-table tests."""

    def __init__(self, trace_seq=0):
        self.trace_seq = trace_seq


class TestOperandRenameTable:
    def test_read_unknown_returns_none(self):
        table = OperandRenameTable()
        assert table.read(("r", 1)) is None

    def test_write_then_read_returns_producer(self):
        table = OperandRenameTable()
        node = _Node()
        table.write(("r", 1), 5, node)
        assert table.read(("r", 1)) is node

    def test_read_sets_ref_bit(self):
        table = OperandRenameTable()
        first, second = _Node(), _Node()
        table.write(("r", 1), 5, first)
        table.read(("r", 1))
        outcome = table.write(("r", 1), 6, second)
        assert outcome.killed is first
        assert not outcome.killed_unreferenced

    def test_unreferenced_kill(self):
        table = OperandRenameTable()
        first, second = _Node(), _Node()
        table.write(("r", 1), 5, first)
        outcome = table.write(("r", 1), 6, second)
        assert outcome.killed is first and outcome.killed_unreferenced

    def test_silent_write_detected_and_producer_kept(self):
        table = OperandRenameTable()
        first, second = _Node(), _Node()
        table.write(("m", 0x100), 5, first)
        outcome = table.write(("m", 0x100), 5, second)
        assert outcome.silent
        assert table.read(("m", 0x100)) is first  # old producer live

    def test_silent_detection_can_be_disabled(self):
        table = OperandRenameTable()
        first, second = _Node(), _Node()
        table.write(("m", 0x100), 5, first)
        outcome = table.write(("m", 0x100), 5, second, detect_silent=False)
        assert not outcome.silent and outcome.killed is first

    def test_registers_and_memory_are_distinct_namespaces(self):
        table = OperandRenameTable()
        reg_node, mem_node = _Node(), _Node()
        table.write(("r", 4), 1, reg_node)
        table.write(("m", 4), 1, mem_node)
        assert table.read(("r", 4)) is reg_node
        assert table.read(("m", 4)) is mem_node

    def test_invalidation_by_trace(self):
        table = OperandRenameTable()
        node = _Node(trace_seq=3)
        table.write(("r", 1), 5, node)
        table.invalidate_if_stale(("r", 1), 3)
        assert table.read(("r", 1)) is None

    def test_invalidation_spares_newer_producer(self):
        table = OperandRenameTable()
        old, new = _Node(trace_seq=3), _Node(trace_seq=4)
        table.write(("r", 1), 5, old)
        table.write(("r", 1), 6, new)
        table.invalidate_if_stale(("r", 1), 3)
        assert table.read(("r", 1)) is new

    def test_peek_value(self):
        table = OperandRenameTable()
        table.write(("r", 2), 42, _Node())
        assert table.peek_value(("r", 2)) == 42
        assert table.peek_value(("r", 3)) is None
