"""Unit tests for the hybrid path-based trace predictor."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.predictor import TracePredictor, TracePredictorConfig
from repro.trace.trace_id import TraceId


def tid(n, outcomes=()):
    return TraceId(0x1000 + 4 * n, tuple(outcomes))


class TestTracePredictorLearning:
    def test_untrained_predicts_none(self):
        assert TracePredictor().predict() is None

    def test_learns_repeating_sequence(self):
        pred = TracePredictor()
        sequence = [tid(0), tid(1), tid(2)]
        # Two warmup laps, then predictions must be perfect.
        for _ in range(2):
            for t in sequence:
                pred.predict()
                pred.update(t)
        correct = 0
        for _ in range(3):
            for t in sequence:
                if pred.predict() == t:
                    correct += 1
                pred.update(t)
        assert correct == 9

    def test_learns_path_correlated_pattern(self):
        """A follows B or C depending on deeper history — the correlated
        table must disambiguate what the simple table cannot."""
        pred = TracePredictor()
        # Pattern: X A B | Y A C | repeat.  After trace A, the next trace
        # depends on what preceded A.
        pattern = [tid(10), tid(1), tid(2), tid(11), tid(1), tid(3)]
        for _ in range(8):
            for t in pattern:
                pred.predict()
                pred.update(t)
        correct = 0
        for _ in range(2):
            for t in pattern:
                if pred.predict() == t:
                    correct += 1
                pred.update(t)
        assert correct == 12

    def test_counter_guards_replacement(self):
        """An established prediction survives a single contrary outcome."""
        pred = TracePredictor(TracePredictorConfig(index_bits=8))
        for _ in range(4):
            pred.predict()
            pred.update(tid(1))  # history [.. 1], predict after 1 -> 1
        assert pred.predict() == tid(1)
        pred.update(tid(2))  # single contrary update (history was [1 1 ..])
        # Re-establish the same history context: after a string of 1s the
        # prediction should still favour 1 (counter absorbed one hit).
        for _ in range(2):
            pred.update(tid(1))
        assert pred.predict() == tid(1)

    def test_statistics_counters(self):
        pred = TracePredictor()
        pred.predict()
        assert pred.lookups == 1


class TestRecoverySupport:
    def test_history_snapshot_restore(self):
        pred = TracePredictor()
        for n in range(5):
            pred.update(tid(n))
        snap = pred.history_snapshot()
        pred.update(tid(99))
        pred.restore_history(snap)
        assert pred.history_snapshot() == snap

    def test_restored_history_drives_prediction(self):
        pred = TracePredictor()
        sequence = [tid(0), tid(1), tid(2), tid(3)]
        for _ in range(6):
            for t in sequence:
                pred.update(t)
        snap = pred.history_snapshot()
        prediction_before = pred.predict()
        # Wander off, then restore: prediction must match.
        for n in range(20, 24):
            pred.update(tid(n))
        pred.restore_history(snap)
        assert pred.predict() == prediction_before


def reference_indices(pred):
    """The (correlated, simple) indices, recomputed from the history."""
    config = pred.config
    mask = config.table_size - 1
    history = pred.history_snapshot()
    correlated = 0
    for age, t in enumerate(reversed(history)):
        keep_bits = max(config.index_bits - 2 * age, 4)
        correlated ^= (t.mix() & ((1 << keep_bits) - 1)) << (age & 0x3)
    simple = history[-1].mix() & mask if history else 0
    return correlated & mask, simple


class RecomputingPredictor(TracePredictor):
    """Computes the index pair afresh on every call."""

    def _index_pair(self):
        return reference_indices(self)


def _entry_state(entry):
    return None if entry is None else (entry.trace_id, entry.counter)


_ops = st.lists(
    st.one_of(
        st.just(("lookup",)),
        st.tuples(st.just("update"), st.integers(0, 5),
                  st.lists(st.booleans(), max_size=3)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore"), st.integers(0, 3)),
    ),
    max_size=80,
)


class TestIndexMemo:
    @given(_ops, st.sampled_from([TracePredictorConfig(),
                                  TracePredictorConfig(index_bits=6,
                                                       path_depth=3)]))
    @settings(max_examples=60, deadline=None)
    def test_memo_matches_recomputation(self, ops, config):
        """Any sequence of lookups, updates and history restores gives
        the same indices, predictions and trained entries as a predictor
        that recomputes its indices every time."""
        memo, fresh = TracePredictor(config), RecomputingPredictor(config)
        snapshots = [[]]
        for op in ops:
            if op[0] == "lookup":
                got, want = memo.lookup(), fresh.lookup()
                assert got.trace_id == want.trace_id
                assert _entry_state(got.entry) == _entry_state(want.entry)
            elif op[0] == "update":
                actual = tid(op[1], op[2])
                got_entries, want_entries = memo.update(actual), fresh.update(actual)
                assert [_entry_state(e) for e in got_entries] == \
                    [_entry_state(e) for e in want_entries]
            elif op[0] == "snapshot":
                snapshots.append(memo.history_snapshot())
            else:
                snap = snapshots[op[1] % len(snapshots)]
                memo.restore_history(snap)
                fresh.restore_history(snap)
            assert memo._index_pair() == reference_indices(memo)
        assert (memo.lookups, memo.correlated_hits) == \
            (fresh.lookups, fresh.correlated_hits)


class TestTableFork:
    def test_fork_copies_only_the_allocated_entries(self):
        """A fork holds an entry exactly where the source has one, each
        a fresh copy in the same state, mapped in ``twins``."""
        pred = TracePredictor()
        for n in (0, 1, 2, 1, 3, 0, 4):
            pred.update(tid(n))
        twins = {}
        forked = pred.fork(twins)
        for source, copy in ((pred._correlated, forked._correlated),
                             (pred._simple, forked._simple)):
            assert source._entries
            assert copy._entries is not source._entries
            assert list(copy._entries) == list(source._entries)
            for index, entry in source._entries.items():
                twin = copy._entries[index]
                assert twin is not entry and twins[entry] is twin
                assert _entry_state(twin) == _entry_state(entry)
        assert len(twins) == (len(pred._correlated._entries)
                              + len(pred._simple._entries))

