"""Set-associative cache with LRU replacement.

Used for both instruction and data caches.  The timing model only needs
hit/miss decisions; lines hold no data (the architectural state lives in
:class:`repro.arch.state.Memory`).
"""

from __future__ import annotations

import copy
from typing import Dict, List

from repro.uarch.config import CacheConfig


class Cache:
    """A hit/miss model of a set-associative LRU cache."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._sets: List[Dict[int, int]] = [dict() for _ in range(config.num_sets)]
        self._stamp = 0
        self.accesses = 0
        self.misses = 0
        # Config fields hoisted out of the per-probe path (one probe per
        # fetched instruction plus one per memory access, per stream).
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._assoc = config.assoc

    def fork(self) -> "Cache":
        """An independent copy of the tags, LRU stamps and tallies."""
        forked = copy.copy(self)
        forked._sets = [dict(cache_set) for cache_set in self._sets]
        return forked

    def _locate(self, addr: int):
        line = addr // self._line_bytes
        return self._sets[line % self._num_sets], line

    def probe(self, addr: int) -> bool:
        """Access the byte address; return True on hit.

        Misses allocate (fetch the line); LRU victim is evicted.

        NOTE: the slipstream co-simulation's two fused loops,
        ``SlipstreamProcessor._schedule_a_trace`` (A-stream) and
        ``SlipstreamProcessor._r_phase`` (R-stream), inline this exact
        logic against ``_sets``/``_stamp``, and ``TraceTimingEngine``
        batches it per line run; keep them in sync when changing it
        (``tests/test_slipstream_timing_reference.py`` checks the fused
        loops against this method).
        """
        self.accesses += 1
        line = addr // self._line_bytes
        cache_set = self._sets[line % self._num_sets]
        stamp = self._stamp + 1
        self._stamp = stamp
        if line in cache_set:
            cache_set[line] = stamp
            return True
        self.misses += 1
        if len(cache_set) >= self._assoc:
            victim = min(cache_set, key=cache_set.get)
            del cache_set[victim]
        cache_set[line] = stamp
        return False

    def probe_range(self, addr: int, length_bytes: int) -> bool:
        """Probe every line overlapping [addr, addr+length); True if all hit."""
        if length_bytes <= 0:
            raise ValueError("length must be positive")
        first = addr // self.config.line_bytes
        last = (addr + length_bytes - 1) // self.config.line_bytes
        all_hit = True
        for line in range(first, last + 1):
            if not self.probe(line * self.config.line_bytes):
                all_hit = False
        return all_hit

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def snapshot(self) -> dict:
        """Observability tallies (:mod:`repro.obs`)."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
        }
