"""Host-speed probe: how fast the shared host runs while a pass runs.

On a shared host the CPU time of one and the same pass swings by up to
1.7x within minutes, in slow and fast phases that other tenants cause,
and the CPU clock counts them as the program's own time.  So while a
timed pass runs, a profiling timer (``SIGPROF``, every ``PERIOD``
seconds of process CPU time) interrupts it and runs a fixed probe: a
pointer chase through a ring of ``RING_SIZE`` objects in a fixed random
order, each probe walking on from where the last one stopped.  The
probe is timed with the thread's CPU clock.  The pass's host-speed
factor is the probe's mean time divided by ``REFERENCE_US``.

Of the probes tried, this one followed the simulator's pass times most
closely on every workload (README.md, "Host speed").  It uses only this
file, so no change to the simulator changes its work; the pass does
evict the ring from the nearer caches between two visits, so a pass
that touches much less memory makes the probe a little faster.  The
garbage collector is paused while the probe runs, so the probe never
pays for collecting the simulator's objects.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from typing import List

#: Process CPU seconds between two probes (about 2% of a pass).
PERIOD = 0.025
#: Links in the ring and links one probe walks.
RING_SIZE = 20000
HOPS = 1500
#: Mean microseconds of one probe inside the passes in a fast phase of
#: the host the benchmark was written on (a 2-vCPU KVM guest on a Xeon,
#: family 6 model 143, Python 3.11).  It fixes the unit of the factor
#: only: at factor 1 a pass reads its raw CPU time.
REFERENCE_US = 500.0


class _Link:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next = None


def _ring(size: int) -> _Link:
    """The first of ``size`` links chained in a fixed random order."""
    links = [_Link(i) for i in range(size)]
    order = list(range(size))
    random.Random(1).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        links[here].next = links[there]
    return links[0]


class Sampler:
    """Times the probe while it is switched on; see the module doc."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self._link = _ring(RING_SIZE)
        self._previous = None

    def reset(self) -> None:
        self.samples.clear()
        self.cpu_s = self.wall_s = 0.0

    def switch(self, on: bool) -> None:
        """Start (True) or stop (False) probing; a one_pass hook."""
        if on:
            self._previous = signal.signal(signal.SIGPROF, self._probe)
            signal.setitimer(signal.ITIMER_PROF, PERIOD, PERIOD)
        else:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
            self._previous = None

    def _probe(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        w0 = time.perf_counter()
        c0 = time.thread_time()
        link = self._link
        total = 0
        for _ in range(HOPS):
            link = link.next
            total += link.value
        cpu = time.thread_time() - c0
        self.wall_s += time.perf_counter() - w0
        if collecting:
            gc.enable()
        self._link = link
        self.cpu_s += cpu
        self.samples.append(cpu)

    def factor(self) -> float:
        """Host slowness against the reference."""
        if not self.samples:
            raise RuntimeError("pass too short to probe the host speed")
        return statistics.fmean(self.samples) * 1e6 / REFERENCE_US
