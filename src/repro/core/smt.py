"""Slipstream on an SMT core (paper, section 5, future work).

The paper observes that CMP(2x64x4)'s peak bandwidth is only 4 IPC —
"this suggests implementing a slipstream processor using an 8-wide SMT
processor, which we leave for future work."  This module provides that
configuration under the simplest defensible resource model: a *static
partition* of one SS(128x8)-class core between the two streams.  (A
dynamically-shared SMT would let the streams steal each other's idle
slots; static partitioning is the conservative bound, and is also what
several contemporary SMT proposals shipped first.)

The default split gives the R-stream the wider partition — it retires
the whole program, so its width bounds the machine — and the A-stream
the remainder: 3-wide A + 5-wide R, each with half the 128-entry ROB
windows scaled to their share of in-flight work.

Because the partition is expressed purely as ``CoreConfig`` values fed
through :class:`~repro.core.slipstream.SlipstreamConfig`, the SMT model
inherits the fast paths transparently: the compiled execution engine
keys its closures on the program, and the fused per-stream timing loops
read each stream's core config, never which topology (CMP or SMT) wraps
them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Tuple

from repro.core.slipstream import SlipstreamConfig
from repro.uarch.config import SS_128x8, CoreConfig


def smt_partition(
    base: CoreConfig = SS_128x8,
    a_width: int = 3,
    rob_split: Tuple[int, int] = (48, 80),
) -> Tuple[CoreConfig, CoreConfig]:
    """Statically partition ``base`` between the A- and R-streams."""
    r_width = base.issue_width - a_width
    if a_width < 1 or r_width < 1:
        raise ValueError("both partitions need at least one issue slot")
    a_rob, r_rob = rob_split
    if a_rob + r_rob > base.rob_size:
        raise ValueError("ROB split exceeds the shared ROB")
    a_core = replace(
        base, name=f"SMT-A({a_rob}x{a_width})", rob_size=a_rob,
        dispatch_width=a_width, issue_width=a_width, retire_width=a_width,
    )
    r_core = replace(
        base, name=f"SMT-R({r_rob}x{r_width})", rob_size=r_rob,
        dispatch_width=r_width, issue_width=r_width, retire_width=r_width,
    )
    return a_core, r_core


def smt_slipstream_config(
    base: CoreConfig = SS_128x8,
    a_width: int = 3,
    rob_split: Tuple[int, int] = (48, 80),
    **overrides,
) -> SlipstreamConfig:
    """A SlipstreamConfig modelling the statically-partitioned SMT."""
    a_core, r_core = smt_partition(base, a_width, rob_split)
    return SlipstreamConfig(core=base, a_core=a_core, r_core=r_core,
                            **overrides)
