"""Removal-kind taxonomy (paper, Figure 8).

Instructions are selected for removal by one of three *triggers* —

* ``BR`` — branch instructions (always candidates; the per-trace
  confidence counter makes the actual decision),
* ``WW`` — a write followed by a write to the same location with no
  intervening reference (dynamic dead code),
* ``SV`` — writing the same value a location already holds
  (non-modifying write),

— or by *back-propagation* (``P:`` categories): an instruction whose
value is killed, all of whose consumers are in the same trace and all
selected, inherits the union of its consumers' BR/WW/SV status.

Accounting follows the paper: WW and SV tend to occur simultaneously
and priority is given to SV.
"""

from __future__ import annotations

import enum


class RemovalKind(enum.IntFlag):
    """Bit flags describing why an instruction was selected."""

    NONE = 0
    BR = 1
    WW = 2
    SV = 4
    #: Set when the selection came from back-propagation rather than a
    #: direct trigger.
    PROPAGATED = 8


#: Display order of Figure 8's stack categories (bottom to top in the
#: paper's bars: BR, WW, SV, then propagated combinations).
CATEGORIES = (
    "BR",
    "WW",
    "SV",
    "P: BR",
    "P: WW",
    "P: SV",
    "P: WW,BR",
    "P: SV,BR",
    "P: SV,WW",
    "P: SV,WW,BR",
)


def _category_of(kind: RemovalKind) -> str:
    flags = []
    if kind & RemovalKind.SV:
        flags.append("SV")
    if kind & RemovalKind.WW:
        flags.append("WW")
    if kind & RemovalKind.BR:
        flags.append("BR")
    if kind & RemovalKind.PROPAGATED:
        return "P: " + ",".join(flags)
    # Direct triggers: single label, SV priority over WW.
    if "SV" in flags:
        return "SV"
    if "WW" in flags:
        return "WW"
    return "BR"


class _CategoryTable(dict):
    """Kind -> category label; a kind with no flags set has none."""

    def __missing__(self, kind):
        raise ValueError("no removal flags set")


#: Precomputed category label for every flag combination, keyed by the
#: plain-int (or RemovalKind) bitmask.  The mapping is consulted once per
#: removed dynamic instruction -- a hot path, so callers there index this
#: table directly instead of calling :func:`removal_category`.
CATEGORY_OF = _CategoryTable(
    (kind, _category_of(RemovalKind(kind)))
    for kind in range(1, int(RemovalKind.BR | RemovalKind.WW
                             | RemovalKind.SV | RemovalKind.PROPAGATED) + 1)
)


def removal_category(kind: RemovalKind) -> str:
    """Map a kind bitmask onto its Figure 8 category label.

    Direct triggers report a single label with SV given priority over
    WW (paper, section 5); propagated selections report the full flag
    combination.
    """
    return CATEGORY_OF[int(kind)]
