"""Flowlet detection table (paper §3.4).

Flowlets are bursts of packets of the same flow separated by gaps larger than
the inactivity timeout ``T_fl``.  The ASIC tracks them in a hash table whose
entries are just ``{port, valid bit, age bit}``: every arriving packet clears
the age bit, and a scan timer running every ``T_fl`` sets age bits and
expires entries whose bit is already set, so detected gaps fall between
``T_fl`` and ``2·T_fl``.

This model implements the identical semantics *lazily*: scans happen at
clock multiples of ``T_fl``, so an entry last touched at ``t0`` has its age
bit set at the first boundary after ``t0`` and expires at the second.  At
lookup time ``t`` the entry is therefore invalid iff two or more boundaries
passed, i.e. ``t // T_fl - t0 // T_fl >= 2``.  Evaluating that on demand is
bit-identical to the hardware sweep without keeping a timer on the event
heap for every leaf switch.

Flows hash into the table by 5-tuple; hash collisions are allowed (two flows
sharing an entry merely lose a rebalancing opportunity — Remark 1 in the
paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.params import CongaParams, DEFAULT_PARAMS
from repro.net.hashing import stable_hash

if TYPE_CHECKING:
    from repro.sim import Simulator

#: A flow's identity for hashing purposes.  Transport code passes
#: (src, dst, src_port, dst_port, proto)-style tuples; subflow IDs may be
#: strings, so components are int-or-str.
FiveTuple = tuple[int | str, ...]


@dataclass(slots=True)
class FlowletEntry:
    """One flowlet-table slot: cached uplink, valid bit, last-touch time."""

    port: int = -1
    valid: bool = False
    last_seen: int = -1


class FlowletTable:
    """Hash table of active flowlets with T_fl..2·T_fl gap detection.

    The caller drives it as the leaf ASIC does:

    1. ``entry = table.lookup(five_tuple)``
    2. if ``entry.valid``: forward on ``entry.port``;
    3. else: make a new load balancing decision, then
       ``table.install(entry, port)``.

    Even when an entry has expired, ``entry.port`` still holds the previous
    flowlet's uplink: §3.5 gives that port preference on ties so a flow only
    moves when a strictly better path exists.
    """

    def __init__(self, sim: "Simulator", params: CongaParams = DEFAULT_PARAMS) -> None:
        self.sim = sim
        self.params = params
        self.size = params.flowlet_table_size
        self._period = params.flowlet_timeout
        # Slots materialize on first touch.  The hash-slot semantics are
        # identical to a dense 2**16-entry array (collisions included: two
        # flows mapping to one slot share one entry), but a leaf only ever
        # touches as many slots as it has distinct active 5-tuple hashes, so
        # the sparse dict avoids allocating 65,536 entry objects per leaf up
        # front — a large setup-time and resident-memory win at fabric scale.
        self._entries: dict[int, FlowletEntry] = {}
        self.new_flowlets = 0
        self.expired_flowlets = 0

    def lookup(self, five_tuple: FiveTuple) -> FlowletEntry:
        """Return the entry for ``five_tuple``, applying lazy expiry.

        A valid returned entry means the packet belongs to an active flowlet
        and the caller must reuse ``entry.port``; the lookup refreshes the
        entry's activity timestamp in that case.
        """
        slot = stable_hash(five_tuple, 0x5F10) % self.size
        entry = self._entries.get(slot)
        if entry is None:
            entry = FlowletEntry()
            self._entries[slot] = entry
        elif entry.valid:
            now = self.sim._now
            period = self._period
            if now // period - entry.last_seen // period >= 2:
                entry.valid = False
                self.expired_flowlets += 1
            else:
                entry.last_seen = now
        return entry

    def install(self, entry: FlowletEntry, port: int) -> None:
        """Cache a fresh load balancing decision in ``entry``."""
        entry.port = port
        entry.valid = True
        entry.last_seen = self.sim.now
        self.new_flowlets += 1


__all__ = ["FiveTuple", "FlowletEntry", "FlowletTable"]
