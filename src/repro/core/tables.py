"""CONGA congestion state tables (paper §3.3).

Two tables implement the leaf-to-leaf feedback loop:

* the **Congestion-To-Leaf** table at the *source* leaf holds, per
  destination leaf and per uplink (LBTag), the most recent remote path
  metric fed back by that destination;
* the **Congestion-From-Leaf** table at the *destination* leaf holds, per
  source leaf and per LBTag, the freshest CE value seen on arriving packets
  while it waits for a reverse-direction packet to piggyback on.

Feedback selection is round-robin over LBTags with preference for metrics
whose value changed since they were last fed back (§3.3 step 4).  Metrics in
the Congestion-To-Leaf table age: an entry not refreshed within
``metric_age_time`` decays linearly to zero over one further aging period,
so a path that once looked congested is eventually probed again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.params import CongaParams, DEFAULT_PARAMS
from repro.obs.events import CongaTableAged, CongaTableUpdated

if TYPE_CHECKING:
    from repro.sim import Simulator


@dataclass(slots=True)
class _RemoteMetric:
    value: int = 0
    updated_at: int = -1
    valid: bool = False


class CongestionToLeafTable:
    """Remote path congestion, indexed [destination leaf][uplink LBTag]."""

    def __init__(
        self,
        sim: "Simulator",
        num_uplinks: int,
        params: CongaParams = DEFAULT_PARAMS,
        owner: int = -1,
    ) -> None:
        if num_uplinks <= 0:
            raise ValueError(f"need at least one uplink, got {num_uplinks}")
        self.sim = sim
        self.num_uplinks = num_uplinks
        self.params = params
        #: Trace label — the leaf this table lives on (-1 when standalone).
        self.owner = owner
        self._rows: dict[int, list[_RemoteMetric]] = {}

    def _row(self, dst_leaf: int) -> list[_RemoteMetric]:
        row = self._rows.get(dst_leaf)
        if row is None:
            row = [_RemoteMetric() for _ in range(self.num_uplinks)]
            self._rows[dst_leaf] = row
        return row

    def update(self, dst_leaf: int, lbtag: int, metric: int) -> None:
        """Record feedback ``metric`` for path ``lbtag`` toward ``dst_leaf``."""
        if not 0 <= lbtag < self.num_uplinks:
            raise ValueError(f"LBTag {lbtag} out of range 0..{self.num_uplinks - 1}")
        cell = (self._rows.get(dst_leaf) or self._row(dst_leaf))[lbtag]
        cell.value = metric
        cell.updated_at = self.sim._now
        cell.valid = True
        tracer = self.sim.tracer
        if tracer is not None and tracer.table:
            tracer.record(
                CongaTableUpdated, self.sim._now, self.owner, dst_leaf, lbtag, metric
            )

    def metric(self, dst_leaf: int, lbtag: int) -> int:
        """Aged remote metric for (``dst_leaf``, ``lbtag``); 0 if unknown.

        Unknown paths read as zero congestion, which makes CONGA explore
        them — the same optimistic initialization the ASIC uses.
        """
        cell = self._row(dst_leaf)[lbtag]
        if not cell.valid:
            return 0
        age = self.sim.now - cell.updated_at
        age_time = self.params.metric_age_time
        if age <= age_time:
            return cell.value
        # Linear decay to zero over one further aging period (§3.3 says the
        # metric "gradually decays to zero"; the exact ramp is unspecified).
        overshoot = age - age_time
        if overshoot >= age_time:
            aged = 0
        else:
            aged = int(cell.value * (1.0 - overshoot / age_time))
        tracer = self.sim.tracer
        if tracer is not None and tracer.table:
            tracer.record(
                CongaTableAged, self.sim._now, self.owner, dst_leaf, lbtag, cell.value, aged
            )
        return aged

    def age_of(self, dst_leaf: int, lbtag: int) -> int | None:
        """Nanoseconds since feedback last refreshed (``dst_leaf``, ``lbtag``).

        ``None`` for a never-updated cell — a path CONGA is still probing
        optimistically, which staleness-aware schemes (``caft``) must not
        penalize the way they penalize a path whose feedback *stopped*.
        """
        cell = self._row(dst_leaf)[lbtag]
        if not cell.valid:
            return None
        return self.sim.now - cell.updated_at

    def metrics_toward(self, dst_leaf: int) -> list[int]:
        """All aged uplink metrics toward ``dst_leaf`` as a list by LBTag."""
        return [self.metric(dst_leaf, tag) for tag in range(self.num_uplinks)]


@dataclass(slots=True)
class _PendingMetric:
    value: int = 0
    valid: bool = False
    changed: bool = False


class CongestionFromLeafTable:
    """Per-source-leaf CE values awaiting piggybacked feedback."""

    def __init__(self, num_lbtags: int) -> None:
        if num_lbtags <= 0:
            raise ValueError(f"need at least one LBTag, got {num_lbtags}")
        self.num_lbtags = num_lbtags
        self._rows: dict[int, list[_PendingMetric]] = {}
        self._rr_pointer: dict[int, int] = {}
        # Per-row changed/valid cell counts, so the per-encapsulation
        # feedback selection can skip whole scan passes (the steady state is
        # "nothing changed, everything valid", where selection collapses to
        # the round-robin pointer itself).
        self._changed_cells: dict[int, int] = {}
        self._valid_cells: dict[int, int] = {}

    def _row(self, src_leaf: int) -> list[_PendingMetric]:
        row = self._rows.get(src_leaf)
        if row is None:
            row = [_PendingMetric() for _ in range(self.num_lbtags)]
            self._rows[src_leaf] = row
        return row

    def record(self, src_leaf: int, lbtag: int, ce: int) -> None:
        """Store the CE value carried by a packet from ``src_leaf``."""
        if not 0 <= lbtag < self.num_lbtags:
            raise ValueError(f"LBTag {lbtag} out of range 0..{self.num_lbtags - 1}")
        cell = (self._rows.get(src_leaf) or self._row(src_leaf))[lbtag]
        if (not cell.valid or cell.value != ce) and not cell.changed:
            cell.changed = True
            self._changed_cells[src_leaf] = self._changed_cells.get(src_leaf, 0) + 1
        if not cell.valid:
            cell.valid = True
            self._valid_cells[src_leaf] = self._valid_cells.get(src_leaf, 0) + 1
        cell.value = ce

    def select_feedback(self, src_leaf: int) -> tuple[int, int] | None:
        """Pick one (lbtag, metric) to piggyback toward ``src_leaf``.

        Round-robin over LBTags, favoring metrics that changed since they
        were last fed back (§3.3 step 4).  Returns None when nothing has
        been recorded yet for that leaf.
        """
        row = self._rows.get(src_leaf)
        if row is None:
            return None
        n = self.num_lbtags
        start = self._rr_pointer.get(src_leaf, 0)
        chosen = None
        # First pass: prefer changed metrics, scanning round-robin order.
        # (changed implies valid — only record() sets either.)  Skipped
        # entirely when the row's changed-cell count is zero.
        if self._changed_cells.get(src_leaf, 0):
            for index in range(start, n):
                if row[index].changed:
                    chosen = index
                    break
            else:
                for index in range(start):
                    if row[index].changed:
                        chosen = index
                        break
        if chosen is None:
            valid = self._valid_cells.get(src_leaf, 0)
            if valid == n:
                # Every cell valid: the first round-robin probe wins.
                chosen = start
            elif valid:
                for index in range(start, n):
                    if row[index].valid:
                        chosen = index
                        break
                else:
                    for index in range(start):
                        if row[index].valid:
                            chosen = index
                            break
        if chosen is None:
            return None
        self._rr_pointer[src_leaf] = (chosen + 1) % n
        cell = row[chosen]
        if cell.changed:
            cell.changed = False
            self._changed_cells[src_leaf] -= 1
        return chosen, cell.value

    def leaves_owed_feedback(self) -> list[int]:
        """Source leaves with changed metrics not yet fed back.

        Used by the explicit-feedback option (§3.3 notes the designers
        *could* generate explicit feedback packets): when no reverse
        traffic exists to piggyback on, these leaves' senders are flying
        blind and a control packet is warranted.
        """
        return [
            src_leaf
            for src_leaf in sorted(self._rows)
            if self._changed_cells.get(src_leaf, 0)
        ]


__all__ = ["CongestionFromLeafTable", "CongestionToLeafTable"]
