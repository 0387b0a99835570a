"""HDFS TestDFSIO-style write benchmark model (paper §5.4, Figure 14).

The paper runs the standard TestDFSIO MapReduce job: many writers stream a
large file into HDFS with 3-way replication and the job completion time is
measured.  Network-wise, each written block generates a replication
pipeline: writer → first replica (HDFS places it off-rack) → second replica
(same rack as the first).  Many such pipelines run concurrently, producing
the large synchronized transfers that make ECMP's hash collisions and the
asymmetric-link hotspot hurt.

This model reproduces that traffic pattern directly: each writer host
writes ``blocks_per_writer`` blocks of ``block_bytes``; per block, a
cross-rack transfer to a random replica and an in-rack transfer onward run
concurrently (approximating HDFS's cut-through pipelining).  Job completion
time is when every replica transfer finishes.  The paper notes TestDFSIO is
disk-bound on their servers and adds enterprise background traffic; the
scaled job is network-bound, so none is added.  A spec runs it through
:class:`repro.apps.traffic.HdfsTraffic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.apps.traffic import FlowFactory, TrafficStats
from repro.units import megabytes

if TYPE_CHECKING:
    from repro.sim import Simulator
    from repro.switch.fabric import Fabric


@dataclass
class HdfsJobResult:
    """Outcome of one TestDFSIO-style write job."""

    writers: int
    blocks: int
    block_bytes: int
    completion_time: int = 0


class HdfsWriteJob:
    """A 3-way-replicated distributed write job across all fabric hosts.

    Each replica transfer is one flow in ``stats``.
    """

    def __init__(
        self,
        sim: "Simulator",
        fabric: "Fabric",
        *,
        flow_factory: FlowFactory,
        block_bytes: int = megabytes(8),
        blocks_per_writer: int = 1,
        stream: str = "hdfs",
        on_done: Callable[[HdfsJobResult], None] | None = None,
    ) -> None:
        if len(fabric.leaves) < 2:
            raise ValueError("HDFS placement model needs at least two racks")
        self.sim = sim
        self.fabric = fabric
        self.flow_factory = flow_factory
        self.block_bytes = block_bytes
        self.blocks_per_writer = blocks_per_writer
        self.on_done = on_done
        self._rng = sim.rng(stream)
        self.stats = TrafficStats()
        writers = sorted(fabric.hosts)
        self.result = HdfsJobResult(
            writers=len(writers),
            blocks=len(writers) * blocks_per_writer,
            block_bytes=block_bytes,
        )
        self._writers = writers
        self._outstanding = 0
        self._started_at = 0

    def start(self) -> None:
        """Launch every writer's block pipelines simultaneously."""
        self._started_at = self.sim.now
        for writer in self._writers:
            for _ in range(self.blocks_per_writer):
                self._write_block(writer)

    def _write_block(self, writer: int) -> None:
        replica1 = self._pick_off_rack(writer)
        replica2 = self._pick_same_rack(replica1)
        # Writer keeps the local copy "free"; two network transfers follow.
        for src, dst in ((writer, replica1), (replica1, replica2)):
            self._outstanding += 1
            self.stats.start_flow(
                self.fabric, self.flow_factory, src, dst, self.block_bytes,
                self._transfer_done,
            )

    def _pick_off_rack(self, writer: int) -> int:
        writer_leaf = self.fabric.leaf_of(writer)
        other_leaves = [
            leaf.leaf_id
            for leaf in self.fabric.leaves
            if leaf.leaf_id != writer_leaf
        ]
        leaf_id = other_leaves[self._rng.integers(len(other_leaves))]
        hosts = self.fabric.hosts_under(leaf_id)
        return hosts[self._rng.integers(len(hosts))]

    def _pick_same_rack(self, replica1: int) -> int:
        peers = [
            host
            for host in self.fabric.hosts_under(self.fabric.leaf_of(replica1))
            if host != replica1
        ]
        if not peers:
            return replica1  # single-host rack: degenerate but legal
        return peers[self._rng.integers(len(peers))]

    def _transfer_done(self) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
            self.result.completion_time = self.sim.now - self._started_at
            if self.on_done is not None:
                self.on_done(self.result)

    @property
    def finished(self) -> bool:
        """Whether every replica transfer completed."""
        return self.result.completion_time > 0


__all__ = ["HdfsJobResult", "HdfsWriteJob"]
