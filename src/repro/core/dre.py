"""Discounting Rate Estimator (paper §3.2).

The DRE measures the load of a link with a single register ``X``:
``X += packet_bytes`` on every transmission, and every ``T_dre`` the register
decays multiplicatively, ``X ← X · (1 − α)``.  In steady state
``X ≈ R · τ`` where ``R`` is the traffic rate and ``τ = T_dre / α``, so
``X / (C · τ)`` estimates link utilization.  The congestion metric exported
to CONGA is that utilization quantized to ``Q`` bits.

The decay is implemented lazily: instead of a periodic event per DRE (there
is one DRE per fabric port, so eager timers would dominate the event heap),
the register applies all decays elapsed since its last touch whenever it is
read or incremented.  This is numerically identical to the hardware's
periodic decay at each ``T_dre`` boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.params import CongaParams, DEFAULT_PARAMS
from repro.obs.events import DreSampled

if TYPE_CHECKING:
    from repro.sim import Simulator

#: Largest ``elapsed`` served from the precomputed decay table.  A busy
#: link touches its DRE every few packets, so elapsed tick counts beyond a
#: few dozen only occur after idle gaps, where one pow is irrelevant.
_DECAY_TABLE_SIZE = 256

#: Shared decay tables keyed by α.  Every port's DRE in a fabric uses the
#: same parameter block, so one table serves all of them — a fabric with
#: hundreds of ports holds one 256-entry tuple instead of one per port, and
#: the per-packet lazy decay in every estimator indexes the same cache-hot
#: row.
_DECAY_TABLES: dict[float, tuple[float, ...]] = {}


def _decay_table(alpha: float) -> tuple[float, ...]:
    """The shared ``(1 - α) ** k`` table for ``alpha`` (see _DECAY_TABLES).

    Entry k is literally ``(1 - α) ** k`` evaluated by the same float
    operation the direct formula uses, so table and formula agree bit for
    bit (asserted by tests/test_core.py).
    """
    table = _DECAY_TABLES.get(alpha)
    if table is None:
        base = 1.0 - alpha
        table = tuple(base ** k for k in range(_DECAY_TABLE_SIZE))
        _DECAY_TABLES[alpha] = table
    return table


class DRE:
    """A discounting rate estimator for one link direction.

    Parameters
    ----------
    sim:
        Simulator supplying the clock.
    link_rate_bps:
        Line rate ``C`` of the measured link.
    params:
        CONGA parameter block (provides T_dre, τ, α, Q).
    """

    __slots__ = (
        "sim",
        "link_rate_bps",
        "params",
        "name",
        "_register",
        "_last_decay_tick",
        "_full_register",
        "_period",
        "_decay_base",
        "_decay_table",
        "_metric_levels",
        "_max_metric",
    )

    def __init__(
        self,
        sim: "Simulator",
        link_rate_bps: int,
        params: CongaParams = DEFAULT_PARAMS,
        name: str = "",
    ) -> None:
        if link_rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {link_rate_bps}")
        self.sim = sim
        self.link_rate_bps = link_rate_bps
        self.params = params
        #: Trace label — the measured port's name when attached to one.
        self.name = name
        self._register = 0.0
        self._last_decay_tick = 0  # index of the last applied T_dre boundary
        # X_full corresponds to a 100%-utilized link: C * tau (in bytes).
        self._full_register = (
            link_rate_bps * params.dre_time_constant / (8 * 1_000_000_000)
        )
        self._period = params.dre_period
        # Decay factors for small elapsed tick counts, precomputed (and
        # shared across all estimators with the same α) so the per-packet
        # lazy decay is a table lookup instead of a float pow.
        self._decay_base = 1.0 - params.alpha
        self._decay_table = _decay_table(params.alpha)
        # Quantization constants cached off the (frozen) parameter block so
        # the fused per-packet path below avoids attribute chains.
        self._metric_levels = params.metric_levels
        self._max_metric = params.max_metric

    # -- register maintenance -------------------------------------------------

    def _apply_decay(self) -> None:
        tick = self.sim.now // self._period
        elapsed = tick - self._last_decay_tick
        if elapsed > 0:
            self._last_decay_tick = tick
            if elapsed < _DECAY_TABLE_SIZE:
                self._register *= self._decay_table[elapsed]
            else:
                self._register *= self._decay_base ** elapsed

    def on_transmit(self, size_bytes: int) -> None:
        """Account for ``size_bytes`` sent on the link (increment ``X``)."""
        self._apply_decay()
        self._register += size_bytes

    def measure(self, packet) -> None:
        """Fused per-packet egress hook: decay + increment + CE stamp.

        Semantically identical to ``on_transmit(packet.size)`` followed by
        ``header.ce = max(header.ce, metric())`` (the switch-egress sequence
        of §3.2/§3.3 step 2), collapsed into one call so the hot path pays a
        single decay application and no attribute-chain re-reads.  Bound
        directly into ``port.on_transmit`` by
        ``Fabric.require_congestion_plane`` — on no port until something
        reads what it measures.
        """
        tick = self.sim._now // self._period
        elapsed = tick - self._last_decay_tick
        register = self._register
        if elapsed > 0:
            self._last_decay_tick = tick
            if elapsed < _DECAY_TABLE_SIZE:
                register *= self._decay_table[elapsed]
            else:
                register *= self._decay_base ** elapsed
        register += packet.size
        self._register = register
        header = packet.overlay
        if header is not None:
            utilization = register / self._full_register
            level = int(utilization * self._metric_levels)
            metric = self._max_metric if level > self._max_metric else level
            tracer = self.sim.tracer
            if tracer is not None and tracer.dre:
                tracer.record(
                    DreSampled, self.sim._now, self.name, register, utilization, metric
                )
            if metric > header.ce:
                header.ce = metric

    # -- readings --------------------------------------------------------------

    @property
    def register(self) -> float:
        """Current (decayed) register value ``X`` in bytes."""
        self._apply_decay()
        return self._register

    def utilization(self) -> float:
        """Estimated link utilization ``X / (C · τ)``; may exceed 1 in bursts."""
        return self.register / self._full_register

    def metric(self) -> int:
        """Quantized congestion metric in ``[0, 2**Q - 1]`` (§3.2)."""
        utilization = self.utilization()
        level = int(utilization * self.params.metric_levels)
        metric = min(level, self.params.max_metric)
        tracer = self.sim.tracer
        if tracer is not None and tracer.dre:
            tracer.record(
                DreSampled, self.sim._now, self.name, self._register, utilization, metric
            )
        return metric

    def peek(self) -> float:
        """Side-effect-free register read for telemetry sampling.

        Applies pending decay *arithmetically* without writing back and
        without emitting a trace event.  The timeline collector must use
        this instead of :attr:`register`: committing the decay here would
        split one future decay multiply into two (``(X·b^e1)·b^e2`` is not
        bitwise ``X·b^(e1+e2)``), changing low-order register bits and
        breaking the "bit-identical with the collector on or off" contract.
        """
        tick = self.sim.now // self._period
        elapsed = tick - self._last_decay_tick
        register = self._register
        if elapsed > 0:
            if elapsed < _DECAY_TABLE_SIZE:
                register *= self._decay_table[elapsed]
            else:
                register *= self._decay_base ** elapsed
        return register

    def peek_utilization(self) -> float:
        """Side-effect-free ``X / (C · τ)`` (see :meth:`peek`)."""
        return self.peek() / self._full_register

    def set_link_rate(self, link_rate_bps: int) -> None:
        """Retarget the estimator to a new line rate ``C`` (link degradation).

        Pending decay is applied at the old rate first, then the
        full-register target ``C · τ`` is recomputed, so utilization and the
        exported metric immediately reflect congestion relative to the
        *current* capacity — which is how a degraded link shows up as more
        congested to CONGA while ECMP remains blind to it.
        """
        if link_rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {link_rate_bps}")
        self._apply_decay()
        self.link_rate_bps = link_rate_bps
        self._full_register = (
            link_rate_bps * self.params.dre_time_constant / (8 * 1_000_000_000)
        )

    def reset(self) -> None:
        """Clear the register (used when re-configuring a link)."""
        self._register = 0.0
        self._last_decay_tick = self.sim.now // self.params.dre_period


__all__ = ["DRE"]
