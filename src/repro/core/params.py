"""CONGA configuration parameters (paper §3.6).

The paper's defaults are Q = 3 quantization bits, DRE time constant
τ = 160 µs, and flowlet inactivity timeout T_fl = 500 µs; CONGA-Flow uses
T_fl = 13 ms (the maximum path latency in the authors' testbed), which makes
one decision per flow while still using congestion metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.units import microseconds, milliseconds

#: Field metadata of a value field added after spec hashes were pinned: at
#: its default it is left out of the content hash (``repro.apps.spec``), so
#: older hashes stay reachable.
HASH_NEUTRAL_DEFAULT = {"hash_neutral_default": True}

#: The ``hedera`` scheme's controller period (``lb/centralized.py``) unless the
#: topology config sets its ``controller_period``.
DEFAULT_CONTROLLER_PERIOD = milliseconds(10)

#: Default one-way propagation delay for intra-datacenter cables (~100 m): a
#: topology config default (``repro.net.port`` re-exports it for links).
DEFAULT_PROPAGATION_DELAY = 500  # nanoseconds


@dataclass(frozen=True)
class CongaParams:
    """Tunable parameters of the CONGA mechanism.

    Attributes
    ----------
    quantization_bits:
        Q — congestion metrics are quantized to ``2**Q`` levels (§3.1, §3.6).
    dre_time_constant:
        τ = T_dre / α, the DRE low-pass filter time constant in ticks (§3.2).
    dre_period:
        T_dre — interval between multiplicative decays, in ticks.  α is
        derived as ``dre_period / dre_time_constant``.
    flowlet_timeout:
        T_fl — flowlet inactivity gap, in ticks (§3.4).
    flowlet_table_size:
        Number of flowlet table entries (64K in the ASIC).
    metric_age_time:
        A Congestion-To-Leaf entry not refreshed for this long decays toward
        zero so stale congestion is eventually re-probed (§3.3).
    path_metric:
        A path's score from its local and remote metrics: ``"max"`` (§3.5)
        or ``"sum"`` (§7's alternative, PoA 4/3 against max's 2).
    """

    quantization_bits: int = 3
    dre_time_constant: int = microseconds(160)
    dre_period: int = microseconds(20)
    flowlet_timeout: int = microseconds(500)
    flowlet_table_size: int = 65_536
    metric_age_time: int = milliseconds(10)
    path_metric: str = field(default="max", metadata=HASH_NEUTRAL_DEFAULT)

    def __post_init__(self) -> None:
        if not 1 <= self.quantization_bits <= 8:
            raise ValueError(f"Q out of range: {self.quantization_bits}")
        if self.dre_period <= 0 or self.dre_time_constant <= 0:
            raise ValueError("DRE timing parameters must be positive")
        if self.dre_period > self.dre_time_constant:
            raise ValueError("dre_period must not exceed the time constant")
        if self.flowlet_timeout <= 0:
            raise ValueError("flowlet timeout must be positive")
        if self.flowlet_table_size <= 0:
            raise ValueError("flowlet table size must be positive")
        if self.path_metric not in ("max", "sum"):
            raise ValueError(f"path_metric must be 'max' or 'sum', got {self.path_metric!r}")

    @property
    def alpha(self) -> float:
        """DRE multiplicative decay factor α = T_dre / τ."""
        return self.dre_period / self.dre_time_constant

    @property
    def metric_levels(self) -> int:
        """Number of quantized congestion levels, ``2**Q``."""
        return 1 << self.quantization_bits

    @property
    def max_metric(self) -> int:
        """Largest representable congestion metric, ``2**Q - 1``."""
        return self.metric_levels - 1

    def with_flowlet_timeout(self, timeout: int) -> "CongaParams":
        """Return a copy with a different flowlet inactivity timeout."""
        return replace(self, flowlet_timeout=timeout)


#: Paper defaults (§3.6).
DEFAULT_PARAMS = CongaParams()

#: CONGA-Flow: one decision per flow (T_fl larger than any path latency, §5).
CONGA_FLOW_PARAMS = CongaParams(flowlet_timeout=milliseconds(13))


__all__ = ["CONGA_FLOW_PARAMS", "CongaParams", "DEFAULT_CONTROLLER_PERIOD", "DEFAULT_PARAMS",
           "HASH_NEUTRAL_DEFAULT"]
