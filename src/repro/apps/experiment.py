"""The scheme registry and the live result of one experiment point.

A scheme sets both the fabric's uplink selector and the end-host transport;
:meth:`repro.apps.spec.ExperimentSpec.run_live` builds the fabric, drives it
with the paper's workloads and returns an :class:`ExperimentResult`.  The
scheme definitions mirror §5's comparison set:

* ``ecmp`` — static hashing, plain TCP;
* ``conga`` — CONGA with the default 500 µs flowlet timeout, plain TCP;
* ``conga-flow`` — CONGA with a 13 ms timeout (one decision per flow);
* ``caft`` — CONGA extended with liveness/residual-rate path weighting and
  accelerated stale-feedback re-probing (3-tier fault tolerance; pod
  spines also swap blind inter-pod ECMP for the weighted flowlet choice);
* ``mptcp`` — ECMP in the fabric, MPTCP with 8 subflows at the hosts;
* ``local`` — the local-congestion-aware strawman of §2.4;
* ``spray`` — per-packet round-robin spraying;
* ``dctcp`` — ECMP in the fabric, DCTCP at the hosts (pair with a config
  that sets ``ecn_threshold_bytes``, or the ECN-proportional backoff never
  engages and it degenerates to plain Reno);
* ``conga-dctcp`` — CONGA in the fabric, DCTCP at the hosts, switches
  CE-marking at K = 100 KB unless the topology sets its own threshold (the
  DCTCP ablation);
* ``hedera`` — §2.2's centralized foil: ECMP plus elephant pins a
  controller re-plans every ``controller_period`` of the topology config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.analysis.fct import FctSummary
from repro.apps.traffic import (
    FlowFactory,
    dctcp_flow_factory,
    mptcp_flow_factory,
    tcp_flow_factory,
)
from repro.lb import (
    CaftSelector,
    CentralizedScheduler,
    CentralizedSelector,
    CongaFlowSelector,
    CongaSelector,
    EcmpSelector,
    LocalAwareSelector,
    PacketSpraySelector,
)
from repro.lb.caft import enable_fault_awareness
from repro.lb.base import SelectorFactory
from repro.sim import Simulator
from repro.switch.fabric import Fabric
from repro.transport.tcp import FlowRecord, TcpParams
from repro.units import kilobytes

if TYPE_CHECKING:
    from repro.analysis.monitors import ImbalanceSeries, QueueSeries
    from repro.faults.injector import FaultInjector
    from repro.obs.timeline import Timeline


@dataclass(frozen=True)
class SchemeSpec:
    """A named (fabric selector, host transport) combination.

    ``make_flow_factory(params)`` builds the hosts' flows; for paced
    traffic it is called as ``make_flow_factory(params, pacing=...)``.
    ``post_setup`` (optional) is invoked with (sim, fabric) after the
    fabric is finalized — used by schemes that need a control-plane agent,
    like the Hedera-style centralized scheduler.  ``ecn_threshold_bytes``
    (optional) is the queue depth at which the scheme's switches CE-mark
    when the topology sets no threshold of its own.
    """

    name: str
    make_selector: Callable[[], SelectorFactory]
    make_flow_factory: Callable[..., FlowFactory]
    post_setup: Callable[[Simulator, Fabric], object] | None = None
    ecn_threshold_bytes: int | None = None


class UnknownSchemeError(ValueError):
    """Raised when a scheme name is not in the registry."""


#: The scheme registry.  Read through :func:`get_scheme` and write through
#: :func:`register_scheme`; the dict itself is kept public for backwards
#: compatibility with code that enumerates or mutates it directly.
SCHEMES: dict[str, SchemeSpec] = {}


def register_scheme(spec: SchemeSpec, *, replace: bool = False) -> SchemeSpec:
    """Add ``spec`` to the scheme registry under ``spec.name``.

    Registering a name that already exists raises unless ``replace=True``
    (tests that re-register a variant pass it).  Returns
    the spec so registration can be used inline.
    """
    if not replace and spec.name in SCHEMES:
        raise ValueError(
            f"scheme {spec.name!r} is already registered; "
            "pass replace=True to overwrite it"
        )
    SCHEMES[spec.name] = spec  # repro-lint: ignore[S203] -- the sanctioned write point
    return spec


def get_scheme(name: str) -> SchemeSpec:
    """Look up a registered scheme, with a helpful unknown-name error."""
    spec = SCHEMES.get(name)
    if spec is None:
        known = ", ".join(sorted(SCHEMES))
        raise UnknownSchemeError(
            f"unknown scheme {name!r}; registered schemes: {known}. "
            "Add new schemes with repro.apps.register_scheme(SchemeSpec(...))."
        )
    return spec


def _unpaced_mptcp_flow_factory(
    params: TcpParams, pacing: object = None
) -> FlowFactory:
    """MPTCP flows; ``pacing`` is ignored, as its subflows share one buffer."""
    return mptcp_flow_factory(params)


for _spec in (
    SchemeSpec("ecmp", EcmpSelector.factory, tcp_flow_factory),
    SchemeSpec("conga", CongaSelector.factory, tcp_flow_factory),
    SchemeSpec("conga-flow", CongaFlowSelector.factory, tcp_flow_factory),
    SchemeSpec(
        "caft",
        CaftSelector.factory,
        tcp_flow_factory,
        post_setup=enable_fault_awareness,
    ),
    SchemeSpec("mptcp", EcmpSelector.factory, _unpaced_mptcp_flow_factory),
    SchemeSpec("local", LocalAwareSelector.factory, tcp_flow_factory),
    SchemeSpec("spray", PacketSpraySelector.factory, tcp_flow_factory),
    SchemeSpec("dctcp", EcmpSelector.factory, dctcp_flow_factory),
    SchemeSpec(
        "conga-dctcp",
        CongaSelector.factory,
        dctcp_flow_factory,
        ecn_threshold_bytes=kilobytes(100),
    ),
    SchemeSpec(
        "hedera",
        lambda: CentralizedSelector,
        tcp_flow_factory,
        post_setup=lambda sim, fabric: CentralizedScheduler(
            sim, fabric, interval=fabric.config.controller_period
        ),
    ),
):
    register_scheme(_spec)
del _spec


@dataclass
class ExperimentResult:
    """Everything a benchmark needs from one run."""

    scheme: str
    workload: str
    load: float
    records: list[FlowRecord]
    arrivals: int
    completed: int
    sim: Simulator
    fabric: Fabric
    #: Monitor views cut from the run's timeline (None without a monitor).
    imbalance_series: ImbalanceSeries | None = None
    queue_series: QueueSeries | None = None
    #: The fault injector driving this run's fault schedule (None when the
    #: spec had no faults); ``injector.applied`` logs what fired and when.
    injector: FaultInjector | None = None
    #: Sender-side loss-recovery totals over completed flows — the
    #: degradation counters the fault-plane analysis reports.
    retransmissions: int = 0
    timeouts: int = 0
    #: Frozen sim-time telemetry snapshot when the run's ``ObsSpec``
    #: carried a :class:`~repro.obs.timeline.TimelineSpec`; None otherwise.
    timeline: Timeline | None = None
    _summary: FctSummary | None = field(default=None, repr=False)

    @property
    def summary(self) -> FctSummary:
        """Lazily computed FCT summary over completed flows."""
        if self._summary is None:
            self._summary = FctSummary.from_records(self.records)
        return self._summary

    @property
    def unfinished(self) -> int:
        """Flows that arrived but did not finish before the deadline.

        A large value at high load is itself a result: it is how the
        paper's "network becomes unstable" regime (Fig. 11, ECMP past 50%
        load with a failed link) shows up.
        """
        return self.arrivals - self.completed


__all__ = [
    "ExperimentResult",
    "SCHEMES",
    "SchemeSpec",
    "UnknownSchemeError",
    "get_scheme",
    "register_scheme",
]
