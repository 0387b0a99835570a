"""Typed trace events — the vocabulary of the observability plane.

Each event is a small frozen dataclass describing one decision or state
transition the simulation made, at one simulated instant.  The taxonomy
mirrors the places where CONGA behaviour is otherwise invisible:

* ``flowlet``  — :class:`FlowletRerouted`: the §3.5 decision rule, with
  *both* compared inputs (local DRE metric, remote Congestion-To-Leaf
  value) for every candidate uplink and the winner;
* ``dre``      — :class:`DreSampled`: a §3.2 rate-estimator read;
* ``table``    — :class:`CongaTableUpdated` / :class:`CongaTableAged`:
  feedback arriving at and aging out of the Congestion-To-Leaf table
  (§3.3);
* ``tcp``      — :class:`TcpStateChanged` / :class:`RtoFired`: loss
  recovery at the hosts;
* ``drop``     — :class:`PacketDropped`: where and why a packet died;
* ``fault``    — :class:`FaultApplied` / :class:`FaultRestored`: the
  fault plane's schedule firing; :class:`FaultRerouted`: the ``caft``
  scheme's liveness weighting overriding the congestion choice.

Events are plain values: picklable, comparable, and serializable to one
JSON object each (see :func:`event_payload`), so traces cross process
boundaries and land in NDJSON files without any live simulator state.
They are the *read-side* types: an emit site passes the class and its
field values to ``Tracer.record`` (positionally, in the field order
declared here) and an instance is built only when a trace is read.
This module must stay dependency-free — every instrumented hot path
imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base class: one simulated instant, one observation.

    ``category`` groups events for filtering (the :class:`~repro.obs.trace.
    Tracer`'s per-category flags) and ``name`` is the stable record type
    written to exports; both are class-level so instances stay tuples of
    data.
    """

    time: int

    category: ClassVar[str] = ""
    name: ClassVar[str] = ""


@dataclass(frozen=True, slots=True)
class FlowletRerouted(TraceEvent):
    """A new flowlet picked its uplink (§3.5 decision rule).

    ``local_metrics[i]`` and ``remote_metrics[i]`` are the two compared
    inputs for ``candidates[i]`` — the local DRE reading and the aged
    Congestion-To-Leaf value — whose elementwise max CONGA minimizes.
    ``previous`` is the uplink cached in the expired flowlet entry (-1 for
    a brand-new flow); ``chosen`` is the winner.
    """

    leaf: int
    dst_leaf: int
    flow_id: int
    chosen: int
    previous: int
    candidates: tuple[int, ...]
    local_metrics: tuple[int, ...]
    remote_metrics: tuple[int, ...]

    category: ClassVar[str] = "flowlet"
    name: ClassVar[str] = "FlowletRerouted"


@dataclass(frozen=True, slots=True)
class DreSampled(TraceEvent):
    """One read of a link's discounting rate estimator (§3.2)."""

    link: str
    register: float
    utilization: float
    metric: int

    category: ClassVar[str] = "dre"
    name: ClassVar[str] = "DreSampled"


@dataclass(frozen=True, slots=True)
class CongaTableUpdated(TraceEvent):
    """Piggybacked feedback refreshed a Congestion-To-Leaf cell (§3.3)."""

    leaf: int
    dst_leaf: int
    lbtag: int
    metric: int

    category: ClassVar[str] = "table"
    name: ClassVar[str] = "CongaTableUpdated"


@dataclass(frozen=True, slots=True)
class CongaTableAged(TraceEvent):
    """A Congestion-To-Leaf read served an aged (decayed) metric (§3.3).

    ``stored`` is the last value fed back; ``aged`` is what the linear
    decay ramp returned — the value CONGA actually compared.
    """

    leaf: int
    dst_leaf: int
    lbtag: int
    stored: int
    aged: int

    category: ClassVar[str] = "table"
    name: ClassVar[str] = "CongaTableAged"


@dataclass(frozen=True, slots=True)
class TcpStateChanged(TraceEvent):
    """A sender moved between OPEN and RECOVERY."""

    flow_id: int
    old_state: str
    new_state: str
    cwnd: float
    ssthresh: float

    category: ClassVar[str] = "tcp"
    name: ClassVar[str] = "TcpStateChanged"


@dataclass(frozen=True, slots=True)
class RtoFired(TraceEvent):
    """A retransmission timeout fired (go-back-N + backoff)."""

    flow_id: int
    rto: int
    backoff: int
    inflight: int

    category: ClassVar[str] = "tcp"
    name: ClassVar[str] = "RtoFired"


@dataclass(frozen=True, slots=True)
class PacketDropped(TraceEvent):
    """A packet died at a port.

    ``reason`` is one of ``"link-down"`` (down link at enqueue),
    ``"queue-full"`` (drop-tail overflow), or ``"loss"`` (injected
    per-packet loss after serialization).
    """

    port: str
    flow_id: int
    size: int
    reason: str

    category: ClassVar[str] = "drop"
    name: ClassVar[str] = "PacketDropped"


@dataclass(frozen=True, slots=True)
class FaultApplied(TraceEvent):
    """A scheduled fault event degraded the fabric."""

    kind: str
    fault: str

    category: ClassVar[str] = "fault"
    name: ClassVar[str] = "FaultApplied"


@dataclass(frozen=True, slots=True)
class FaultRestored(TraceEvent):
    """A scheduled fault event restored previously degraded state."""

    kind: str
    fault: str

    category: ClassVar[str] = "fault"
    name: ClassVar[str] = "FaultRestored"


@dataclass(frozen=True, slots=True)
class FaultRerouted(TraceEvent):
    """caft's liveness weighting overrode the pure congestion choice.

    Emitted (gated on the ``fault`` category) whenever the ``caft`` scheme
    picks a path whose raw CONGA metric is *not* minimal because residual
    capacity / liveness weighting made a congestion-optimal candidate look
    worse — i.e. the moment fault awareness, not congestion awareness,
    steered the flowlet.  ``node`` names the deciding switch (a leaf or a
    pod spine); ``healths[i]`` is the residual-capacity weight of
    ``candidates[i]`` in ``[0, 1]``.
    """

    node: str
    dst_leaf: int
    flow_id: int
    chosen: int
    congestion_choice: int
    candidates: tuple[int, ...]
    metrics: tuple[int, ...]
    healths: tuple[float, ...]

    category: ClassVar[str] = "fault"
    name: ClassVar[str] = "FaultRerouted"


def event_payload(event: TraceEvent) -> dict[str, Any]:
    """One JSON-able dict per event: ``name``, ``cat``, then the fields.

    Tuples become lists (JSON has no tuple), which is what the NDJSON
    round-trip tests normalize against.
    """
    payload: dict[str, Any] = {"name": event.name, "cat": event.category}
    for spec in fields(event):
        value = getattr(event, spec.name)
        if isinstance(value, tuple):
            value = list(value)
        payload[spec.name] = value
    return payload


__all__ = [
    "CongaTableAged",
    "CongaTableUpdated",
    "DreSampled",
    "FaultApplied",
    "FaultRerouted",
    "FaultRestored",
    "FlowletRerouted",
    "PacketDropped",
    "RtoFired",
    "TcpStateChanged",
    "TraceEvent",
    "event_payload",
]
