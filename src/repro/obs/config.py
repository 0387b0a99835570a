"""Declarative observability knob for :class:`~repro.apps.spec.ExperimentSpec`.

``ObsSpec`` is the value-object face of the trace plane: frozen, picklable,
content-hashable — so traced runs sweep and cache like everything else.
Attaching one to a spec makes ``ExperimentSpec.run_live`` hang a configured
:class:`~repro.obs.trace.Tracer` on the simulator before any component is
built; leaving it ``None`` (the default) keeps the spec's content hash
bit-identical to pre-observability specs and the hot paths on their
single ``tracer is None`` predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.params import HASH_NEUTRAL_DEFAULT
from repro.obs.trace import (
    CATEGORIES,
    DEFAULT_TRACE_LIMIT,
    Tracer,
    _normalize_categories,
)

if TYPE_CHECKING:
    from repro.obs.timeline import TimelineSpec


@dataclass(frozen=True)
class ObsSpec:
    """Frozen description of what one run should trace.

    ``categories`` selects which event families to record (canonicalized
    to sorted order so equivalent selections hash identically);
    ``buffer_limit`` bounds the ring buffer.  ``timeline`` (optional)
    attaches the sim-time telemetry collector of
    :mod:`repro.obs.timeline`; ``trace_path`` (optional) streams every
    emitted event to an NDJSON file so long runs aren't silently
    truncated by the ring.  Observability never changes what a run
    computes — only what it records — so two specs differing only in
    ``obs`` produce identical flow records.

    Hash semantics: ``timeline`` participates in the experiment content
    hash when set (a cached point without timeline data must not satisfy
    a spec that asks for it) and is stripped when ``None`` (its field
    metadata is ``HASH_NEUTRAL_DEFAULT``), keeping
    pre-timeline hashes intact.  ``trace_path`` is *always* stripped —
    it is a side-channel output sink that affects neither the simulation
    nor the :class:`~repro.apps.spec.PointResult` payload, so pointing
    the stream elsewhere must not invalidate the cache (a cache hit
    skips the run and therefore writes no stream).
    """

    categories: tuple[str, ...] = field(default=CATEGORIES)
    buffer_limit: int = DEFAULT_TRACE_LIMIT
    timeline: TimelineSpec | None = field(default=None, metadata=HASH_NEUTRAL_DEFAULT)
    trace_path: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "categories", _normalize_categories(self.categories)
        )
        if self.buffer_limit < 1:
            raise ValueError(
                f"buffer_limit must be positive, got {self.buffer_limit}"
            )

    def make_tracer(self) -> Tracer:
        """Build the tracer this spec describes (one per simulator)."""
        return Tracer(
            categories=self.categories,
            limit=self.buffer_limit,
            stream_path=self.trace_path,
        )


__all__ = ["ObsSpec"]
