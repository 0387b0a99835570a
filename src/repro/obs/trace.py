"""The per-simulator tracer: category filters, ring buffer, exports.

A :class:`Tracer` is attached to a :class:`~repro.sim.Simulator` as
``sim.tracer`` (``None`` by default).  Instrumented hot paths gate on
exactly two cheap checks and pass the event class and its field values,
never a built event::

    tracer = self.sim.tracer
    if tracer is not None and tracer.flowlet:
        tracer.record(FlowletRerouted, self.sim._now, leaf_id, ...)

so a run without a tracer pays one attribute load and an ``is None`` test
per potential event — the "zero overhead when disabled" contract that
``tests/test_frame_budget.py`` pins exactly (an untraced run enters no
``repro.obs`` frame).  The per-category flags (``tracer.dre``,
``tracer.flowlet``, ...) are precomputed plain booleans, so an enabled
tracer with a narrow filter skips uninteresting categories without any
set lookup.

Tracing *observes* and never perturbs: recording appends to a bounded
``deque`` (oldest entries fall off when ``limit`` is exceeded), consumes no
RNG stream, and schedules nothing — the golden digests in ``tests/golden``
are bit-identical with tracing off and on.

The ring and :class:`TraceLog` hold *rows*, and only this module knows
their layout: a row is :meth:`Tracer.record`'s own argument tuple,
``(EventClass, time, *fields)`` in dataclass field order.  A typed event
is built only where one is read (``events``/``select``); NDJSON lines,
Chrome records and digests come from the rows directly.  An already-built
event handed to :meth:`Tracer.emit` is stored as it is, so every reader
takes either kind of entry.

Exports: NDJSON (one JSON object per line, stable field order) and the
Chrome ``trace_event`` JSON format, loadable in ``chrome://tracing`` /
Perfetto as instant events on per-category tracks.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.obs.events import TraceEvent

#: Every trace category, in canonical (sorted) order.
CATEGORIES: tuple[str, ...] = ("dre", "drop", "fault", "flowlet", "table", "tcp")

#: Default ring-buffer bound: plenty for a scaled run's decision events
#: while keeping a worst-case all-categories trace to tens of MB.
DEFAULT_TRACE_LIMIT = 65536


def _normalize_categories(categories: object) -> tuple[str, ...]:
    """Validate and canonicalize a category selection (None = all)."""
    if categories is None:
        return CATEGORIES
    if isinstance(categories, str):
        categories = [part.strip() for part in categories.split(",")]
    wanted = [name for name in categories if name]
    unknown = sorted(set(wanted) - set(CATEGORIES))
    if unknown:
        known = ", ".join(CATEGORIES)
        raise ValueError(
            f"unknown trace categor{'y' if len(unknown) == 1 else 'ies'} "
            f"{', '.join(unknown)}; known categories: {known}"
        )
    return tuple(name for name in CATEGORIES if name in wanted)


#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))``, built once.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _payload(entry) -> dict:
    """:func:`event_payload` of a ring entry, without building the event."""
    if type(entry) is not tuple:
        from repro.obs.events import event_payload

        return event_payload(entry)
    cls = entry[0]
    payload = {"name": cls.name, "cat": cls.category}
    for name, value in zip(cls.__match_args__, entry[1:]):
        payload[name] = list(value) if type(value) is tuple else value
    return payload


def _event(entry) -> TraceEvent:
    return entry[0](*entry[1:]) if type(entry) is tuple else entry


def _category(entry) -> str:
    return (entry[0] if type(entry) is tuple else entry).category


def _ndjson_line(entry) -> str:
    return _encode(_payload(entry))


def _chrome_record(entry) -> dict:
    payload = _payload(entry)
    return {
        "name": payload.pop("name"),
        "cat": payload.pop("cat"),
        "ph": "i",  # instant event
        "s": "g",  # global scope
        "ts": payload["time"] / 1000.0,  # trace_event wants microseconds
        "pid": 1,
        "tid": CATEGORIES.index(_category(entry)) + 1,
        "args": payload,
    }


@dataclass(frozen=True)
class TraceLog:
    """A frozen, picklable snapshot of a tracer's buffer.

    ``rows`` holds the retained ring-buffer entries in emission order (see
    the module docstring; read them through ``events``/``select``);
    ``emitted`` counts everything ever offered, so ``dropped`` is how many
    old events the ring evicted.  All export/digest helpers live here so a
    :class:`~repro.apps.spec.PointResult` carries them across process and
    cache boundaries.
    """

    rows: tuple
    categories: tuple[str, ...]
    limit: int
    emitted: int

    def __setstate__(self, state: dict) -> None:
        # Pickles from before the row format (old ``.repro-cache`` entries)
        # carry built events under ``events``; those are legal entries.
        if "events" in state:
            state["rows"] = state.pop("events")
        self.__dict__.update(state)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """The retained events, typed — built from the rows on every read."""
        return tuple(map(_event, self.rows))

    @property
    def dropped(self) -> int:
        """Events evicted from the ring buffer (emitted − retained)."""
        return max(0, self.emitted - len(self.rows))

    def select(self, *categories: str) -> tuple[TraceEvent, ...]:
        """Retained events restricted to the given categories (all if none)."""
        if not categories:
            return self.events
        wanted = set(_normalize_categories(list(categories)))
        return tuple(_event(row) for row in self.rows if _category(row) in wanted)

    def ndjson_lines(self) -> Iterator[str]:
        """One compact JSON object per retained event, in emission order."""
        return map(_ndjson_line, self.rows)

    def write_ndjson(self, path: str | Path) -> Path:
        """Write the NDJSON export to ``path``; returns the path."""
        path = Path(path)
        with path.open("w") as handle:
            for line in self.ndjson_lines():
                handle.write(line + "\n")
        return path

    def chrome_trace(self) -> dict:
        """The Chrome ``trace_event`` JSON document (JSON Object Format)."""
        return {
            "traceEvents": [_chrome_record(row) for row in self.rows],
            "displayTimeUnit": "ns",
            "metadata": {
                "categories": list(self.categories),
                "emitted": self.emitted,
                "dropped": self.dropped,
            },
        }

    def write_chrome(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON to ``path``; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.chrome_trace(), indent=1) + "\n")
        return path

    def digest(self) -> str:
        """sha256 over the NDJSON export — the trace-determinism fingerprint.

        Two runs of the same spec must produce identical digests whether
        they execute inline or on any number of sweep workers.
        """
        hasher = hashlib.sha256()
        for line in self.ndjson_lines():
            hasher.update(line.encode())
            hasher.update(b"\n")
        return hasher.hexdigest()

    def __len__(self) -> int:
        return len(self.rows)


class Tracer:
    """Bounded, category-filtered event recorder for one simulator.

    Parameters
    ----------
    categories:
        Which categories to record — an iterable of names or a
        comma-separated string; ``None`` records everything.  Unknown
        names raise immediately (typos must not silently disable a
        trace).
    limit:
        Ring-buffer bound; when full, the oldest events are evicted
        (``dropped`` counts them) so the newest window is always kept.
    stream_path:
        Optional NDJSON sink: every emitted event is *also* appended to
        this file as it happens, so long runs keep a complete record even
        after the ring buffer starts evicting.  Line-buffered, so a
        crashed run still leaves whole lines behind.
    """

    __slots__ = (
        "categories",
        "limit",
        "emitted",
        "stream_path",
        "_buffer",
        "_stream",
    ) + CATEGORIES

    def __init__(
        self,
        categories: object = None,
        limit: int = DEFAULT_TRACE_LIMIT,
        stream_path: str | Path | None = None,
    ) -> None:
        if limit < 1:
            raise ValueError(f"trace buffer limit must be positive, got {limit}")
        self.categories = _normalize_categories(categories)
        self.limit = limit
        self.emitted = 0
        self.stream_path = Path(stream_path) if stream_path is not None else None
        self._buffer: deque = deque(maxlen=limit)
        self._stream = (
            # Opt-in observability sink, opened once per run, never on a
            # hot path without an explicit trace_path knob.
            self.stream_path.open("w", buffering=1)
            if self.stream_path is not None
            else None
        )
        # Precomputed per-category booleans: the enabled-path gate is a
        # plain attribute read, not a set membership test.
        enabled = set(self.categories)
        for name in CATEGORIES:
            setattr(self, name, name in enabled)

    def wants(self, category: str) -> bool:
        """Whether ``category`` is being recorded."""
        return category in self.categories

    def record(self, *row) -> None:
        """Record one event as ``(EventClass, time, *fields)``, unbuilt.

        Callers gate on the category flag first and pass the values in
        dataclass field order; the argument tuple itself is what is stored.
        """
        self.emitted += 1
        self._buffer.append(row)
        if self._stream is not None:
            self._stream.write(_ndjson_line(row) + "\n")

    def emit(self, event: TraceEvent) -> None:
        """Record an already-built event (emit sites use :meth:`record`)."""
        self.emitted += 1
        self._buffer.append(event)
        if self._stream is not None:
            self._stream.write(_ndjson_line(event) + "\n")

    def close(self) -> None:
        """Flush and close the streaming sink, if one is open.  Idempotent."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer so far."""
        return max(0, self.emitted - len(self._buffer))

    def events(self, *categories: str) -> list[TraceEvent]:
        """Retained events, typed, optionally restricted to some categories."""
        return list(self.snapshot().select(*categories))

    def snapshot(self) -> TraceLog:
        """Freeze the buffer into a picklable :class:`TraceLog`."""
        return TraceLog(
            rows=tuple(self._buffer),
            categories=self.categories,
            limit=self.limit,
            emitted=self.emitted,
        )

    def __len__(self) -> int:
        return len(self._buffer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(categories={','.join(self.categories)}, "
            f"{len(self._buffer)}/{self.limit} retained, {self.emitted} emitted)"
        )


__all__ = [
    "CATEGORIES",
    "DEFAULT_TRACE_LIMIT",
    "TraceLog",
    "Tracer",
]
