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

Tracing *observes* and never perturbs: recording appends to a bounded ring
(the oldest rows fall off once ``limit`` newer ones are kept), consumes no
RNG stream, and schedules nothing — the golden digests in ``tests/golden``
are bit-identical with tracing off and on.

The ring and :class:`TraceLog` hold *rows*, and only this module knows
their layout: a row is :meth:`Tracer.record`'s own argument tuple,
``(EventClass, time, *fields)`` in dataclass field order.  A typed event
is built only where one is read (``events``/``select``); NDJSON lines,
Chrome records and digests come from the rows directly.  An already-built
event handed to :meth:`Tracer.emit` is recorded as its row, so every entry
has the one row format.

The ring keeps its rows as *sealed chunks* (DESIGN.md "Trace ring"): new
rows go to a plain pending list, and every :data:`CHUNK_ROWS` of them are
pickled into one ``bytes`` — about 28 B a row instead of about 164 B as
live tuples.  A reader decodes one chunk at a time, so reading a full log
never holds more than one chunk of tuples.

Exports: NDJSON (one JSON object per line, stable field order) and the
Chrome ``trace_event`` JSON format, loadable in ``chrome://tracing`` /
Perfetto as instant events on per-category tracks.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.obs.events import TraceEvent

#: Every trace category, in canonical (sorted) order.
CATEGORIES: tuple[str, ...] = ("dre", "drop", "fault", "flowlet", "table", "tcp")

#: Default ring-buffer bound.  A ``conga`` run's rows (mostly ``DreSampled``
#: and ``CongaTableUpdated``) seal to about 28 B each against about 164 B as
#: live tuples, so a full ring retains about 2.3 MiB instead of about
#: 11 MiB (tests/test_trace_rows.py pins the bound).
DEFAULT_TRACE_LIMIT = 65536

#: Rows per sealed chunk: the largest size at which sealed bytes and
#: decoding time per row are still flat (DESIGN.md "Trace ring"); the
#: pending tail of live rows and the one chunk a reader decodes stay
#: under about 0.7 MiB.
CHUNK_ROWS = 4096


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


def _row(event: TraceEvent) -> tuple:
    """The row of a built event: its class, then its fields in order."""
    return (type(event), *(getattr(event, name) for name in event.__match_args__))


def _payload(row: tuple) -> dict:
    """:func:`~repro.obs.events.event_payload` of a row, without building the event."""
    cls = row[0]
    payload = {"name": cls.name, "cat": cls.category}
    for name, value in zip(cls.__match_args__, row[1:]):
        payload[name] = list(value) if type(value) is tuple else value
    return payload


def _event(row: tuple) -> TraceEvent:
    return row[0](*row[1:])


def _ndjson_line(row: tuple) -> str:
    return _encode(_payload(row))


def _chrome_record(row: tuple) -> dict:
    payload = _payload(row)
    return {
        "name": payload.pop("name"),
        "cat": payload.pop("cat"),
        "ph": "i",  # instant event
        "s": "g",  # global scope
        "ts": payload["time"] / 1000.0,  # trace_event wants microseconds
        "pid": 1,
        "tid": CATEGORIES.index(row[0].category) + 1,
        "args": payload,
    }


def _pickled(seal, rows: list) -> bytes | tuple:
    """``rows`` pickled by ``seal``, or as a tuple if pickle refuses one."""
    try:
        return seal(rows)
    except Exception:
        # pickle raises PicklingError, TypeError or AttributeError depending
        # on the object; a trace keeps the row rather than fail the run.
        return tuple(rows)


def _decode(data: bytes | tuple) -> list | tuple:
    import pickle

    return pickle.loads(data) if type(data) is bytes else data


@dataclass(frozen=True, eq=False)
class TraceLog:
    """A frozen, picklable snapshot of a tracer's buffer.

    ``chunks`` holds the retained rows (see the module docstring) in
    emission order as ``(n_rows, data)`` pairs, ``data`` being the pickled
    row list (or, for rows pickle refuses, the rows themselves);
    the first ``skip`` rows of the first chunk fell out of the ring.  Read
    the rows through ``rows``, ``events`` or ``select``; every reader
    decodes one chunk at a time.  ``emitted`` counts everything ever
    offered, so ``dropped`` is how many old events the ring evicted.  All
    export/digest helpers live here so a
    :class:`~repro.apps.spec.PointResult` carries them across process and
    cache boundaries.  Two logs are equal when their rows are, however
    they are chunked.
    """

    chunks: tuple = field(repr=False)
    skip: int
    categories: tuple[str, ...]
    limit: int
    emitted: int

    def __setstate__(self, state: dict) -> None:
        # Old ``.repro-cache`` entries carry one tuple of rows under ``rows``
        # or, before the row format, of built events under ``events``.
        if "chunks" not in state:
            old = state.pop("rows") if "rows" in state else tuple(map(_row, state.pop("events")))
            state.update(chunks=((len(old), old),) if old else (), skip=0)
        self.__dict__.update(state)

    def _row_chunks(self) -> Iterator[list | tuple]:
        # Yields each decoded chunk without keeping a reference to it, so
        # ``chain`` below holds one chunk of tuples at a time.
        skip = self.skip
        for _, data in self.chunks:
            if skip:
                yield _decode(data)[skip:]
                skip = 0
            else:
                yield _decode(data)

    def _rows(self) -> Iterator[tuple]:
        return chain.from_iterable(self._row_chunks())

    @property
    def rows(self) -> tuple:
        """The retained rows, decoded on every read."""
        return tuple(self._rows())

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """The retained events, typed — built from the rows on every read."""
        return tuple(map(_event, self._rows()))

    @property
    def dropped(self) -> int:
        """Events evicted from the ring buffer (emitted − retained)."""
        return max(0, self.emitted - len(self))

    def select(self, *categories: str) -> tuple[TraceEvent, ...]:
        """Retained events restricted to the given categories (all if none)."""
        if not categories:
            return self.events
        wanted = set(_normalize_categories(list(categories)))
        return tuple(_event(row) for row in self._rows() if row[0].category in wanted)

    def ndjson_lines(self) -> Iterator[str]:
        """One compact JSON object per retained event, in emission order."""
        return map(_ndjson_line, self._rows())

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
            "traceEvents": [_chrome_record(row) for row in self._rows()],
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

    def _header(self) -> tuple:
        return (self.categories, self.limit, self.emitted, len(self))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceLog):
            return NotImplemented
        return self._header() == other._header() and all(
            mine == theirs for mine, theirs in zip(self._rows(), other._rows())
        )

    def __hash__(self) -> int:
        return hash(self._header())

    def __len__(self) -> int:
        return sum(n for n, _ in self.chunks) - self.skip


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
        "_pending",
        "_chunks",
        "_sealed",
        "_seal",
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
        # Bound here, not at module level: describing or running an
        # untraced point never loads pickle.
        import pickle

        self.categories = _normalize_categories(categories)
        self.limit = limit
        self.emitted = 0
        self.stream_path = Path(stream_path) if stream_path is not None else None
        self._pending: list = []  # newest rows, live
        self._chunks: deque = deque()  # sealed (CHUNK_ROWS, data), oldest first
        self._sealed = 0  # rows in _chunks
        self._seal = partial(pickle.dumps, protocol=pickle.HIGHEST_PROTOCOL)
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

    def record(self, *row) -> None:
        """Record one event as ``(EventClass, time, *fields)``, unbuilt.

        Callers gate on the category flag first and pass the values in
        dataclass field order; the argument tuple itself is what is stored.
        Every :data:`CHUNK_ROWS`-th call seals the pending rows into a
        chunk and evicts whole chunks while the newer ones alone still hold
        ``limit`` rows, inline, so that a record costs exactly one
        ``repro.obs`` frame.
        """
        self.emitted += 1
        pending = self._pending
        pending.append(row)
        if len(pending) == CHUNK_ROWS:
            data: bytes | tuple
            try:
                data = self._seal(pending)
            except Exception:
                # As in _pickled: a row pickle refuses stays live.
                data = tuple(pending)
            chunks = self._chunks
            chunks.append((CHUNK_ROWS, data))
            sealed = self._sealed + CHUNK_ROWS
            while sealed - chunks[0][0] >= self.limit:
                sealed -= chunks.popleft()[0]
            self._sealed = sealed
            self._pending = []
        if self._stream is not None:
            self._stream.write(_ndjson_line(row) + "\n")

    def emit(self, event: TraceEvent) -> None:
        """Record an already-built event as its row (emit sites use :meth:`record`)."""
        self.record(*_row(event))

    def close(self) -> None:
        """Flush and close the streaming sink, if one is open.  Idempotent."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer so far."""
        return self.emitted - len(self)

    def events(self, *categories: str) -> list[TraceEvent]:
        """Retained events, typed, optionally restricted to some categories."""
        return list(self.snapshot().select(*categories))

    def snapshot(self) -> TraceLog:
        """Freeze the buffer into a picklable :class:`TraceLog`.

        The pending rows are sealed into the snapshot's last chunk; the
        tracer itself is left as it was.
        """
        chunks = list(self._chunks)
        if self._pending:
            chunks.append((len(self._pending), _pickled(self._seal, self._pending)))
        skip = self._sealed + len(self._pending) - len(self)
        while chunks and skip >= chunks[0][0]:
            skip -= chunks.pop(0)[0]
        return TraceLog(
            chunks=tuple(chunks),
            skip=skip,
            categories=self.categories,
            limit=self.limit,
            emitted=self.emitted,
        )

    def __len__(self) -> int:
        return min(self._sealed + len(self._pending), self.limit)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(categories={','.join(self.categories)}, "
            f"{len(self)}/{self.limit} retained, {self.emitted} emitted)"
        )


__all__ = [
    "CATEGORIES",
    "CHUNK_ROWS",
    "DEFAULT_TRACE_LIMIT",
    "TraceLog",
    "Tracer",
]
