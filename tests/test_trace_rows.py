"""The tracer stores rows; everything a reader sees is what it always was.

``repro.obs.trace`` keeps ``Tracer.record``'s argument tuples and builds a
typed event only on read, and keeps the ring as sealed (pickled) chunks.
These tests hold the read side to the old contract from the outside: a
recorded row and the equivalent built event export the same bytes
(property over all ten event classes), the chunked ring keeps exactly what
a ``deque(maxlen=limit)`` of rows keeps (property against that reference
model), streaming and ring exports agree line for line, a :class:`TraceLog`
survives pickle / the worker protocol / a cache entry in either older
layout, a full ring stays within its memory bound, and a run that dies
leaves a closed stream.
"""

import dataclasses
import gc
import json
import pickle
import tracemalloc
from collections import deque
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import SCHEMES, ExperimentSpec, ObsSpec, register_scheme
from repro.obs import (
    DEFAULT_TRACE_LIMIT,
    DreSampled,
    PacketDropped,
    TraceLog,
    Tracer,
    event_payload,
    events,
)
from repro.obs.trace import CHUNK_ROWS
from repro.runner import ResultCache, SubprocessBackend, run_sweep
from repro.units import microseconds

from tests.test_golden_traces import GOLDEN_PATH, conga_spec

EVENT_CLASSES = [
    getattr(events, name)
    for name in events.__all__
    if name not in ("TraceEvent", "event_payload")
]

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: Field annotation (a string: events.py defers annotations) -> strategy.
_FIELD_VALUES = {
    "int": st.integers(-(2**62), 2**62),
    "float": _FINITE,
    "str": st.text(max_size=12),
    "tuple[int, ...]": st.lists(st.integers(0, 255), max_size=6).map(tuple),
    "tuple[float, ...]": st.lists(_FINITE, max_size=6).map(tuple),
}


@st.composite
def rows(draw):
    """An event class and one value per field, in dataclass field order."""
    cls = draw(st.sampled_from(EVENT_CLASSES))
    return cls, [draw(_FIELD_VALUES[spec.type]) for spec in fields(cls)]


def _drop(time: int) -> tuple:
    return (PacketDropped, time, "l0-s0", 7, 1500, "loss")


def test_every_event_class_is_covered():
    assert len(EVENT_CLASSES) == 10


@settings(deadline=None, max_examples=200)
@given(st.lists(rows(), min_size=1, max_size=8))
def test_row_exports_equal_the_built_events(drawn):
    recorded, emitted = Tracer(), Tracer()
    built = []
    for cls, values in drawn:
        event = cls(**dict(zip((spec.name for spec in fields(cls)), values)))
        built.append(event)
        recorded.record(cls, *values)
        emitted.emit(event)
    log = recorded.snapshot()
    assert list(log.ndjson_lines()) == [
        json.dumps(event_payload(event), sort_keys=True, separators=(",", ":"))
        for event in built
    ]
    assert log.events == tuple(built) == emitted.snapshot().events
    assert recorded.events() == built
    assert log.chrome_trace() == emitted.snapshot().chrome_trace()
    assert log.digest() == emitted.snapshot().digest()
    assert pickle.loads(pickle.dumps(log)).digest() == log.digest()


def test_ring_keeps_the_newest_rows():
    tracer = Tracer(limit=4)
    for t in range(10):
        tracer.record(*_drop(t))
    assert (len(tracer), tracer.emitted, tracer.dropped) == (4, 10, 6)
    log = tracer.snapshot()
    assert log.rows == tuple(_drop(t) for t in range(6, 10))
    assert (log.limit, log.emitted, log.dropped, len(log)) == (4, 10, 6, 4)
    assert [event.time for event in log.events] == [6, 7, 8, 9]
    assert log.select("drop") == log.events and log.select("dre") == ()


@st.composite
def ring_streams(draw):
    """A ring limit and a stream of (rows, via emit, snapshot after) batches."""
    limit = draw(st.integers(1, 3 * CHUNK_ROWS))
    batches = draw(
        st.lists(
            st.tuples(st.integers(0, 2 * CHUNK_ROWS), st.booleans(), st.booleans()),
            min_size=1,
            max_size=5,
        )
    )
    return limit, batches


def _assert_matches_model(log: TraceLog, model: deque, emitted: int) -> None:
    assert log.rows == tuple(model)
    assert (len(log), log.emitted, log.dropped) == (
        len(model), emitted, emitted - len(model)
    )
    reference = Tracer(limit=max(1, len(model)))
    for row in model:
        reference.record(*row)
    assert log.digest() == reference.snapshot().digest()
    copy = pickle.loads(pickle.dumps(log))
    assert copy == log and hash(copy) == hash(log)
    assert copy.digest() == log.digest()


@settings(deadline=None, max_examples=40)
@given(ring_streams())
def test_the_chunked_ring_keeps_what_a_deque_keeps(stream):
    limit, batches = stream
    tracer, model, t = Tracer(limit=limit), deque(maxlen=limit), 0
    for count, via_emit, snapshot in batches:
        for _ in range(count):
            row = _drop(t)
            t += 1
            # emit records a built event as its row.
            model.append(row)
            if via_emit:
                tracer.emit(PacketDropped(*row[1:]))
            else:
                tracer.record(*row)
        assert (len(tracer), tracer.emitted, tracer.dropped) == (
            len(model), t, t - len(model)
        )
        if snapshot:
            _assert_matches_model(tracer.snapshot(), model, t)
    _assert_matches_model(tracer.snapshot(), model, t)


def test_an_unpicklable_row_stays_a_tuple_and_never_raises():
    tracer = Tracer(limit=CHUNK_ROWS)
    unpicklable = (lambda: None,)  # a field pickle refuses
    rows = [(PacketDropped, t, "l0-s0", 7, 1500, unpicklable) for t in range(CHUNK_ROWS + 3)]
    for row in rows:
        tracer.record(*row)
    assert tracer.snapshot().rows == tuple(rows[3:])


#: A run's port names: one string object per port, shared by its rows.
_LINKS = tuple(f"leaf{leaf}->spine{spine}" for leaf in range(4) for spine in range(4))


def _dre_row(i: int) -> tuple:
    """A ``DreSampled`` row shaped like a run's: fresh time and float objects."""
    return (DreSampled, i * 1000 + 7, _LINKS[i % 16], i * 0.37, (i % 1000) / 999, i % 8)


#: Bytes a full default-limit ring of 100 000 ``DreSampled`` rows retains:
#: 2.30 MiB as sealed chunks, 11.0 MiB when every row was a live tuple
#: (Python 3.11; tracemalloc counts allocations, so no machine shows here).
RING_BYTES_BOUND = 3 * 2**20

#: Extra bytes while every row of such a log is read: one decoded chunk of
#: tuples (0.77 MiB), never two.
READ_PEAK_BOUND = int(1.2 * 2**20)


def test_a_full_ring_stays_within_its_memory_bound():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracer = Tracer()
        for i in range(100_000):
            tracer.record(*_dre_row(i))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
        log = tracer.snapshot()
        del tracer
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert log.select("drop") == ()  # decodes every chunk, keeps no row
        read_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert retained <= RING_BYTES_BOUND, f"{retained / 2**20:.2f} MiB retained"
    assert read_peak <= READ_PEAK_BOUND, f"{read_peak / 2**20:.2f} MiB read peak"
    first = 100_000 - DEFAULT_TRACE_LIMIT
    assert (len(log), log.dropped) == (DEFAULT_TRACE_LIMIT, first)
    assert log.rows == tuple(map(_dre_row, range(first, 100_000)))


def test_stream_and_ring_agree_line_for_line(tmp_path):
    path = tmp_path / "trace.ndjson"
    result = conga_spec().with_(obs=ObsSpec(trace_path=str(path))).run()
    assert result.trace.dropped == 0
    assert path.read_text().splitlines() == list(result.trace.ndjson_lines())
    golden = json.loads(GOLDEN_PATH.read_text())["conga-enterprise"]
    assert result.trace.digest() == golden["digest"]


def test_trace_survives_the_worker_protocol():
    spec = conga_spec()
    (point,) = run_sweep([spec], backend=SubprocessBackend(workers=2), cache=None)
    golden = json.loads(GOLDEN_PATH.read_text())["conga-enterprise"]
    assert point.trace.digest() == golden["digest"]
    assert point.trace.emitted == golden["emitted"]


def test_cache_entry_from_before_the_row_format_still_loads(tmp_path):
    """The parent commit pickled ``TraceLog.__dict__`` with built events
    under ``events``; such an entry must come back whole or not at all."""
    spec = conga_spec().with_(obs=ObsSpec(buffer_limit=1000))
    result = spec.run()
    old_log = object.__new__(TraceLog)
    old_log.__dict__.update(
        events=result.trace.events,
        categories=result.trace.categories,
        limit=result.trace.limit,
        emitted=result.trace.emitted,
    )
    entry = pickle.dumps(dataclasses.replace(result, trace=old_log))
    assert b"rows" not in entry
    cache = ResultCache(tmp_path)
    cache.path(spec).write_bytes(entry)
    loaded = cache.get(spec).trace
    assert loaded.digest() == result.trace.digest()
    assert (loaded.emitted, loaded.dropped) == (result.trace.emitted, 3149)
    assert loaded.events == result.trace.events
    assert len(loaded.select("dre")) == len(result.trace.select("dre")) > 0


def test_cache_entry_in_the_unchunked_row_layout_still_loads(tmp_path):
    """Before the chunks a log pickled one ``rows`` tuple; such an entry
    loads as one chunk, equal to the chunked log of the same run."""
    spec = conga_spec().with_(obs=ObsSpec(buffer_limit=4100))
    result = spec.run()
    rows = result.trace.rows
    assert result.trace.dropped > 0 and len(rows) == 4100 > CHUNK_ROWS
    old_log = object.__new__(TraceLog)
    old_log.__dict__.update(
        rows=rows,
        categories=result.trace.categories,
        limit=result.trace.limit,
        emitted=result.trace.emitted,
    )
    entry = pickle.dumps(dataclasses.replace(result, trace=old_log))
    assert b"chunks" not in entry
    cache = ResultCache(tmp_path)
    cache.path(spec).write_bytes(entry)
    loaded = cache.get(spec).trace
    assert loaded == result.trace and loaded.rows == rows
    assert loaded.digest() == result.trace.digest()
    assert (len(loaded), loaded.dropped) == (len(result.trace), result.trace.dropped)


def test_a_run_that_raises_leaves_a_closed_stream_of_whole_lines(tmp_path):
    path = tmp_path / "trace.ndjson"
    sims = []

    def boom():
        raise RuntimeError("callback failed mid-run")

    def arm(sim, fabric):
        sims.append(sim)
        sim.schedule(microseconds(300), boom)

    register_scheme(
        dataclasses.replace(SCHEMES["conga"], name="conga+raise", post_setup=arm),
        replace=True,
    )
    spec = ExperimentSpec(
        "conga+raise", "enterprise", 0.6, seed=7, num_flows=30, size_scale=0.02,
        obs=ObsSpec(trace_path=str(path)),
    )
    with pytest.raises(RuntimeError, match="mid-run"):
        spec.run_live()
    tracer = sims[0].tracer
    assert tracer._stream is None  # closed, not left to the garbage collector
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == tracer.emitted > 0
    assert text.splitlines() == list(tracer.snapshot().ndjson_lines())
