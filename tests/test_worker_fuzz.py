"""The worker line protocol refuses garbage one line at a time.

:func:`repro.runner.worker.serve` is fed lines no backend sends — truncated
or non-JSON text, JSON that is not an object, an unknown or missing ``op``,
a ``run`` whose ``spec`` does not decode to a spec, an ``init`` whose
workloads do not build — and must answer each with exactly one
``ok: false`` reply: ``kind: "protocol"`` when the line is not a message it
understands, ``kind: "exception"`` when a known ``op`` cannot be carried
out.  The same worker then still answers ``ping`` and runs a real point to
the inline result.
"""

from __future__ import annotations

import base64
import functools
import io
import json
import pickle

from hypothesis import given, settings, strategies as st

from repro.apps import ExperimentSpec
from repro.runner.worker import serve

SPEC = ExperimentSpec(
    "ecmp", "web-search", load=0.4, seed=3, num_flows=6, size_scale=0.02
)
KNOWN_OPS = ("exit", "ping", "init", "run")

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text()
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


def _line(text: str) -> bool:
    """True if ``text`` is one line the worker reads (so it gets a reply)."""
    return "\n" not in text and bool(text.strip())


def _is_known_op(text: str) -> bool:
    try:
        message = json.loads(text)
    except (ValueError, RecursionError):
        return False
    return isinstance(message, dict) and message.get("op") in KNOWN_OPS


# -- lines the worker cannot read: kind "protocol" -----------------------------

_TRUNCATED = st.builds(
    lambda text, cut: text[: max(1, int(cut * len(text)))],
    st.fixed_dictionaries(
        {"op": st.sampled_from(KNOWN_OPS), "id": st.integers(), "spec": st.text()}
    ).map(json.dumps),
    st.floats(0.0, 0.99),
)
_NOT_JSON = st.one_of(
    st.text(),
    st.binary().map(lambda raw: raw.decode("latin-1")),
    st.sampled_from(["[" * 100_000, '{"a":' * 100_000, "\x00\xff\xfe", "{'op': 'ping'}"]),
).filter(lambda text: not _is_known_op(text))
_NOT_AN_OBJECT = st.one_of(_SCALARS, st.lists(_JSON, max_size=4)).map(json.dumps)
_UNKNOWN_OP = st.builds(
    lambda op, rest: json.dumps({**rest, "op": op}),
    _JSON.filter(lambda op: op not in KNOWN_OPS),
    st.dictionaries(st.text(max_size=5), _JSON, max_size=3),
)
_MISSING_OP = st.dictionaries(
    st.text(max_size=5).filter(lambda key: key != "op"), _JSON, max_size=4
).map(json.dumps)

PROTOCOL = st.one_of(_TRUNCATED, _NOT_JSON, _NOT_AN_OBJECT, _UNKNOWN_OP, _MISSING_OP)

# -- known ops that cannot be carried out: kind "exception" --------------------

_NOT_A_STRING = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.lists(st.integers(), max_size=3),
)
_NOT_BASE64 = st.sampled_from(["a", "abc", "!!!!", "YQ", "%%%=", "Zm9v=YmFy"])
_NOT_A_PICKLE = st.one_of(
    st.binary(max_size=64).filter(lambda raw: not raw.startswith(b"\x80")),
    # A pickle, but of something that is not a spec.
    _JSON.map(pickle.dumps),
).map(lambda raw: base64.b64encode(raw).decode("ascii"))
_BAD_RUN = st.one_of(
    st.just({"op": "run", "id": 4}),  # no spec at all
    st.builds(
        lambda spec: {"op": "run", "id": 4, "spec": spec},
        st.one_of(_NOT_A_STRING, _NOT_BASE64, _NOT_A_PICKLE),
    ),
).map(json.dumps)

_POINTS_NOT_PAIRS = st.one_of(
    st.integers(),
    st.text(),  # iterates to one-character strings, or to no points
    st.lists(st.lists(st.integers(), min_size=3, max_size=4), min_size=1, max_size=3),
    st.lists(st.tuples(st.text("xyz"), st.text("xyz")), min_size=1, max_size=3),
)
# Numbers, but never a valid CDF: the last probability is 0.5, not 1.
_POINTS_NOT_A_CDF = st.lists(
    st.tuples(st.floats(1, 1e9), st.floats(0, 1)), max_size=3
).map(lambda points: [list(p) for p in points] + [[2e9, 0.5]])
_BAD_WORKLOAD = st.one_of(
    _NOT_A_STRING,
    st.text(),
    st.fixed_dictionaries({"points": _POINTS_NOT_A_CDF}),
    st.fixed_dictionaries({"name": st.text()}),
    st.fixed_dictionaries(
        {"name": st.text(), "points": st.one_of(_POINTS_NOT_PAIRS, _POINTS_NOT_A_CDF)}
    ),
)
_BAD_INIT = st.one_of(
    # ``workloads`` that is not a list (``null`` and ``{}`` included) ...
    st.one_of(_NOT_A_STRING.filter(lambda v: not isinstance(v, list)), st.text(),
              st.dictionaries(st.text(max_size=5), st.integers(), max_size=2)),
    # ... or a list of workloads none of which builds.
    st.lists(_BAD_WORKLOAD, min_size=1, max_size=3),
).map(lambda workloads: json.dumps({"op": "init", "workloads": workloads}))

GARBAGE = st.one_of(
    PROTOCOL.filter(_line).map(lambda line: (line, "protocol")),
    st.one_of(_BAD_RUN, _BAD_INIT).map(lambda line: (line, "exception")),
)


@functools.cache
def _inline_records():
    return SPEC.run().records


@settings(max_examples=60, deadline=None)
@given(st.lists(GARBAGE, min_size=1, max_size=10))
def test_each_garbage_line_gets_one_refusal_and_the_worker_keeps_serving(garbage):
    tail = [
        {"op": "ping"},
        {"op": "run", "id": 1, "spec": base64.b64encode(pickle.dumps(SPEC)).decode()},
        {"op": "exit"},
    ]
    lines = [line for line, _ in garbage] + [json.dumps(message) for message in tail]
    out = io.StringIO()
    assert serve(io.StringIO("\n".join(lines) + "\n"), out) == 0
    replies = [json.loads(reply) for reply in out.getvalue().splitlines()]
    assert len(replies) == len(lines)
    for (line, kind), reply in zip(garbage, replies):
        assert reply["ok"] is False, line
        assert reply["kind"] == kind, line
        assert reply["error"]
    pong, run, bye = replies[len(garbage):]
    assert pong == {"ok": True, "op": "pong"}
    assert run["ok"] and run["id"] == 1
    assert pickle.loads(base64.b64decode(run["result"])).records == _inline_records()
    assert bye == {"ok": True, "op": "exit"}
