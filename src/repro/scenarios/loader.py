"""YAML front end for :class:`repro.scenarios.Scenario`.

The schema mirrors the value objects one-to-one (see EXPERIMENTS.md,
"Authoring scenarios")::

    name: fig9-enterprise
    description: Figure 9 FCT sweep over the enterprise workload.
    template:
      scheme: ecmp            # placeholder; the grid overwrites swept axes
      workload: enterprise
      load: 0.5
      seed: 31
      num_flows: 250
      size_scale: 0.05
      deadline: 20s           # durations take ns/us/ms/s suffixes
      tcp: {min_rto: 200ms}
      topology: {hosts_per_leaf: 32, params: {flowlet_timeout: 300us}}
      faults: ["link_down@0.1s:l1-s1"]
      traffic: {poisson: {burst_bytes: 64KB}}   # paced senders; or incast / hdfs
    grid:
      schemes: [ecmp, conga-flow, conga, mptcp]
      loads: [0.3, 0.5, 0.7, 0.9]
      seeds: {base: 31, count: 5}   # or an explicit list: [1, 2, 3]
      tcp: [{min_rto: 200ms}, {min_rto: 1ms}]   # an axis over a template key
      faults: [[], ["link_down@1ms:l1-s1"]]       # healthy, then faulted
      topology: [{controller_period: 1ms}, {controller_period: 100ms}]
    workloads:                # inline CDFs, registered on validate()
      my-mix:
        points: [[1000, 0.5], [1000000, 1.0]]

The schema is a set of tables, one :class:`_Section` per mapping of the
document; each table's ``{key: parser}`` dict is the only list of that
section's keys, and one generic :func:`_build_section` does the unknown-key
check, the per-key parse and the construction for all of them.  The CLI's
flags come through the same door (:func:`scenario_from_mapping` over an
in-memory mapping), so every rule — finite numbers, non-negative
durations, a bounded grid — exists once.  Rules a value states about
itself stay with it: the spec refuses the fabric indices its topology
lacks, :meth:`Scenario.validate` the scheme and workload names no registry
holds; the loader only locates their refusals.  A ``topology`` section
containing any multipod-only key (``num_pods``, ``leaves_per_pod``,
``spines_per_pod``, ``num_cores``, ``core_rate_bps``) compiles a 3-tier
:class:`~repro.topology.multipod.MultiPodConfig` instead of a
:class:`LeafSpineConfig`; its ``params`` mapping is the fabric's
:class:`~repro.core.params.CongaParams`.  ``traffic`` names one shape of
:mod:`repro.apps.traffic` by its only key.  Besides the four classic axes a
grid may sweep ``failed_links``, ``faults``, ``tcp``, ``traffic`` and
``topology``: each entry is
parsed and range-checked as that template key would be, against the rest
of the template.

Every loader error is a :class:`ScenarioError` carrying the dotted key
path, the source file and the YAML line of the offending key — unknown
keys, malformed CDFs, bad units, out-of-range indices, unresolvable
scheme/workload names — so a typo'd scenario fails with
``file.yaml:12: ...`` instead of a stack trace mid-sweep.

PyYAML is an optional dependency, needed by :func:`load_scenario` only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.apps.spec import (
    ExperimentSpec,
    ImbalanceMonitorSpec,
    QueueMonitorSpec,
    _at,
    _KeyPath,
    _Refused,
)
from repro.apps.traffic import HdfsTraffic, IncastTraffic, PoissonTraffic
from repro.core.params import CongaParams
from repro.obs.config import ObsSpec
from repro.scenarios.scenario import Scenario, SeedPlan
from repro.topology.leafspine import LeafSpineConfig
from repro.transport.tcp import TcpParams
from repro.units import _parse_duration, gbps, gigabytes, kilobytes, mbps, megabytes
from repro.workloads import FlowSizeDistribution

if TYPE_CHECKING:
    from repro.faults.events import FaultEvent
    from repro.topology.multipod import MultiPodConfig

Path_ = str | Path

class ScenarioError(ValueError):
    """A scenario file failed to load, with file/line context attached.

    ``source`` is the file path (None for in-memory mappings), ``line``
    the 1-based YAML line of the offending key when known, and ``key``
    the dotted key path.  ``str(exc)`` renders ``file.yaml:12: message``.
    """

    def __init__(
        self,
        message: str,
        *,
        source: str | None = None,
        line: int | None = None,
        key: str | None = None,
    ) -> None:
        self.message = message
        self.source = source
        self.line = line
        self.key = key
        prefix = ""
        if source is not None:
            prefix = source if line is None else f"{source}:{line}"
            prefix += ": "
        elif line is not None:
            prefix = f"line {line}: "
        super().__init__(prefix + message)


def _yaml():
    """The gated PyYAML import (an optional dependency)."""
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - env without pyyaml
        raise ScenarioError(
            "loading scenario files requires the optional PyYAML dependency "
            "(pip install pyyaml)"
        ) from exc
    return yaml


def _line_map(yaml_module, root) -> dict[_KeyPath, int]:
    """Map every YAML key path to its 1-based source line.

    Built from the composed node tree (which keeps source marks), keyed
    by dotted paths with sequence indices stringified — the same paths
    the loader reports in errors.  Walked before the tree is constructed:
    construction flattens merge keys in place.
    """
    lines: dict[_KeyPath, int] = {}
    if root is None:
        return lines

    def walk(node, path: _KeyPath) -> None:
        lines.setdefault(path, node.start_mark.line + 1)
        if isinstance(node, yaml_module.MappingNode):
            for key_node, value_node in node.value:
                child = path + (str(key_node.value),)
                lines[child] = key_node.start_mark.line + 1
                walk(value_node, child)
        elif isinstance(node, yaml_module.SequenceNode):
            for index, item in enumerate(node.value):
                walk(item, path + (str(index),))

    walk(root, ())
    return lines


# -- value parsers ------------------------------------------------------------
#
# A parser is ``value -> parsed value`` and raises ValueError on anything it
# does not accept; :func:`_at` attaches the key path on the way out.  Both
# doors (YAML files and the CLI's flags) reach an ExperimentSpec through
# these and only these, so each rule below exists once.

_Parser = Callable[[Any], Any]

#: A parser's "leave the constructor's default in place" answer.
_SKIP = object()

#: Grids larger than this are refused before any seed is derived.
_MAX_GRID_POINTS = 1_000_000


def _int(minimum: int | None = None) -> _Parser:
    def parse(value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _number(positive: bool = False) -> _Parser:
    def parse(value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"expected a number, got {value!r}")
        if not math.isfinite(value) or (positive and value <= 0):
            kind = "positive finite" if positive else "finite"
            raise ValueError(f"expected a {kind} number, got {value!r}")
        return float(value)

    return parse


def _str(value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _mapping(value: Any) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"expected a mapping, got {value!r}")
    return value


def _tuple_of(item: _Parser, names: tuple[str, ...] | None = None) -> _Parser:
    """A list parsed item by item; ``names`` fixes its length and meaning."""

    def parse(value: Any) -> tuple:
        if not isinstance(value, list) or len(value) != len(names or value):
            shape = "a list" if names is None else f"[{', '.join(names)}]"
            raise ValueError(f"expected {shape}, got {value!r}")
        return tuple(_at((str(i),), item, each) for i, each in enumerate(value))

    return parse


_ints = _tuple_of(_int())
_strings = _tuple_of(_str)


def _duration(minimum: int = 0) -> _Parser:
    """Integer ticks from a raw int (ns) or ``"200ms"``-style text."""

    def parse(value: Any) -> int:
        ticks = _parse_duration(value)
        if ticks < minimum:
            raise ValueError(f"must be at least {minimum} ns, got {value!r}")
        return ticks

    return parse


def _quantity(pattern: str, units: dict[str, Callable], what: str) -> _Parser:
    """A raw non-negative int, or ``<number><unit>`` text scaled by its unit."""
    regex = re.compile(rf"^\s*([0-9]+(?:\.[0-9]+)?)\s*({pattern})\s*$", re.I)

    def parse(value: Any) -> int:
        if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
            return value
        match = regex.match(value) if isinstance(value, str) else None
        if match is None:
            raise ValueError(f"expected {what}, got {value!r}")
        return units[match.group(2).lower()](float(match.group(1)))

    return parse


_rate = _quantity(
    "[gm]bps", {"gbps": gbps, "mbps": mbps},
    "a rate (integer bps or e.g. '40Gbps', '100Mbps')",
)
_size = _quantity(
    "[kmg]?b", {"b": int, "kb": kilobytes, "mb": megabytes, "gb": gigabytes},
    "a byte size (integer bytes or e.g. '100KB', '8MB')",
)


def _or_none(parser: _Parser, keep: bool = False) -> _Parser:
    """``null`` means "absent" — or, with ``keep``, is itself the value."""

    def parse(value: Any) -> Any:
        if value is None:
            return None if keep else _SKIP
        return parser(value)

    return parse


def _fault(value: Any) -> FaultEvent:
    # The fault vocabulary loads when a scenario names a fault (DESIGN.md
    # "Import layering", move 2), as does the 3-tier config below.
    from repro.faults.events import parse_fault

    return parse_fault(_str(value))


def _categories(value: Any) -> Any:
    """One comma-separated string or a list of category names."""
    return value if isinstance(value, str) else _strings(value)


_points = _tuple_of(_tuple_of(_number(), ("size_bytes", "cdf")))


def _cdf(value: Any) -> FlowSizeDistribution:
    """Inline CDF points, validated here so that errors name ``points``."""
    return FlowSizeDistribution("inline", _points(value))


# -- the schema: one table per section ----------------------------------------


@dataclass(frozen=True)
class _Section:
    """One mapping of the schema.

    ``keys`` is the only list of the section's keys: the unknown-key check,
    the per-key parse and EXPERIMENTS.md's key reference all derive from it.
    """

    build: Callable[..., Any]
    keys: dict[str, _Parser]
    required: tuple[str, ...] = ()


def _build_section(section: _Section, data: Any) -> Any:
    """Check, parse and construct one section; each refusal names its key."""
    kwargs: dict[str, Any] = {}
    for key, value in _mapping(data).items():
        parser = section.keys.get(key)
        if parser is None:
            known = ", ".join(sorted(section.keys))
            raise _Refused(
                f"unknown key {key!r}; allowed keys: {known}", (str(key),)
            )
        parsed = _at((key,), parser, value)
        if parsed is not _SKIP:
            kwargs[key] = parsed
    missing = [key for key in section.required if key not in kwargs]
    if missing:
        raise ValueError(f"missing required keys: {', '.join(missing)}")
    return section.build(**kwargs)


def _section(section: _Section) -> _Parser:
    return partial(_build_section, section)


_PARAMS = _Section(
    CongaParams,
    {
        "quantization_bits": _int(),
        "dre_time_constant": _duration(),
        "dre_period": _duration(),
        "flowlet_timeout": _duration(),
        "flowlet_table_size": _int(),
        "metric_age_time": _duration(),
        "path_metric": _str,
    },
)

_FABRIC_KEYS: dict[str, _Parser] = {  # shared by both topology tables
    "hosts_per_leaf": _int(),
    "links_per_pair": _int(),
    "host_rate_bps": _rate,
    "fabric_rate_bps": _rate,
    "host_queue_bytes": _or_none(_size, keep=True),
    "fabric_queue_bytes": _or_none(_size, keep=True),
    "ecn_threshold_bytes": _or_none(_size, keep=True),
    "propagation_delay": _duration(),
    "params": _section(_PARAMS),
    "controller_period": _duration(minimum=1),
}
_LEAF_SPINE = _Section(
    LeafSpineConfig,
    {"num_leaves": _int(), "num_spines": _int(), **_FABRIC_KEYS},
)


def _multipod(**kwargs: Any) -> MultiPodConfig:
    from repro.topology.multipod import MultiPodConfig

    return MultiPodConfig(**kwargs)


_MULTIPOD = _Section(
    _multipod,
    {
        "num_pods": _int(),
        "leaves_per_pod": _int(),
        "spines_per_pod": _int(),
        "num_cores": _int(),
        "core_rate_bps": _rate,
        **_FABRIC_KEYS,
    },
)


def _topology(value: Any) -> LeafSpineConfig | MultiPodConfig:
    """Any key only the 3-tier table has selects :class:`MultiPodConfig`."""
    multipod = any(
        key in _MULTIPOD.keys and key not in _LEAF_SPINE.keys
        for key in _mapping(value)
    )
    return _build_section(_MULTIPOD if multipod else _LEAF_SPINE, value)


_TCP = _Section(
    TcpParams,
    {
        "mss": _int(),
        "initial_cwnd_segments": _int(),
        "dupack_threshold": _int(),
        "receive_window": _int(),
        "ack_every": _int(),
        "min_rto": _duration(),
        "max_rto": _duration(),
        "initial_rto": _duration(),
    },
)


def _queue_monitor(**kwargs: Any) -> QueueMonitorSpec:
    # The direction is implied by the tier; authors spell it out only when
    # they want the readability.
    if "tier" in kwargs:
        implied = QueueMonitorSpec._DIRECTIONS.get(kwargs["tier"], "down")
        kwargs.setdefault("direction", implied)
    return QueueMonitorSpec(**kwargs)


_QUEUE_MONITOR = _Section(
    _queue_monitor,
    {
        "tier": _str,
        "direction": _str,
        "leaf": _or_none(_int()),
        "spine": _or_none(_int()),
        "interval": _duration(minimum=1),
    },
)
_IMBALANCE_MONITOR = _Section(
    ImbalanceMonitorSpec,
    {"leaf": _int(), "interval": _or_none(_duration(minimum=1))},
)


def _timeline_spec(**kwargs: Any) -> Any:
    from repro.obs.timeline import TimelineSpec

    return TimelineSpec(**kwargs)


_TIMELINE = _Section(
    _timeline_spec, {"interval": _duration(minimum=1), "limit": _int()}
)


def _timeline(value: Any) -> Any:
    """``true`` = default cadence and bounds; ``false`` / ``null`` = off."""
    if value is None or value is False:
        return _SKIP
    return _build_section(_TIMELINE, {} if value is True else value)


_POISSON = _Section(
    PoissonTraffic, {"burst_bytes": _size, "mean_gap": _duration(minimum=1)}
)
_INCAST = _Section(
    IncastTraffic,
    {
        "fan_in": _int(minimum=1),
        "request_bytes": _size,
        "requests": _int(minimum=1),
    },
    required=("fan_in",),
)
_HDFS = _Section(
    HdfsTraffic, {"block_bytes": _size, "blocks_per_writer": _int(minimum=1)}
)
_TRAFFIC = {"poisson": _POISSON, "incast": _INCAST, "hdfs": _HDFS}


def _traffic(value: Any) -> Any:
    """``{<shape>: {keys}}``: the mapping's one key names the shape."""
    mapping = _mapping(value)
    shapes = ", ".join(_TRAFFIC)
    if len(mapping) != 1:
        raise ValueError(f"expected exactly one of {shapes} as the key, got {value!r}")
    ((shape, body),) = mapping.items()
    if shape not in _TRAFFIC:
        raise _Refused(f"unknown traffic {shape!r}; one of: {shapes}", (str(shape),))
    return _at((shape,), _section(_TRAFFIC[shape]), {} if body is None else body)


_OBS = _Section(
    ObsSpec,
    {
        "categories": _categories,
        "buffer_limit": _int(),
        "timeline": _timeline,
        "trace_path": _or_none(_str),
    },
)


def _experiment_spec(
    topology: Any = None, tcp: TcpParams | None = None, **kwargs: Any
) -> ExperimentSpec:
    if tcp is not None:
        kwargs["tcp_params"] = tcp
    return ExperimentSpec(config=topology, **kwargs)


_TEMPLATE = _Section(
    _experiment_spec,
    {
        "scheme": _str,
        "workload": _str,
        "load": _number(positive=True),
        "seed": _int(),
        "num_flows": _int(minimum=1),
        "size_scale": _number(positive=True),
        "clients": _or_none(_ints),
        "failed_links": _tuple_of(_tuple_of(_int(), ("leaf", "spine", "which"))),
        "faults": _tuple_of(_fault),
        "deadline": _duration(),
        "topology": _or_none(_topology),
        "tcp": _or_none(_section(_TCP)),
        "queue_monitor": _or_none(_section(_QUEUE_MONITOR)),
        "imbalance_monitor": _or_none(_section(_IMBALANCE_MONITOR)),
        "obs": _or_none(_section(_OBS)),
        "traffic": _or_none(_traffic),
    },
    required=("scheme", "workload", "load"),
)

#: Template keys a grid may also sweep, and the spec field each one sets.
_AXIS_FIELDS = {
    "failed_links": "failed_links",
    "faults": "faults",
    "tcp": "tcp_params",
    "traffic": "traffic",
    "topology": "config",
}

_SEED_PLAN = _Section(
    SeedPlan,
    {"base": _int(), "count": _int(), "stream": _str},
    required=("base", "count"),
)


def _seeds(value: Any) -> tuple[int, ...] | SeedPlan:
    """A ``{base, count[, stream]}`` plan or an explicit list of seeds."""
    if isinstance(value, dict):
        return _build_section(_SEED_PLAN, value)
    return _ints(value)


def _entries(value: Any) -> list:
    """A template-key axis, kept raw until :func:`_axis` parses it."""
    if not isinstance(value, list) or not value:
        raise ValueError(f"expected a non-empty list, got {value!r}")
    return value


_GRID = _Section(
    dict,
    {
        "schemes": _strings,
        "workloads": _strings,
        "loads": _tuple_of(_number(positive=True)),
        "seeds": _seeds,
        **dict.fromkeys(_AXIS_FIELDS, _entries),
    },
)


def _axis(template: dict, key: str, entries: list) -> tuple[str, tuple]:
    """``(spec field, values)`` of one template-key axis.

    Each entry is built as the template with that key replaced, so it is
    parsed and range-checked exactly as the key would be, against the rest
    of the template; a refusal is located at ``grid.<key>.<i>``.
    """
    values = []
    for i, entry in enumerate(entries):
        where = ("grid", key, str(i))
        try:
            spec = _at((), _section(_TEMPLATE), {**template, key: entry})
        except _Refused as exc:
            inside = exc.path[1:] if exc.path[:1] == (key,) else ()
            raise _Refused(str(exc), where + inside) from exc
        values.append(getattr(spec, _AXIS_FIELDS[key]))
    return _AXIS_FIELDS[key], tuple(values)


_WORKLOAD = _Section(dict, {"points": _cdf}, required=("points",))


def _workloads(value: Any) -> tuple[FlowSizeDistribution, ...]:
    """Inline CDFs, one ``{points: ...}`` section per workload name."""
    return tuple(
        replace(_at((str(name),), _section(_WORKLOAD), body)["points"], name=str(name))
        for name, body in _mapping(value).items()
    )


_SCENARIO = _Section(
    dict,
    {
        "name": _str,
        "description": _str,
        "template": _section(_TEMPLATE),
        "grid": _or_none(_section(_GRID)),
        "workloads": _or_none(_workloads),
    },
    required=("name", "template"),
)


def _scenario(data: Any, source: str | None) -> Scenario:
    top = _build_section(_SCENARIO, data)
    axes: dict[str, Any] = top.get("grid", {})
    points = 1
    for axis in axes.values():
        points *= axis.count if isinstance(axis, SeedPlan) else len(axis)
    if points > _MAX_GRID_POINTS:
        raise _Refused(
            f"the grid has {points} points; the limit is {_MAX_GRID_POINTS}",
            ("grid",),
        )
    extra = tuple(
        _axis(data["template"], key, axes.pop(key))
        for key in list(axes)
        if key in _AXIS_FIELDS
    )
    scenario = Scenario(
        name=top["name"],
        template=top["template"],
        description=top.get("description", ""),
        defined_workloads=top.get("workloads", ()),
        source=source,
        axes=extra,
        **axes,
    )
    # Registers the inline CDFs and resolves every name, each refusal
    # located at its key.
    scenario.validate()
    return scenario


def scenario_from_mapping(
    data: Any,
    *,
    source: str | None = None,
    lines: dict[_KeyPath, int] | None = None,
) -> Scenario:
    """Build and fully validate a :class:`Scenario` from parsed YAML data.

    Raises :class:`ScenarioError` — with ``source``/line context when
    available — for unknown keys, malformed values, invalid CDFs, indices
    the topology does not have, and scheme/workload names that do not
    resolve.  The returned scenario is guaranteed compilable (its inline
    workloads are registered).
    """
    try:
        return _at((), partial(_scenario, source=source), data)
    except _Refused as exc:
        # The best-known line is that of the longest known prefix of the path.
        known = [exc.path[:n] for n in range(len(exc.path), -1, -1)]
        line = next((lines[p] for p in known if p in lines), None) if lines else None
        raise ScenarioError(
            str(exc), source=source, line=line, key=".".join(exc.path) or None
        ) from exc


def load_scenario(path: Path_) -> Scenario:
    """Load, validate, and return the scenario in a YAML file.

    Everything that can go wrong — unreadable file, YAML syntax error,
    schema violations, unresolvable names — raises :class:`ScenarioError`
    with the file (and line, when known) attached.
    """
    yaml = _yaml()
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(
            f"cannot read scenario file: {exc}", source=str(path)
        ) from exc
    # One parse: compose the node tree once, read the line marks off it,
    # then construct the data from the same tree (what safe_load does).
    loader = yaml.SafeLoader(text)
    try:
        root = loader.get_single_node()
        lines = _line_map(yaml, root)
        data = None if root is None else loader.construct_document(root)
    except yaml.YAMLError as exc:
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ScenarioError(
            f"invalid YAML: {exc}", source=str(path), line=line
        ) from exc
    finally:
        loader.dispose()
    return scenario_from_mapping(data, source=str(path), lines=lines)


__all__ = ["ScenarioError", "load_scenario", "scenario_from_mapping"]
