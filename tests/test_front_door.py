"""The one front door: YAML files and CLI flags through one schema.

Pins what ISSUE 21 promised: committed scenarios keep their grids and
hashes, garbage is refused at load / parse time with a located
:class:`ScenarioError` (files) or exit code 2 and one line (CLI), flags
resolve to the spec the hand-built constructor used to produce, and the
schema tables are exactly what EXPERIMENTS.md documents.
"""

from __future__ import annotations

import copy
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import ExperimentSpec, ImbalanceMonitorSpec, QueueMonitorSpec
from repro.apps.traffic import IncastTraffic
from repro.cli import _resolve_point_spec, build_parser, main
from repro.faults import parse_fault
from repro.scenarios import Scenario, ScenarioError, loader, scenario_from_mapping
from repro.workloads import WORKLOADS

yaml = pytest.importorskip("yaml", reason="scenario files need PyYAML")

from repro.scenarios import load_scenario  # noqa: E402  (after the gate)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests/golden/scenario_grid_digests.json").read_text())


@pytest.mark.parametrize("path", sorted(GOLDEN))
def test_committed_scenarios_keep_their_grids_and_hashes(path):
    scenario = load_scenario(ROOT / path)
    assert {
        "points": scenario.point_count(),
        "grid_digest": scenario.grid_digest(),
        "content_hash": scenario.content_hash(),
    } == GOLDEN[path]


def test_every_committed_scenario_is_pinned():
    committed = {
        str(path.relative_to(ROOT))
        for directory in ("scenarios", "bench/scenarios")
        for path in (ROOT / directory).glob("*.yaml")
    }
    assert committed == set(GOLDEN)


# -- garbage is refused at the door, with a location ---------------------------------

HEAD = "name: probe\ntemplate:\n  scheme: ecmp\n  workload: enterprise\n"
YAML_PROBES = [
    # (template / grid lines, key the error names, line the error names)
    ("  load: .nan\n", "template.load", 5),
    ("  load: 0.5\n  size_scale: .inf\n", "template.size_scale", 6),
    ("  load: 0.5\ngrid:\n  loads: [.nan, -1.0]\n", "grid.loads.0", 7),
    ("  load: 0.5\ngrid:\n  loads: [0.5, -1.0]\n", "grid.loads.1", 7),
    ("  load: 0.5\n  clients: [999]\n", "template.clients.0", 6),
    ("  load: 0.5\n  failed_links: [[9, 9, 9]]\n", "template.failed_links.0.0", 6),
    ("  load: 0.5\n  failed_links: [[1, 1, 2]]\n", "template.failed_links.0.2", 6),
    (
        "  load: 0.5\n  queue_monitor: {tier: spine, leaf: 99}\n",
        "template.queue_monitor.leaf",
        6,
    ),
    ("  load: 0.5\n  queue_monitor: {tier: fabric, leaf: 1}\n", "template.queue_monitor", 6),
    ("  load: 0.5\n  imbalance_monitor: {leaf: 2}\n", "template.imbalance_monitor.leaf", 6),
    ("  load: 0.5\n  deadline: -5\n", "template.deadline", 6),
    ("  load: 0.5\n  tcp: {min_rto: -3ms}\n", "template.tcp.min_rto", 6),
    (
        "  load: 0.5\n  topology: {propagation_delay: -1}\n",
        "template.topology.propagation_delay",
        6,
    ),
    ("  load: 0.5\n  queue_monitor: {interval: 0}\n", "template.queue_monitor.interval", 6),
    ("  load: 0.5\n  obs:\n    timeline: {interval: 0us}\n", "template.obs.timeline.interval", 7),
    ("  load: 0.5\ngrid:\n  seeds: {base: 1, count: 1000000000}\n", "grid", 6),
    ("  load: 0.5\n  traffic: {burst: {}}\n", "template.traffic.burst", 6),
    ("  load: 0.5\n  traffic: {incast: {fan_in: 16}}\n", "template.traffic.incast.fan_in", 6),
    ("  load: 0.5\n  traffic: {poisson: {mean_gap: 0us}}\n", "template.traffic.poisson.mean_gap", 6),
    (
        "  load: 0.5\ngrid:\n  traffic:\n    - {hdfs: {}}\n    - {incast: {fan_in: 99}}\n",
        "grid.traffic.1.incast.fan_in",
        9,
    ),
    ("  load: 0.5\ngrid:\n  failed_links: [[], [[9, 0, 0]]]\n", "grid.failed_links.1.0.0", 7),
    ("  load: 0.5\ngrid:\n  tcp: []\n", "grid.tcp", 7),
    ("  load: 0.5\n  faults: [random_downs@0s=7]\n", "template.faults.0", 6),
    ("  load: 0.5\n  topology: {host_rate_bps: 0}\n", "template.topology", 6),
    ("  load: 0.5\n  topology: {fabric_rate_bps: 0}\n", "template.topology", 6),
    ("  load: 0.5\n  topology: {num_pods: 2, core_rate_bps: 0}\n", "template.topology", 6),
    ("  load: 0.5\n  topology: {host_queue_bytes: 0}\n", "template.topology", 6),
    ("  load: 0.5\n  topology: {fabric_queue_bytes: 0}\n", "template.topology", 6),
    ("  load: 0.5\n  topology: {ecn_threshold_bytes: 0}\n", "template.topology", 6),
    ("  load: 0.5\n  tcp: {initial_cwnd_segments: 0}\n", "template.tcp", 6),
    ("  load: 0.5\n  tcp: {receive_window: 0}\n", "template.tcp", 6),
    (
        "  load: 0.5\nworkloads:\n  mix:\n    points: [[1000, .nan], [2000, 1.0]]\n",
        "workloads.mix.points.0.1",
        8,
    ),
]


@pytest.mark.parametrize(
    "body, key, line", YAML_PROBES, ids=[probe[1] for probe in YAML_PROBES]
)
def test_yaml_garbage_is_refused_with_key_and_line(tmp_path, body, key, line):
    path = tmp_path / "probe.yaml"
    path.write_text(HEAD + body, encoding="utf-8")
    started = time.perf_counter()
    with pytest.raises(ScenarioError) as info:
        load_scenario(path)
    assert time.perf_counter() - started < 1.0  # the seed plan is never resolved
    assert (info.value.key, info.value.line) == (key, line)
    assert str(info.value).startswith(f"{path}:{line}: ")


CLI_PROBES = [
    line
    for line in (ROOT / "tests/cli_garbage_probes.txt").read_text().splitlines()
    if line and not line.startswith("#")
]


@pytest.mark.parametrize("argv", CLI_PROBES)
def test_cli_garbage_exits_2_with_one_line(capsys, argv):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran
    assert "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert re.match(r"conga-repro: (template|grid)\.[\w.]+: \S", line)


def test_an_unknown_backend_exits_2_with_one_line(capsys):
    assert main(["sweep", "--backend", "bogus", "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran
    assert captured.err.splitlines() == [
        "conga-repro: unknown backend 'bogus'; available: local, subprocess"
    ]


# -- a bad target is one rule: the file and the constructor refuse it alike ---------

#: Every target row of YAML_PROBES as the spec a Python caller would build.
PYTHON_TWINS = {
    "template.clients.0": {"clients": (999,)},
    "template.failed_links.0.0": {"failed_links": [(9, 9, 9)]},
    "template.failed_links.0.2": {"failed_links": [(1, 1, 2)]},
    "template.queue_monitor.leaf": {"queue_monitor": QueueMonitorSpec(tier="spine", leaf=99)},
    "template.imbalance_monitor.leaf": {"imbalance_monitor": ImbalanceMonitorSpec(leaf=2)},
    "template.traffic.incast.fan_in": {"traffic": IncastTraffic(fan_in=16)},
    "grid.traffic.1.incast.fan_in": {"traffic": IncastTraffic(fan_in=99)},
    "grid.failed_links.1.0.0": {"failed_links": [(9, 0, 0)]},
    "template.faults.0": {"faults": (parse_fault("random_downs@0s=7"),)},
}


def test_every_target_row_has_a_python_twin():
    targets = re.compile(r"clients|failed_links|monitor\.(leaf|spine)|fan_in|faults")
    assert {key for _body, key, _line in YAML_PROBES if targets.search(key)} == set(
        PYTHON_TWINS
    )


@pytest.mark.parametrize("key", sorted(PYTHON_TWINS))
def test_a_bad_target_is_refused_alike_by_the_file_and_the_constructor(tmp_path, key):
    (body,) = [body for body, row, _line in YAML_PROBES if row == key]
    path = tmp_path / "probe.yaml"
    path.write_text(HEAD + body, encoding="utf-8")
    with pytest.raises(ScenarioError) as from_file:
        load_scenario(path)
    with pytest.raises(ValueError) as from_python:  # at construction, before any run
        ExperimentSpec("ecmp", "enterprise", 0.5, **PYTHON_TWINS[key])
    assert str(from_python.value) == from_file.value.message


def test_parse_fault_refuses_unrepresentable_times():
    for text in ("link_down@infs:l0-s0", "link_down@1e400s:l0-s0", "link_down@nans:l0-s0"):
        with pytest.raises(ValueError) as info:
            parse_fault(text)
        assert not isinstance(info.value, OverflowError)


def test_parse_fault_names_a_non_numeric_part_and_its_fault():
    for text, part in (
        ("link_degrade@1ms:l0-s1=abc", "'=abc'"),
        ("link_loss@1ms:l0-s1~abc", "'~abc'"),
    ):
        with pytest.raises(ValueError) as info:
            parse_fault(text)
        assert part in str(info.value) and repr(text) in str(info.value)


def test_flags_resolve_to_the_spec_the_constructor_built():
    args = build_parser().parse_args(
        "fct --scheme conga --load 0.6 --flows 20 --size-scale 0.02 --seed 3 "
        "--fail-link 1,1,0 --fault link_degrade@1ms:l0-s0=0.5".split()
    )
    by_hand = ExperimentSpec(
        scheme="conga",
        workload="enterprise",
        load=0.6,
        num_flows=20,
        size_scale=0.02,
        seed=3,
        failed_links=[(1, 1, 0)],
        faults=(parse_fault("link_degrade@1ms:l0-s0=0.5"),),
    )
    spec = _resolve_point_spec(args)
    assert spec == by_hand
    # Recorded on the parent commit, where cli.py called the constructor itself.
    assert spec.content_hash() == (
        "af4c591887163ab869a38935f734ad2be3e4508c7adedfa83f3e70f974be5984"
    )


# -- fuzz: a Scenario or a ScenarioError, nothing else, and promptly -----------------

VALID = {
    "name": "fuzz",
    "description": "a mapping that uses every section",
    "template": {
        "scheme": "conga",
        "workload": "fuzz-mix",
        "load": 0.5,
        "seed": 3,
        "num_flows": 10,
        "size_scale": 0.05,
        "clients": [0, 1],
        "failed_links": [[1, 1, 0]],
        "faults": ["link_degrade@1ms:l0-s0=0.5", "blackout@2ms:spine1+1ms"],
        "deadline": "2s",
        "topology": {
            "num_leaves": 2, "hosts_per_leaf": 4, "host_queue_bytes": "1MB",
            "controller_period": "5ms", "params": {"flowlet_timeout": "300us"},
        },
        "tcp": {"min_rto": "1ms", "mss": 1460},
        "queue_monitor": {"tier": "spine", "leaf": 1, "interval": "10us"},
        "imbalance_monitor": {"leaf": 0},
        "obs": {"categories": ["flowlet"], "timeline": {"interval": "100us"}},
        "traffic": {"poisson": {"burst_bytes": "64KB", "mean_gap": "500us"}},
    },
    "grid": {
        "schemes": ["ecmp", "conga"],
        "loads": [0.3, 0.6],
        "seeds": {"base": 7, "count": 2},
        "traffic": [{"poisson": None}, {"incast": {"fan_in": 3, "requests": 1}}],
        "faults": [[], ["link_loss@1ms:l1-s1~1.0"]],
    },
    "workloads": {"fuzz-mix": {"points": [[1000, 0.5], [100000, 1.0]]}},
}

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # nan and the infinities included
    | st.text(max_size=12)
    | st.sampled_from(
        ["1ms", "-1s", "infs", "1e400s", "8MB", "40Gbps", "ecmp", "link_down@0:l9-s9", ""]
    )
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8) | st.integers(), children, max_size=4),
    max_leaves=12,
)


def _paths(tree, prefix=()):
    """Every (path) into a JSON-shaped tree, containers included."""
    yield prefix
    if isinstance(tree, (dict, list)):
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        for key, child in items:
            yield from _paths(child, prefix + (key,))


PATHS = [path for path in _paths(VALID) if path]


def _accepts_or_refuses(mapping) -> None:
    before = dict(WORKLOADS)
    started = time.perf_counter()
    try:
        result = scenario_from_mapping(mapping)
    except ScenarioError as exc:
        assert exc.message
    else:
        assert isinstance(result, Scenario)
    finally:
        for name in set(WORKLOADS) - set(before):
            del WORKLOADS[name]
    assert time.perf_counter() - started < 1.0


FUZZ = settings(
    deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow]
)


def test_the_fuzz_base_mapping_is_valid():
    _accepts_or_refuses(VALID)
    assert scenario_from_mapping(VALID).point_count() == 32
    WORKLOADS.pop("fuzz-mix", None)


@given(path=st.sampled_from(PATHS), value=TREES, delete=st.booleans())
@FUZZ
def test_mutated_valid_mappings_load_or_raise_scenario_error(path, value, delete):
    mapping = copy.deepcopy(VALID)
    node = mapping
    for key in path[:-1]:
        node = node[key]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    _accepts_or_refuses(mapping)


@given(tree=TREES)
@FUZZ
def test_arbitrary_trees_load_or_raise_scenario_error(tree):
    _accepts_or_refuses(tree)
    _accepts_or_refuses({"name": "t", "template": tree, "grid": tree})


# -- the schema tables are what EXPERIMENTS.md documents -----------------------------

DOCUMENTED_AS = {
    "(top level)": loader._SCENARIO,
    "template": loader._TEMPLATE,
    "template.topology (2-tier)": loader._LEAF_SPINE,
    "template.topology (multipod)": loader._MULTIPOD,
    "template.topology.params": loader._PARAMS,
    "template.tcp": loader._TCP,
    "template.queue_monitor": loader._QUEUE_MONITOR,
    "template.imbalance_monitor": loader._IMBALANCE_MONITOR,
    "template.obs": loader._OBS,
    "template.obs.timeline": loader._TIMELINE,
    "template.traffic.poisson": loader._POISSON,
    "template.traffic.incast": loader._INCAST,
    "template.traffic.hdfs": loader._HDFS,
    "grid": loader._GRID,
    "grid.seeds": loader._SEED_PLAN,
    "workloads.<name>": loader._WORKLOAD,
}


def _authoring_section() -> str:
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    start = text.index("## Authoring scenarios")
    return text[start : text.index("\n---\n", start)]


def test_every_schema_table_is_in_the_documented_map():
    tables = [v for v in vars(loader).values() if isinstance(v, loader._Section)]
    assert len(tables) == len(DOCUMENTED_AS)
    assert all(any(t is d for d in DOCUMENTED_AS.values()) for t in tables)


def test_experiments_md_documents_exactly_the_schema_keys():
    rows = re.findall(r"^\| ([^|]+) \| (.*`.*) \|$", _authoring_section(), re.M)
    documented = {
        section.replace("`", ""): set(re.findall(r"`([a-z_]+)`", keys))
        for section, keys in rows
    }
    assert documented == {
        section: set(table.keys) for section, table in DOCUMENTED_AS.items()
    }


def test_experiments_md_examples_load_through_the_schema():
    minimal = {
        "name": "doc",
        "template": {"scheme": "ecmp", "workload": "enterprise", "load": 0.5},
    }
    blocks = re.findall(r"```yaml\n(.*?)```", _authoring_section(), re.S)
    assert blocks
    try:
        for block in blocks:
            example = yaml.safe_load(block)
            mapping = {**minimal, **example}
            mapping["template"] = {**minimal["template"], **example.get("template", {})}
            assert isinstance(scenario_from_mapping(mapping), Scenario)
    finally:
        WORKLOADS.pop("my-mix", None)
