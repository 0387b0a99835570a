"""The import contract: a fresh process loads what it runs and nothing else.

DESIGN.md "Import layering" makes five promises — building, running,
collecting or caching a packet point, or running a flow-level one, imports
no numpy (only the numpy programs do: ``theory``, ``traces``, the claim
table), a package ``__init__`` resolves its heavy siblings on first
access, a worker child
loads none of the parent-side runner until a spec arrives, describing a
point loads none of the engine that runs it until it runs, and naming a
scheme, a fault or a seed plan (a scenario file, a CLI parser, a fully
cached sweep) is describing.  ``sys.modules``
of the test process is no witness (pytest and the other tests have loaded
everything), so every check here runs in a child interpreter and reads back
what that child loaded.

The second half pins what deferral must not change: the random streams, and
that the planes now loaded on demand (multipod, faults, timeline, trace,
mptcp) are reachable from a cold process through every entry point — a
direct run, the worker protocol, and a cache entry written by the parent
commit (``tests/golden/parent_cache_entry.pkl``; pickles name classes by
module, so moving one breaks this file's load).
"""

import base64
import json
import os
import pickle
import shutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import repro
from repro.analysis.fct import records_digest
from repro.apps import ExperimentSpec, ObsSpec
from repro.faults import LinkDegrade, RandomLinkDowns
from repro.obs import TimelineSpec
from repro.runner import ResultCache
from repro.topology import MultiPodConfig, scaled_testbed
from repro.units import microseconds

SRC = str(Path(repro.__file__).parents[1])
ROOT = Path(SRC).parent
SCENARIOS = sorted(ROOT.glob("scenarios/*.yaml")) + sorted(ROOT.glob("bench/scenarios/*.yaml"))
TINY = str(ROOT / "scenarios" / "tiny_smoke.yaml")
PARENT_ENTRY = Path(__file__).parent / "golden" / "parent_cache_entry.pkl"

#: Never loaded by ``from repro.apps import ExperimentSpec``, ``import
#: repro.runner`` or a plain run: numpy and the planes a spec has to name first.
OPTIONAL = (
    "numpy",
    "repro.analysis.claims",
    "repro.analysis.htmlreport",
    "repro.analysis.report",
    "repro.topology.multipod",
    "repro.faults.injector",
    "repro.obs.manifest",
    "repro.transport.mptcp",
    "repro.apps.hdfs",
    "repro.apps.incast",
)

#: What a run executes: kernel, nodes, ports, queues, switches, selectors,
#: congestion state, trace events and the metrics collector.  Describing,
#: hashing, pickling or dispatching a point loads none of it; the first run
#: does.  The scheme registry (``apps.experiment``) is not here: a scheme's
#: name is part of a description, and its entry imports the selector it
#: builds when a run calls it.
ENGINE = (
    "repro.core.dre",
    "repro.core.flowlet",
    "repro.core.tables",
    "repro.lb",
    "repro.lb.conga",
    "repro.lb.ecmp",
    "repro.net.node",
    "repro.net.port",
    "repro.net.queue",
    "repro.obs.events",
    "repro.obs.metrics",
    "repro.sim.kernel",
    "repro.switch.fabric",
    "repro.switch.leaf",
    "repro.switch.spine",
)

LAZIFIED = (
    "repro.analysis",
    "repro.apps",
    "repro.core",
    "repro.faults",
    "repro.net",
    "repro.obs",
    "repro.runner",
    "repro.sim",
    "repro.topology",
    "repro.transport",
)

#: Recorded on the parent commit (numpy imported at module level).
ECMP_STREAM_SEED_1 = [861679862, 898310277, 1014468457, 927224682]
DERIVED_SEEDS_42_3 = [1995841212, 1127323860, 1500080467]

#: Of ``planes_spec().run()`` on the commit that wrote ``PARENT_ENTRY``: a
#: cache entry holds what its run recorded.
PARENT_ENTRY_DIGESTS = {
    "records": "b3529ca87aaa56d88c9a964d67139f1833a6c9ee58bc3b84a56c0007704ffc04",
    "timeline": "76d61a32c27f975fe8d583c246da670e7a3ba16c6397df468e6c5824ebf48ace",
    "trace": "e6a938c644d6fb5a64745b20d71c393e7c60bfe55c115f4b91b88155fa7a3189",
}

#: Of a fresh ``planes_spec().run()``.  The records are the parent entry's;
#: the timeline and trace moved when each core port was named after the pod
#: spine it faces (two pod spines' ports used to share ``core0->pod0``).
PLANES_DIGESTS = {
    **PARENT_ENTRY_DIGESTS,
    "timeline": "c0cce4182ac6cb7c8f161e13db9b88b8855c110f337b0c45a494b27cc6362a4a",
    "trace": "c7542466effea38137249000222e8738cf6334b487159ee1dd6cdd224fc8f57c",
}


def planes_spec() -> ExperimentSpec:
    """One point through every plane a plain run leaves unloaded."""
    return ExperimentSpec(
        "caft", "enterprise", load=0.6, seed=5, num_flows=12, size_scale=0.02,
        config=MultiPodConfig(hosts_per_leaf=2),
        faults=(
            LinkDegrade(microseconds(50), spine=0, core=0, fraction=0.25),
            LinkDegrade(microseconds(450), spine=0, core=0, fraction=1.0),
        ),
        obs=ObsSpec(
            buffer_limit=64,
            timeline=TimelineSpec(interval=microseconds(100), limit=32),
        ),
    )


def digests(result) -> dict:
    return {
        "records": records_digest(list(result.records)),
        "timeline": result.timeline.digest(),
        "trace": result.trace.digest(),
    }


def cold(*args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter (``-c code ...`` or ``-m module``) that can import ``repro``."""
    return subprocess.run(
        [sys.executable, *args],
        input=stdin, capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def loaded_after(statements: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``statements``."""
    code = f"{statements}\nimport sys, json\nprint(json.dumps(sorted(sys.modules)))"
    return set(json.loads(cold("-c", code).stdout.splitlines()[-1]))


# -- what a fresh process does not load ------------------------------------------


def test_building_a_spec_loads_neither_numpy_nor_an_optional_plane():
    loaded = loaded_after(
        "from repro.apps import ExperimentSpec\n"
        "ExperimentSpec('conga', 'enterprise', load=0.5)"
    )
    assert "repro.apps.spec" in loaded
    assert not loaded & {*OPTIONAL, "subprocess"}


def test_describing_a_point_loads_no_engine_and_running_it_does():
    code = (
        "import json, pickle, sys\n"
        "from repro.apps import ExperimentSpec\n"
        "spec = ExperimentSpec('conga', 'enterprise', load=0.5, num_flows=5,"
        " size_scale=0.02)\n"
        "spec = pickle.loads(pickle.dumps(spec.with_(seed=2)))\n"
        "spec.content_hash()\n"
        "described = sorted(sys.modules)\n"
        "spec.run()\n"
        "print(json.dumps([described, sorted(sys.modules)]))"
    )
    described, ran = map(set, json.loads(cold("-c", code).stdout.splitlines()[-1]))
    assert not described & set(ENGINE)
    assert set(ENGINE) <= ran


def test_a_topology_config_loads_no_engine():
    # A config is part of a spec's description: building one, or unpickling
    # a spec (or a cached PointResult) that carries one, loads no engine.
    specs = [
        ExperimentSpec("conga", "enterprise", load=0.5, config=config)
        for config in (scaled_testbed(), MultiPodConfig(hosts_per_leaf=2))
    ]
    blob = base64.b64encode(pickle.dumps(specs)).decode()
    code = (
        "import base64, json, pickle, sys\n"
        "from repro.topology import scaled_testbed\n"
        "scaled_testbed()\n"
        "built = sorted(sys.modules)\n"
        "specs = pickle.loads(base64.b64decode(sys.stdin.read()))\n"
        "print(json.dumps([built, sorted(sys.modules)]))"
    )
    built, unpickled = map(
        set, json.loads(cold("-c", code, stdin=blob).stdout.splitlines()[-1])
    )
    assert "repro.topology.leafspine" in built
    assert "repro.topology.multipod" in unpickled
    assert not unpickled & set(ENGINE)


def test_load_engine_warms_everything_a_run_imports():
    code = (
        "import json, sys\n"
        "from repro.apps import ExperimentSpec\n"
        "from repro.apps.spec import load_engine\n"
        "load_engine()\n"
        "warm = set(sys.modules)\n"
        "ExperimentSpec('conga', 'enterprise', load=0.5, num_flows=5,"
        " size_scale=0.02).run()\n"
        "print(json.dumps(sorted(set(sys.modules) - warm)))"
    )
    new = json.loads(cold("-c", code).stdout.splitlines()[-1])
    assert [m for m in new if m.startswith("repro")] == []


def test_a_forking_sweep_loads_the_engine_in_the_parent_before_its_workers():
    # The parent runs no point itself; its children inherit what it loaded.
    code = (
        "import json, sys\n"
        "from repro.apps import ExperimentSpec\n"
        "from repro.runner import LocalBackend, run_sweep\n"
        "specs = [ExperimentSpec('ecmp', 'enterprise', load=0.5, seed=s, num_flows=4,"
        " size_scale=0.02) for s in (1, 2)]\n"
        "before = sorted(sys.modules)\n"
        "done = run_sweep(specs, backend=LocalBackend(workers=2), cache=None)\n"
        "assert done.executed == 2 and not done.failures\n"
        "print(json.dumps([before, sorted(sys.modules)]))"
    )
    before, after = map(set, json.loads(cold("-c", code).stdout.splitlines()[-1]))
    assert not before & set(ENGINE)
    assert set(ENGINE) <= after


def test_the_kernel_imports_nothing_above_it():
    loaded = loaded_after("from repro.sim import Simulator")
    assert {m for m in loaded if m.startswith("repro")} == {
        "repro", "repro.sim", "repro.sim.kernel", "repro.units",
    }


def test_importing_the_runner_loads_none_of_it():
    loaded = loaded_after("import repro.runner")
    assert not loaded & set(OPTIONAL)
    assert {m for m in loaded if m.startswith("repro.runner")} == {
        "repro.runner", "repro.runner.failures",
    }


def test_a_worker_child_answers_ping_without_the_parent_side_runner():
    # ``python -m repro.runner.worker``, with the child reporting its own
    # sys.modules after the protocol loop returns.
    code = (
        "import json, runpy, sys\n"
        "try:\n"
        "    runpy.run_module('repro.runner.worker', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    assert done.code == 0\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    lines = cold("-c", code, stdin='{"op":"ping"}\n{"op":"exit"}\n').stdout.splitlines()
    assert json.loads(lines[0]) == {"ok": True, "op": "pong"}
    loaded = set(json.loads(lines[-1]))
    assert {m for m in loaded if m.startswith("repro.runner")} == {
        "repro.runner", "repro.runner.failures",
    }
    assert not loaded & {"numpy", "repro.apps", "repro.sim.kernel"}


def test_a_plain_run_loads_no_numpy_and_no_optional_plane():
    loaded = loaded_after(
        "from repro.apps import ExperimentSpec\n"
        "ExperimentSpec('conga', 'enterprise', load=0.5, num_flows=5,"
        " size_scale=0.02).run()"
    )
    assert "repro.sim.pcg64" in loaded
    assert not loaded & set(OPTIONAL)
    assert not loaded & {"repro.faults", "repro.obs.timeline", "subprocess"}


def _loaded_running(spec: ExperimentSpec) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``spec.run()``."""
    code = (
        "import base64, json, pickle, sys\n"
        "pickle.loads(base64.b64decode(sys.stdin.read())).run()\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    blob = base64.b64encode(pickle.dumps(spec)).decode()
    return set(json.loads(cold("-c", code, stdin=blob).stdout.splitlines()[-1]))


def test_no_plane_loads_numpy():
    # Multipod, faults, timeline and trace all at once ...
    assert "numpy" not in _loaded_running(planes_spec())
    # ... and the failed-link set drawn from a seeded stream.
    random_links = ExperimentSpec(
        "conga", "enterprise", load=0.5, seed=3, num_flows=6, size_scale=0.02,
        faults=(RandomLinkDowns(time=0, count=2),),
    )
    loaded = _loaded_running(random_links)
    assert "repro.topology.failures" in loaded and "numpy" not in loaded


def test_a_worker_s_first_run_loads_no_numpy():
    request = {
        "op": "run", "id": 1,
        "spec": base64.b64encode(pickle.dumps(ExperimentSpec(
            "conga", "enterprise", load=0.5, num_flows=5, size_scale=0.02
        ))).decode(),
    }
    code = (
        "import json, runpy, sys\n"
        "try:\n"
        "    runpy.run_module('repro.runner.worker', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    assert done.code == 0\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    lines = cold("-c", code, stdin=json.dumps(request) + '\n{"op":"exit"}\n').stdout.splitlines()
    assert json.loads(lines[0])["ok"]
    loaded = set(json.loads(lines[-1]))
    assert "repro.apps.spec" in loaded and "numpy" not in loaded


def test_a_flow_level_run_loads_no_numpy():
    loaded = loaded_after(
        "from repro.fluid import run_flow_level\n"
        "from repro.topology import scaled_testbed\n"
        "from repro.workloads import ENTERPRISE\n"
        "done = run_flow_level(scaled_testbed(), ENTERPRISE, 0.6, num_flows=40)\n"
        "assert len(done) == 40"
    )
    assert "repro.fluid.flowsim" in loaded and "repro.sim.pcg64" in loaded
    assert "numpy" not in loaded


def test_compiling_a_seed_plan_loads_no_numpy():
    scenario = Path(SRC).parent / "scenarios" / "caft_recovery.yaml"
    loaded = loaded_after(
        "from repro.scenarios import load_scenario\n"
        f"assert len(load_scenario({str(scenario)!r}).compile()) == 105"
    )
    assert "repro.scenarios.loader" in loaded and "numpy" not in loaded


# -- naming a scheme, a fault or a seed plan loads no engine ------------------------

#: A scenario names faults, so loading one may load ``faults.events``; the
#: injector that applies them is engine, and optional besides.
NOT_DESCRIPTION = {*ENGINE, "repro.faults.injector"}


def test_compiling_a_committed_scenario_loads_no_engine():
    # One child compiles every file in turn and reports, after each, which
    # refused module is loaded so far: the first non-empty entry names it.
    code = (
        "import json, sys\n"
        "from repro.runner import run_sweep\n"
        "from repro.scenarios import load_scenario\n"
        "refused = set(json.loads(sys.argv[1]))\n"
        "loaded = {}\n"
        "for path in sys.argv[2:]:\n"
        "    assert load_scenario(path).compile()\n"
        "    loaded[path] = sorted(refused.intersection(sys.modules))\n"
        "print(json.dumps(loaded))"
    )
    done = cold("-c", code, json.dumps(sorted(NOT_DESCRIPTION)), *map(str, SCENARIOS))
    assert json.loads(done.stdout) == {str(path): [] for path in SCENARIOS}


def _loaded_by_cli(*argv: str) -> set[str]:
    """``sys.modules`` of a fresh ``python -m repro.cli *argv`` that exited 0."""
    code = (
        "import json, runpy, sys\n"
        "sys.argv = ['conga-repro', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('repro.cli', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    assert not done.code, done.code\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    return set(json.loads(cold("-c", code, *argv).stdout.splitlines()[-1]))


def test_listing_lint_rules_loads_no_engine():
    loaded = _loaded_by_cli("lint", "--list-rules")
    assert "repro.lint.cli" in loaded
    assert not loaded & NOT_DESCRIPTION


def test_the_cli_parser_keeps_no_copy_of_a_registry():
    # Scheme, workload and backend names are resolved by the schema and
    # get_backend, not by parser choices=, so a command that names none of
    # them loads none of the registries.
    loaded = _loaded_by_cli("lint", "--list-rules")
    assert not loaded & {"repro.apps", "repro.workloads", "repro.runner.backends"}


def test_importing_run_sweep_loads_no_backend():
    # The backends and their process plumbing load when a sweep builds one.
    loaded = loaded_after("from repro.runner import run_sweep")
    assert "repro.runner.dispatch" in loaded
    assert not loaded & {"repro.runner.backends", "subprocess", "selectors"}


def test_validating_scenarios_from_the_cli_loads_no_engine():
    loaded = _loaded_by_cli("scenario", "validate", *map(str, SCENARIOS))
    assert "repro.scenarios.loader" in loaded
    assert not loaded & NOT_DESCRIPTION


def test_a_fully_cached_sweep_loads_no_engine(tmp_path):
    from repro.runner import run_sweep
    from repro.scenarios import load_scenario

    first = run_sweep(load_scenario(TINY).compile(), workers=0, cache=tmp_path)
    assert first.executed == 2 and not first.failures
    loaded = loaded_after(
        "from repro.runner import run_sweep\n"
        "from repro.scenarios import load_scenario\n"
        f"done = run_sweep(load_scenario({TINY!r}).compile(), workers=0,"
        f" cache={str(tmp_path)!r})\n"
        "assert (done.executed, done.cached, done.failures) == (0, 2, [])"
    )
    # A cache entry's pickle names ``MetricsReport``, which lives beside the
    # collector in ``obs.metrics`` (a pickled class does not move); the module
    # itself imports only ``core.series``.
    assert "repro.obs.metrics" in loaded
    assert not loaded & (NOT_DESCRIPTION - {"repro.obs.metrics"})


def test_an_unknown_scheme_in_a_grid_is_refused_with_its_place_cold(tmp_path):
    path = tmp_path / "typo.yaml"
    path.write_text(
        "name: typo\n"
        "template: {scheme: ecmp, workload: enterprise, load: 0.5}\n"
        "grid:\n"
        "  schemes: [ecmp, bogus]\n"
    )
    code = (
        "import json, sys\n"
        "from repro.scenarios import ScenarioError, load_scenario\n"
        "try:\n"
        "    load_scenario(sys.argv[1])\n"
        "except ScenarioError as exc:\n"
        "    print(json.dumps([str(exc), exc.key, sorted(sys.modules)]))"
    )
    message, key, loaded = json.loads(cold("-c", code, str(path)).stdout)
    assert key == "grid.schemes.1"
    assert message.startswith(
        f"{path}:4: unknown scheme 'bogus'; registered schemes: caft, conga, "
        "conga-dctcp, conga-flow, dctcp, ecmp, hedera, local, mptcp, spray."
    )
    assert not set(loaded) & NOT_DESCRIPTION


def test_a_scheme_registered_in_process_validates_without_the_engine():
    code = (
        "import dataclasses, json, sys\n"
        "from repro.apps import get_scheme, register_scheme\n"
        "from repro.scenarios import scenario_from_mapping\n"
        "register_scheme(dataclasses.replace(get_scheme('conga'), name='conga-copy'))\n"
        "scenario = scenario_from_mapping({\n"
        "    'name': 'copy',\n"
        "    'template': {'scheme': 'ecmp', 'workload': 'enterprise', 'load': 0.5},\n"
        "    'grid': {'schemes': ['ecmp', 'conga-copy']},\n"
        "})\n"
        "print(json.dumps([[s.scheme for s in scenario.compile()], sorted(sys.modules)]))"
    )
    schemes, loaded = json.loads(cold("-c", code).stdout)
    assert schemes == ["ecmp", "conga-copy"]
    assert not set(loaded) & NOT_DESCRIPTION


# -- a lazified package still looks like a package ---------------------------------


@pytest.mark.parametrize("package", LAZIFIED)
def test_every_exported_name_resolves_lists_and_star_imports(package):
    code = (
        "import importlib, json, sys\n"
        "pkg = importlib.import_module(sys.argv[1])\n"
        "unlisted = sorted(set(pkg.__all__) - set(dir(pkg)))\n"
        "unresolved = [n for n in pkg.__all__ if not hasattr(pkg, n)]\n"
        "star = {}\n"
        "exec(f'from {sys.argv[1]} import *', star)\n"
        "missing = sorted(set(pkg.__all__) - set(star))\n"
        "try:\n"
        "    pkg.no_such_name\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "print(json.dumps([unlisted, unresolved, missing, error]))"
    )
    unlisted, unresolved, missing, error = json.loads(cold("-c", code, package).stdout)
    assert (unlisted, unresolved, missing) == ([], [], [])
    assert package in error and "no_such_name" in error


@pytest.mark.parametrize("package", LAZIFIED)
def test_a_deferred_name_is_the_sibling_s_own_object(package):
    pkg = import_module(package)
    for sibling, names in pkg._DEFERRED.items():
        module = import_module(f"{package}.{sibling}")
        for name in names:
            assert name in pkg.__all__
            assert getattr(pkg, name) is getattr(module, name)


# -- deferral cannot move a stream, and every plane is reachable cold --------------


def test_streams_match_the_parent_commit_when_numpy_loads_late():
    code = (
        "import json, sys\n"
        "from repro.runner import derive_seeds\n"
        "from repro.sim import Simulator\n"
        "assert 'numpy' not in sys.modules\n"
        "rng = Simulator(seed=1).rng('ecmp')\n"
        "draws = [int(rng.integers(1 << 31)) for _ in range(4)]\n"
        "print(json.dumps([draws, derive_seeds(42, 3)]))"
    )
    assert json.loads(cold("-c", code).stdout) == [ECMP_STREAM_SEED_1, DERIVED_SEEDS_42_3]


def _cold_run(spec: ExperimentSpec):
    """``spec.run()`` in a fresh interpreter that has imported nothing."""
    code = (
        "import base64, pickle, sys\n"
        "result = pickle.loads(base64.b64decode(sys.stdin.read())).run()\n"
        "print(base64.b64encode(pickle.dumps(result)).decode())"
    )
    blob = base64.b64encode(pickle.dumps(spec)).decode()
    return pickle.loads(base64.b64decode(cold("-c", code, stdin=blob).stdout))


def test_multipod_faults_timeline_and_trace_run_from_a_cold_process():
    result = _cold_run(planes_spec())
    assert digests(result) == PLANES_DIGESTS
    assert result.tier_asymmetry == (("core", 0.09375),)
    assert result.degradation().window_start == microseconds(50)


def test_mptcp_runs_from_a_cold_process():
    spec = ExperimentSpec(
        "mptcp", "enterprise", load=0.5, seed=3, num_flows=6, size_scale=0.02
    )
    assert records_digest(list(_cold_run(spec).records)) == records_digest(
        list(spec.run().records)
    )


def test_the_worker_protocol_reaches_every_plane():
    request = {
        "op": "run", "id": 7,
        "spec": base64.b64encode(pickle.dumps(planes_spec())).decode(),
    }
    done = cold(
        "-m", "repro.runner.worker", stdin=json.dumps(request) + '\n{"op":"exit"}\n'
    )
    reply = json.loads(done.stdout.splitlines()[0])
    assert reply["ok"] and reply["id"] == 7
    assert digests(pickle.loads(base64.b64decode(reply["result"]))) == PLANES_DIGESTS


def test_a_parent_written_cache_entry_loads_in_a_cold_process(tmp_path):
    spec = planes_spec()
    shutil.copy(PARENT_ENTRY, ResultCache(tmp_path).path(spec))
    code = (
        "import base64, pickle, sys\n"
        "from repro.runner import ResultCache\n"
        "spec = pickle.loads(base64.b64decode(sys.stdin.read()))\n"
        "hit = ResultCache(sys.argv[1]).get(spec)\n"
        "assert hit is not None and hit.from_cache and hit.spec == spec\n"
        "print(base64.b64encode(pickle.dumps(hit)).decode())"
    )
    blob = base64.b64encode(pickle.dumps(spec)).decode()
    hit = pickle.loads(base64.b64decode(cold("-c", code, str(tmp_path), stdin=blob).stdout))
    assert digests(hit) == PARENT_ENTRY_DIGESTS
