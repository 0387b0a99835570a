"""The import contract: a fresh process loads what it runs and nothing else.

DESIGN.md "Import layering" makes three promises — numpy is imported where
it is first called, a package ``__init__`` resolves its heavy siblings on
first access, and a worker child loads none of the parent-side runner until
a spec arrives.  ``sys.modules`` of the test process is no witness (pytest
and the other tests have loaded everything), so every check here runs in a
child interpreter and reads back what that child loaded.

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
from repro.faults import LinkDegrade
from repro.obs import TimelineSpec
from repro.runner import ResultCache
from repro.topology import MultiPodConfig
from repro.units import microseconds

SRC = str(Path(repro.__file__).parents[1])
PARENT_ENTRY = Path(__file__).parent / "golden" / "parent_cache_entry.pkl"

#: Never loaded by ``from repro.apps import ExperimentSpec`` or ``import
#: repro.runner``: numpy and the planes a spec has to name first.
OPTIONAL = (
    "numpy",
    "repro.analysis.htmlreport",
    "repro.analysis.report",
    "repro.topology.multipod",
    "repro.faults.injector",
    "repro.obs.manifest",
    "repro.transport.mptcp",
    "repro.apps.hdfs",
    "repro.apps.incast",
)

LAZIFIED = (
    "repro.analysis",
    "repro.apps",
    "repro.obs",
    "repro.runner",
    "repro.topology",
    "repro.transport",
)

#: Recorded on the parent commit (numpy imported at module level).
ECMP_STREAM_SEED_1 = [861679862, 898310277, 1014468457, 927224682]
DERIVED_SEEDS_42_3 = [1995841212, 1127323860, 1500080467]

#: Of ``planes_spec().run()`` on the parent commit, which also wrote
#: ``PARENT_ENTRY``.
PLANES_DIGESTS = {
    "records": "b3529ca87aaa56d88c9a964d67139f1833a6c9ee58bc3b84a56c0007704ffc04",
    "timeline": "76d61a32c27f975fe8d583c246da670e7a3ba16c6397df468e6c5824ebf48ace",
    "trace": "e6a938c644d6fb5a64745b20d71c393e7c60bfe55c115f4b91b88155fa7a3189",
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


def test_the_kernel_imports_nothing_above_it():
    loaded = loaded_after("import repro.sim")
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


def test_a_plain_run_loads_numpy_and_still_no_optional_plane():
    loaded = loaded_after(
        "from repro.apps import ExperimentSpec\n"
        "ExperimentSpec('conga', 'enterprise', load=0.5, num_flows=5,"
        " size_scale=0.02).run()"
    )
    assert "numpy" in loaded
    assert not loaded & (set(OPTIONAL) - {"numpy"})
    assert not loaded & {"repro.faults", "repro.obs.timeline", "subprocess"}


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
    assert digests(hit) == PLANES_DIGESTS
