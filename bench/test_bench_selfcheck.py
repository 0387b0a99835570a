"""Self-check of the benchmark itself (not part of tier-1: ``testpaths`` is tests/).

Run with ``python -m pytest bench -q``.  Uses ``--selfcheck`` sizes, so the
numbers are meaningless; what is asserted is the shape: names printed are the
names in BENCHMARK.json, every check fires on a corrupted input, a different
seed changes digests but not names, and --compare reaches each verdict.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchlib import checks, load_contract, report

RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CONTRACT = load_contract()


def run_all(tmp_path: Path, seed: int, *extra: str) -> dict:
    out = tmp_path / f"result-{seed}.json"
    done = subprocess.run(
        [*RUN, "--selfcheck", "--seconds", "0.2", "--seed", str(seed), "--out", str(out), *extra],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def result(tmp_path_factory) -> dict:
    return run_all(tmp_path_factory.mktemp("bench"), 42, "--traced")


def test_contract_shape():
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert len(CONTRACT["workloads"]) == 7
    assert len(CONTRACT["end_to_end"]) <= 8
    assert len(CONTRACT["per_layer"]) <= 128
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


def test_names_printed_are_the_contract_names(result):
    assert list(result["workloads"]) == [w["name"] for w in CONTRACT["workloads"]]
    assert result["claim"] is None
    for section in ("end_to_end", "per_layer"):
        wanted = {m["name"] for m in CONTRACT[section]}
        measured = set()
        for name, runs in result["workloads"].items():
            detail = runs[section]
            assert detail["failed"] == 0 and detail["attempted"] >= 1, detail["failures"]
            assert not detail["unmeasured"]
            measured |= set(detail[section])
            if section == "end_to_end":  # every workload reports all of them, none 0
                assert set(detail[section]) == wanted, name
                assert all(stat["value"] > 0 for stat in detail[section].values()), name
        assert measured == wanted


def test_contract_line_has_exactly_the_contract_names():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [*RUN, "--selfcheck", "--workload", "ecmp_datamining", "--seed", "7",
             "--seconds", "0.2", "--trace", str(trace)],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in CONTRACT[section]]
        assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


def test_traced_attribution(result):
    for name in ("conga_enterprise", "ecmp_datamining", "incast_rto", "conga_obs_on",
                 "caft_fault_multipod"):
        layer = result["workloads"][name]["per_layer"]["per_layer"]
        shares = [v["value"] for k, v in layer.items() if k.endswith(".share")]
        assert len(shares) == 12 and abs(sum(shares) - 1.0) < 0.01
        assert layer["trace.overhead_x"]["value"] > 1.0
    layer = {n: result["workloads"][n]["per_layer"]["per_layer"] for n in result["workloads"]}
    assert layer["ecmp_datamining"]["flowlet.decisions"]["value"] == 0
    assert layer["conga_enterprise"]["flowlet.decisions"]["value"] > 0
    assert layer["conga_obs_on"]["trace.emitted"]["value"] > 0
    assert layer["caft_fault_multipod"]["layer.faults.calls"]["value"] > 0
    assert (result["workloads"]["conga_obs_on"]["per_layer"]["digest"]
            == result["workloads"]["conga_enterprise"]["per_layer"]["digest"])


def test_another_seed_changes_digests_not_names(result, tmp_path):
    other = run_all(tmp_path, 43)
    for name, runs in result["workloads"].items():
        ours, theirs = runs["end_to_end"], other["workloads"][name]["end_to_end"]
        assert set(ours["end_to_end"]) == set(theirs["end_to_end"])
        assert set(ours["per_layer"]) == set(theirs["per_layer"])
        if ours["digest"] is not None:
            assert ours["digest"] != theirs["digest"], name


# -- every check fires on a corrupted input, and only then ------------------------

GOOD = {
    "arrivals": 10, "completed": 10, "digest": "a" * 64,
    "counts": {"kernel.events_executed": 5, "port.in_flight_packets": 0},
}


def corrupted(**changes) -> dict:
    sample = copy.deepcopy(GOOD)
    counts = changes.pop("counts", {})
    sample.update(changes)
    sample["counts"].update(counts)
    return sample


def test_repeat_checks():
    assert checks.check_repeat("r", GOOD) == []
    assert checks.check_repeat("r", corrupted(completed=9))
    assert checks.check_repeat("r", corrupted(counts={"port.in_flight_packets": -1}))
    assert checks.check_repeats_identical([("a", GOOD), ("b", corrupted())]) == []
    flipped = checks.check_repeats_identical([("a", GOOD), ("b", corrupted(digest="b" * 64))])
    assert [op for op, _ in flipped] == ["b"]
    assert checks.check_repeats_identical(
        [("a", GOOD), ("b", corrupted(counts={"kernel.events_executed": 6}))]
    )
    assert checks.check_reference_digest("r", "a", "a", "x") == []
    assert checks.check_reference_digest("r", "a", "b", "x")


def test_sweep_checks():
    good = dict(points=48, expected_points=48, failures=0, digest="d", reference="d",
                warm=True, all_cached=True)
    assert checks.check_sweep_pass("p", **good) == []
    for change in ({"points": 47}, {"failures": 1}, {"digest": "e"}, {"all_cached": False}):
        assert checks.check_sweep_pass("p", **{**good, **change}), change
    assert checks.check_sweep_pass("p", **{**good, "warm": False, "all_cached": False}) == []


def test_share_check_and_fail_count():
    assert checks.check_shares("t", {"a": 0.6, "b": 0.4}) == []
    assert checks.check_shares("t", {"a": 0.6, "b": 0.3})
    assert checks.failed_operations([("a", "x"), ("a", "y"), ("b", "z")]) == 2


# -- --compare ----------------------------------------------------------------------


def test_compare_verdicts(result):
    lines, status = report.compare(result, result, CONTRACT, force=False)
    assert status == 0 and not any(line.endswith("worse") for line in lines)
    assert lines[-1] == "sim counts and digests: all equal"

    slower = copy.deepcopy(result)
    stat = slower["workloads"]["incast_rto"]["end_to_end"]["end_to_end"]["events_per_s"]
    for key in ("value", "min", "max"):
        stat[key] /= 2
    counts = slower["workloads"]["incast_rto"]["end_to_end"]["per_layer"]
    counts["kernel.events_executed"]["value"] += 1
    lines, status = report.compare(result, slower, CONTRACT, force=False)
    assert status == 1
    assert sum(line.endswith("worse") for line in lines) == 1
    assert any("kernel.events_executed differs" in line for line in lines)

    noisy = copy.deepcopy(result)
    stat = noisy["workloads"]["incast_rto"]["end_to_end"]["end_to_end"]["events_per_s"]
    stat["min"], stat["max"], stat["n"] = stat["value"] / 2, stat["value"] * 2, 3
    lines, _ = report.compare(result, noisy, CONTRACT, force=False)
    assert any(line.endswith("unresolved") for line in lines)

    other_seed = {**result, "seed": 43}
    lines, status = report.compare(result, other_seed, CONTRACT, force=False)
    assert status == 2 and "refusing" in lines[-1]
    assert report.compare(result, other_seed, CONTRACT, force=True)[1] == 0
    other_box = {**result, "fingerprint": {**result["fingerprint"], "nproc": 64}}
    assert report.compare(result, other_box, CONTRACT, force=False)[1] == 2
