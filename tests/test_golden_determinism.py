"""Golden determinism fixtures for the simulation kernel's hot paths.

The kernel, port, timer, and packet fast paths are rewritten for speed from
time to time (ISSUE 2's event-kernel overhaul being the first); these tests
pin sha256 digests of the *complete per-flow FCT records* of three schemes
(ecmp / conga / dctcp) on a small fixed-seed spec, so any refactor that
changes simulation behaviour — event ordering, timer firing, serialization
rounding — fails loudly instead of silently shifting the paper's figures.

The fixture was captured on the pre-optimization (PR 1) kernel; matching it
proves an optimized kernel is *bit-identical*, not just statistically close.

Regenerate (only when behaviour is changed on purpose)::

    PYTHONPATH=src python tests/test_golden_determinism.py --update
"""

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.fct import records_digest
from repro.apps import ExperimentSpec, ObsSpec
from repro.obs import TimelineSpec
from repro.topology import scaled_testbed
from repro.units import kilobytes

GOLDEN_PATH = Path(__file__).parent / "golden" / "summary_digests.json"

#: The pinned scenario: small enough for tier-1, busy enough that every hot
#: path (timers, fast retransmit, flowlets, DRE decay, ECN marking) runs.
SCHEMES = ("ecmp", "conga", "dctcp")


def golden_spec(scheme: str) -> ExperimentSpec:
    """The frozen spec each golden digest is computed from."""
    config = (
        scaled_testbed(ecn_threshold_bytes=kilobytes(100))
        if scheme == "dctcp"
        else None
    )
    return ExperimentSpec(
        scheme=scheme,
        workload="enterprise",
        load=0.6,
        seed=7,
        num_flows=60,
        size_scale=0.05,
        config=config,
    )


def compute_entry(scheme: str) -> dict:
    """Run the golden spec for ``scheme`` and summarize it for the fixture."""
    point = golden_spec(scheme).run()
    assert point.summary is not None
    return {
        "digest": records_digest(list(point.records)),
        "completed": point.completed,
        "arrivals": point.arrivals,
        "mean_normalized": point.summary.mean_normalized,
        "p99_normalized": point.summary.p99_normalized,
        "end_time": point.end_time,
    }


def _load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"golden fixture missing at {GOLDEN_PATH}; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_determinism.py --update`"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scheme", SCHEMES)
def test_summary_bit_identical(scheme):
    golden = _load_golden()
    assert scheme in golden, f"no golden entry for {scheme}; regenerate fixture"
    entry = compute_entry(scheme)
    expected = golden[scheme]
    # The digest covers every integer field of every flow record; the
    # aggregate fields are asserted too so a mismatch names what moved.
    assert entry["completed"] == expected["completed"]
    assert entry["arrivals"] == expected["arrivals"]
    assert entry["end_time"] == expected["end_time"]
    assert entry["mean_normalized"] == expected["mean_normalized"]
    assert entry["p99_normalized"] == expected["p99_normalized"]
    assert entry["digest"] == expected["digest"]


def test_same_process_repeatability():
    """Two runs of one spec in one process must agree exactly."""
    first = compute_entry("ecmp")
    second = compute_entry("ecmp")
    assert first == second


#: ``(digest, events_executed)`` of the two FCT specs the retired kernel
#: tracker followed, copied from its committed results before PR 16 deleted
#: it.  The pair, not just the digest: equal digests with a different event
#: count is the kernel-accounting bug class its A/B compare errored on.
CONGA_ENTERPRISE = ExperimentSpec(
    scheme="conga", workload="enterprise", load=0.7, seed=42, num_flows=400,
    size_scale=0.05,
)
ECMP_DATAMINING = ExperimentSpec(
    scheme="ecmp", workload="data-mining", load=0.6, seed=42, num_flows=400,
    size_scale=0.02,
)
CONGA_ENTERPRISE_PAIR = (
    "9013ca3c848b9c63f8c182d7dd35fb6fb32e2b96a4bcdbc2c0cc43f1c915e3d6",
    257_615,
)
ECMP_DATAMINING_PAIR = (
    "9f1b17c02653d3330fc46b3c653a93caf2a6d00cd09d6fb42cb603cdacf14657",
    320_895,
)


def _digest_and_events(spec: ExperimentSpec) -> tuple[str, int]:
    point = spec.run()
    return records_digest(list(point.records)), point.events_executed


def test_digest_and_event_accounting_of_the_tracked_fct_specs():
    assert _digest_and_events(CONGA_ENTERPRISE) == CONGA_ENTERPRISE_PAIR
    assert _digest_and_events(ECMP_DATAMINING) == ECMP_DATAMINING_PAIR
    # Every trace category on: the simulation and its accounting do not move.
    traced = CONGA_ENTERPRISE.with_(obs=ObsSpec())
    assert _digest_and_events(traced) == CONGA_ENTERPRISE_PAIR
    # Timeline on: same records; the collector's own sampling events are
    # the only additions to the kernel's count, one per sample.
    sampled = CONGA_ENTERPRISE.with_(
        obs=ObsSpec(categories=(), timeline=TimelineSpec())
    ).run()
    digest, events = CONGA_ENTERPRISE_PAIR
    assert records_digest(list(sampled.records)) == digest
    assert sampled.timeline.samples == 173
    assert sampled.events_executed == events + sampled.timeline.samples


def _update() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    golden = {scheme: compute_entry(scheme) for scheme in SCHEMES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    for scheme, entry in golden.items():
        print(f"  {scheme:<8} digest {entry['digest'][:16]}  "
              f"{entry['completed']}/{entry['arrivals']} flows")


if __name__ == "__main__":
    if "--update" in sys.argv:
        _update()
    else:
        print(__doc__)
