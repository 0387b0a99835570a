"""The §3.5 choice exists once: oracles for ``least_congested`` and its callers.

ROADMAP item 2(a), first rows.  With no hardware to compare against, the
checks are relations between *different* code paths that must agree exactly:

* the shared choice function against a reference written here, on the same
  inputs and identically seeded generators — same choice, same draws;
* ``caft`` with every health at 1.0 and no stale cell against ``conga``
  (``m / 1.0 == m`` exactly), decision by decision through a live run on
  the leaf-spine and the 2-pod fabric;
* ``local`` against ``conga`` over a To-Leaf table nothing ever wrote;
* ``conga`` with one uplink per leaf against ``ecmp``: with nothing to
  choose, the records, the event count and every port's packet count match;
* a one-pod ``MultiPodConfig`` against the ``LeafSpineConfig`` of the same
  shape and rates: the 2-tier fabric is the one-pod case of the one Clos, so
  records, event count and every leaf uplink's packet count match;
* the two readers of ``fault_reroutes`` — the end-of-run counter and the
  timeline series — against each other, on a run where pod spines reroute;
* a fault that changes nothing (degrade to full rate, zero loss, down and
  up at one instant, down after the last completion) against the fault-free
  run: the same records and port counts, one more event per applied fault;
* ``dctcp`` and ``conga-dctcp`` with the ECN threshold K above every queue
  against ``ecmp`` and ``conga``: with no CE mark ever set, DCTCP's window
  is Reno's, on the leaf-spine and the 2-pod fabric;
* ``hedera`` with a controller period past the deadline against ``ecmp``:
  a controller that never wakes pins nothing, and an unpinned
  ``CentralizedSelector`` hashes as ECMP does, on both fabrics;
* ``conga-flow`` against ``conga`` on a fabric whose ``params`` are
  ``CONGA_FLOW_PARAMS``: the same records, event count and flowlet
  decisions on both fabrics.
"""

import functools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.fct import records_digest
from repro.apps import ExperimentSpec, ObsSpec
from repro.core import CONGA_FLOW_PARAMS
from repro.faults import LinkDegrade, LinkDown, LinkLoss, LinkUp, parse_fault
from repro.lb import CaftSelector, CongaSelector, LocalAwareSelector
from repro.lb.caft import CaftCoreSelector
from repro.lb.conga import least_congested
from repro.net import Packet
from repro.obs import TimelineSpec, collect_run_metrics
from repro.sim import Simulator
from repro.sim.pcg64 import PCG64Stream
from repro.topology import LeafSpineConfig, build_leaf_spine, scaled_testbed
from repro.topology.multipod import MultiPodConfig
from repro.units import gbps, microseconds


def _reference(candidates, scores, previous, rng):
    """§3.5 as the paper states it, written without reading the source."""
    lowest = None
    for score in scores:
        if lowest is None or score < lowest:
            lowest = score
    ties = []
    for candidate, score in zip(candidates, scores):
        if score == lowest:
            ties.append(candidate)
    for candidate in ties:
        if candidate == previous:
            return previous  # sticky: only a strictly better path moves a flow
    return ties[int(rng.integers(len(ties)))]


_SCORES = st.one_of(
    st.integers(0, 7), st.sampled_from([0.0, 0.5, 3.0, 7 / 0.1, 8.0, float("inf")])
)


@settings(max_examples=300, deadline=None)
@given(
    scores=st.lists(_SCORES, min_size=1, max_size=8),
    previous=st.integers(-1, 9),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_shared_choice_matches_the_reference(scores, previous, seed, data):
    candidates = data.draw(
        st.lists(
            st.integers(0, 9), min_size=len(scores), max_size=len(scores), unique=True
        )
    )
    ours, theirs = PCG64Stream(seed), PCG64Stream(seed)
    assert least_congested(candidates, scores, previous, ours) == _reference(
        candidates, scores, previous, theirs
    )
    # Same number of draws: the generators are in the same state ...
    assert ours.state == theirs.state
    # ... and none at all when the minimum is unique or ``previous`` holds it.
    ties = [c for c, s in zip(candidates, scores) if s == min(scores)]
    if previous in ties:
        untouched = PCG64Stream(seed).state
        assert ours.state == untouched


TOPOLOGIES = {"leaf-spine": None, "multipod": MultiPodConfig()}


def _caft_spec(config):
    return ExperimentSpec(
        "caft", "enterprise", load=0.6, seed=23, num_flows=40, size_scale=0.02,
        config=config,
    )


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_healthy_caft_decides_as_conga_from_the_same_generator_state(
    topology, monkeypatch
):
    spec = _caft_spec(TOPOLOGIES[topology])
    caft_decide = CaftSelector._decide
    decisions = []

    def both(self, dst_leaf, candidates, previous, flow_id=-1):
        # Precondition of the relation: nothing degraded, nothing stale.
        table, stale_after = self.leaf.to_leaf_table, self._stale_after
        assert all(self.path_weight(dst_leaf, u) == 1.0 for u in candidates)
        assert all((table.age_of(dst_leaf, u) or 0) <= stale_after for u in candidates)
        rng = self._rng
        before = rng.state
        conga = CongaSelector._decide(self, dst_leaf, candidates, previous, flow_id)
        after_conga = rng.state
        rng.state = before
        caft = caft_decide(self, dst_leaf, candidates, previous, flow_id)
        assert caft == conga
        assert rng.state == after_conga
        decisions.append(caft)
        return caft

    monkeypatch.setattr(CaftSelector, "_decide", both)
    checked = spec.run_live()
    monkeypatch.undo()
    assert checked.completed == 40
    selectors = list(checked.fabric.selectors())
    assert len(decisions) == sum(getattr(s, "decisions", 0) for s in selectors) > 40
    assert all(s.fault_reroutes == 0 for s in selectors)
    # Asking twice perturbed nothing: the unchecked run is the same run.
    plain = spec.run_live()
    assert records_digest(list(plain.records)) == records_digest(list(checked.records))
    assert plain.sim.events_executed == checked.sim.events_executed


def test_local_is_conga_over_a_to_leaf_table_nothing_wrote():
    sim = Simulator(seed=3)
    fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=2))
    fabric.finalize(LocalAwareSelector.factory())
    leaf = fabric.leaves[0]
    local, conga = leaf.selector, CongaSelector(leaf)
    local._rng, conga._rng = PCG64Stream(17), PCG64Stream(17)
    uplinks = list(range(len(leaf.uplinks)))
    dice = random.Random(29)
    moved = 0
    for step in range(400):
        # Uneven load on the DREs, and enough idle time for flowlets of the
        # 40 recurring flows to expire with a remembered port.
        for _ in range(dice.randrange(6)):
            leaf.uplinks[dice.choice(uplinks)].dre.on_transmit(1500)
        sim.run(until=sim.now + microseconds(dice.choice([20, 400, 1200])))
        packet = Packet(
            src=0, dst=2, size=1500, sport=step % 40, dport=80, flow_id=step % 40
        )
        candidates = sorted(dice.sample(uplinks, dice.randint(1, len(uplinks))))
        previous = local.flowlets.lookup(packet.five_tuple).port
        choice = local.choose_uplink(packet, 1, candidates)
        assert choice == conga.choose_uplink(packet, 1, candidates)
        moved += previous not in (-1, choice)
    assert local._rng.state == conga._rng.state
    assert conga.decisions > 100 and moved > 10


@pytest.mark.parametrize("seed", [5, 31])
def test_conga_with_one_uplink_per_leaf_is_ecmp(seed):
    config = scaled_testbed(num_spines=1, links_per_pair=1)
    outcomes = []
    for scheme in ("ecmp", "conga"):
        live = ExperimentSpec(
            scheme, "enterprise", load=0.6, seed=seed, num_flows=40,
            size_scale=0.02, config=config,
        ).run_live()
        fabric = live.fabric
        ports = [host.nic for host in fabric.hosts.values()]
        for switch in (*fabric.leaves, *fabric.spines):
            ports.extend(switch.ports)
        assert live.completed == 40
        outcomes.append((
            records_digest(list(live.records)),
            live.sim.events_executed,
            [(port.name, port.tx_packets) for port in ports],
        ))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("scheme", ["ecmp", "conga", "caft"])
def test_one_pod_multipod_is_the_leaf_spine_fabric(scheme):
    shape = dict(hosts_per_leaf=4, links_per_pair=2)
    configs = (
        MultiPodConfig(
            num_pods=1, leaves_per_pod=2, spines_per_pod=2, num_cores=1, **shape
        ),
        LeafSpineConfig(
            num_leaves=2, num_spines=2, fabric_rate_bps=gbps(10), **shape
        ),
    )
    outcomes = []
    for config in configs:
        live = ExperimentSpec(
            scheme, "enterprise", load=0.6, seed=5, num_flows=60,
            size_scale=0.05, config=config,
        ).run_live()
        assert live.completed == 60
        outcomes.append((
            records_digest(list(live.records)),
            live.sim.events_executed,
            [port.tx_packets for port in live.fabric.leaf_uplink_ports()],
        ))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] > 100_000


def _outcome(live):
    """Records digest, event count and every port's packet count of one run."""
    fabric = live.fabric
    ports = [host.nic for host in fabric.hosts.values()]
    for switch in (*fabric.leaves, *fabric.spines, *fabric.cores):
        ports.extend(switch.ports)
    return (
        records_digest(list(live.records)),
        live.sim.events_executed,
        [(port.name, port.tx_packets) for port in ports],
    )


#: Each fabric case: its scheme, its config and the link a fault names there.
_DEGENERATE_CASES = {
    "ecmp": ("ecmp", None, {}),
    "conga": ("conga", None, {}),
    "caft": ("caft", None, {}),
    "caft-multipod-core": ("caft", MultiPodConfig(), {"spine": 1, "core": 0}),
}


def _degenerate_fault(kind, during, after, **target):
    """A fault schedule that changes nothing, with how many events it applies."""
    return {
        "degrade-to-full-rate": ((LinkDegrade(during, fraction=1.0, **target),), 1),
        "loss-of-zero": ((LinkLoss(during, probability=0.0, **target),), 1),
        "down-and-up-at-once": (
            (LinkDown(during, **target), LinkUp(during, **target)), 2
        ),
        "down-after-the-last-completion": ((LinkDown(after, **target),), 0),
    }[kind]


@functools.cache
def _fault_free(case):
    """The case's spec, its fault-free run's end time, completions and outcome."""
    scheme, config, _ = _DEGENERATE_CASES[case]
    spec = ExperimentSpec(
        scheme, "enterprise", load=0.6, seed=5, num_flows=40, size_scale=0.02,
        config=config,
    )
    clean = spec.run_live()
    return spec, clean.sim.now, clean.completed, _outcome(clean)


@pytest.mark.parametrize(
    "kind",
    [
        "degrade-to-full-rate",
        "loss-of-zero",
        "down-and-up-at-once",
        "down-after-the-last-completion",
    ],
)
@pytest.mark.parametrize("case", list(_DEGENERATE_CASES))
def test_a_degenerate_fault_is_the_fault_free_run(case, kind):
    spec, end, completed, (digest, events, ports) = _fault_free(case)
    assert completed == 40
    faults, applied = _degenerate_fault(
        kind, microseconds(100), end + 1, **_DEGENERATE_CASES[case][2]
    )
    live = spec.with_(faults=faults).run_live()
    assert len(live.injector.applied) == applied
    # A fault event that fires is one kernel event, and nothing else moves.
    assert _outcome(live) == (digest, events + applied, ports)


def test_counter_and_timeline_count_the_same_fault_reroutes():
    faults = tuple(
        parse_fault(f"link_degrade@100us:{link}=0.1") for link in ("s1-c0", "s2-c1")
    )
    live = ExperimentSpec(
        "caft", "enterprise", load=0.8, seed=42, num_flows=150, size_scale=0.03,
        config=MultiPodConfig(), faults=faults,
        obs=ObsSpec(categories=(), timeline=TimelineSpec()),
    ).run_live()
    by_tier = {CaftSelector: 0, CaftCoreSelector: 0}
    for selector in live.fabric.selectors():
        by_tier[type(selector)] += selector.fault_reroutes
    assert all(count > 0 for count in by_tier.values())  # both tiers rerouted
    assert live.timeline.samples == len(live.timeline.times)  # nothing decimated
    total = sum(by_tier.values())
    assert sum(live.timeline.fault_reroutes) == total
    assert collect_run_metrics(live).counters["lb.caft.fault_reroutes"] == total


#: The fabrics of the degenerate-DCTCP, Hedera and CONGA-Flow oracles, by test id.
_ECN_FABRICS = {"leaf-spine": scaled_testbed(), "multipod": MultiPodConfig()}


def _ecn_outcome(scheme, fabric, threshold):
    """``_outcome`` of one point with every port's ECN threshold at ``threshold``."""
    config = replace(_ECN_FABRICS[fabric], ecn_threshold_bytes=threshold)
    live = ExperimentSpec(
        scheme, "enterprise", load=0.7, seed=5, num_flows=40, size_scale=0.05,
        config=config,
    ).run_live()
    assert live.completed == 40
    return _outcome(live)


@pytest.mark.parametrize("fabric", list(_ECN_FABRICS))
@pytest.mark.parametrize("dctcp, plain", [("dctcp", "ecmp"), ("conga-dctcp", "conga")])
def test_dctcp_with_k_above_every_queue_is_its_reno_scheme(dctcp, plain, fabric):
    unmarked = _ecn_outcome(plain, fabric, 10**12)
    assert _ecn_outcome(dctcp, fabric, 10**12) == unmarked
    # The same point with a K the queues reach: DCTCP reacts, so the
    # relation above compares two transports, not one.
    assert _ecn_outcome(dctcp, fabric, 10_000)[0] != unmarked[0]


@pytest.mark.parametrize("fabric", list(_ECN_FABRICS))
def test_hedera_whose_controller_never_wakes_is_ecmp(fabric):
    spec = ExperimentSpec(
        "ecmp", "enterprise", load=0.7, seed=5, num_flows=40, size_scale=0.05
    )

    def outcome(scheme, period):
        config = replace(_ECN_FABRICS[fabric], controller_period=period)
        live = spec.with_(scheme=scheme, config=config).run_live()
        assert live.completed == 40
        return _outcome(live)

    never = spec.deadline + 1
    ecmp = outcome("ecmp", never)
    assert outcome("hedera", never) == ecmp
    # The same point with a controller that wakes every 100 us pins
    # elephants, so the relation above compares two schemes, not one.
    assert outcome("hedera", microseconds(100))[0] != ecmp[0]


def _flowlet_outcome(scheme, config):
    """Records digest, event count and flowlet decisions of one point."""
    live = ExperimentSpec(
        scheme, "enterprise", load=0.6, seed=3, num_flows=60, size_scale=0.1,
        config=config,
    ).run_live()
    assert live.completed == 60
    return (
        records_digest(list(live.records)),
        live.sim.events_executed,
        collect_run_metrics(live).counters["flowlet.decisions"],
    )


@pytest.mark.parametrize("fabric", list(_ECN_FABRICS))
def test_conga_flow_is_conga_on_the_conga_flow_params(fabric):
    # conga-flow hands its selector CONGA_FLOW_PARAMS and leaves the fabric's
    # block alone; only the flowlet table reads flowlet_timeout, so giving
    # the block to the whole fabric under plain conga changes nothing.
    config = _ECN_FABRICS[fabric]
    flow = _flowlet_outcome("conga-flow", config)
    assert _flowlet_outcome("conga", replace(config, params=CONGA_FLOW_PARAMS)) == flow
    # Plain conga on the default block splits flows into more flowlets, so
    # the relation above compares two timeouts, not one.
    assert _flowlet_outcome("conga", config)[2] > flow[2]
