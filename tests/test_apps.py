"""Tests for traffic generation, Incast, HDFS apps, and the harness."""

import pytest

from repro.analysis.fct import records_digest
from repro.apps import (
    CrossRackTraffic,
    ExperimentSpec,
    HdfsTraffic,
    HdfsWriteJob,
    ImbalanceMonitorSpec,
    IncastClient,
    IncastResult,
    IncastTraffic,
    PoissonTraffic,
    QueueMonitorSpec,
    SCHEMES,
    get_scheme,
    tcp_flow_factory,
    mptcp_flow_factory,
)
from repro.lb import CongaSelector, EcmpSelector
from repro.apps.traffic import pick_off_rack
from repro.sim import Simulator, run_until_idle
from repro.sim.pcg64 import PCG64Stream
from repro.topology import MultiPodConfig, build_leaf_spine, scaled_testbed
from repro.transport import TcpParams
from repro.units import kilobytes, megabytes, milliseconds, seconds
from repro.workloads import ENTERPRISE, WEB_SEARCH


def _fabric(seed=1, hosts_per_leaf=4, selector=None, **cfg):
    sim = Simulator(seed=seed)
    fabric = build_leaf_spine(sim, scaled_testbed(hosts_per_leaf=hosts_per_leaf, **cfg))
    fabric.finalize(selector or EcmpSelector.factory())
    return sim, fabric


def test_pick_off_rack_is_two_draws_off_the_hosts_leaf():
    """The leaf among the other leaves first, then a host under it."""
    _sim, fabric = _fabric(hosts_per_leaf=3)
    rng, twin = PCG64Stream(7), PCG64Stream(7)
    for host in sorted(fabric.hosts):
        for _ in range(50):
            picked = pick_off_rack(fabric, rng, host)
            others = [l.leaf_id for l in fabric.leaves if l.leaf_id != fabric.leaf_of(host)]
            under = fabric.hosts_under(others[twin.integers(len(others))])
            assert picked == under[twin.integers(len(under))]
            assert fabric.leaf_of(picked) != fabric.leaf_of(host)


class TestCrossRackTraffic:
    def _traffic(self, sim, fabric, load=0.3, num_flows=30, **kwargs):
        return CrossRackTraffic(
            sim,
            fabric,
            WEB_SEARCH,
            load,
            flow_factory=tcp_flow_factory(),
            num_flows=num_flows,
            size_scale=0.02,
            **kwargs,
        )

    def test_generates_requested_flow_count(self):
        sim, fabric = _fabric()
        traffic = self._traffic(sim, fabric)
        traffic.start()
        sim.run(until=seconds(10))
        assert traffic.stats.arrivals == 30
        assert traffic.stats.completed == 30
        assert traffic.stats.drained

    def test_all_flows_cross_racks(self):
        sim, fabric = _fabric()
        traffic = self._traffic(sim, fabric)
        traffic.start()
        sim.run(until=seconds(10))
        for record in traffic.stats.records:
            assert fabric.leaf_of(record.src) != fabric.leaf_of(record.dst)

    def test_records_have_ideal_fct(self):
        sim, fabric = _fabric()
        traffic = self._traffic(sim, fabric)
        traffic.start()
        sim.run(until=seconds(10))
        for record in traffic.stats.records:
            assert record.ideal_fct > 0
            assert record.fct >= 0
            assert record.normalized_fct >= 0.5

    def test_on_drained_fires_once(self):
        sim, fabric = _fabric()
        done = []
        traffic = self._traffic(sim, fabric)
        traffic.stats.on_drained = lambda: done.append(sim.now)
        traffic.start()
        sim.run(until=seconds(10))
        assert len(done) == 1

    def test_higher_load_means_faster_arrivals(self):
        sim1, fabric1 = _fabric()
        low = self._traffic(sim1, fabric1, load=0.1)
        low.start()
        sim1.run(until=seconds(30))
        sim2, fabric2 = _fabric()
        high = self._traffic(sim2, fabric2, load=0.9)
        high.start()
        sim2.run(until=seconds(30))
        low_span = max(r.start_time for r in low.stats.records)
        high_span = max(r.start_time for r in high.stats.records)
        assert high_span < low_span

    def test_validation(self):
        sim, fabric = _fabric()
        with pytest.raises(ValueError):
            CrossRackTraffic(
                sim, fabric, WEB_SEARCH, 0.0,
                flow_factory=tcp_flow_factory(), num_flows=10,
            )
        with pytest.raises(ValueError):
            CrossRackTraffic(
                sim, fabric, WEB_SEARCH, 0.5,
                flow_factory=tcp_flow_factory(), num_flows=0,
            )

    def test_mptcp_factory_works(self):
        sim, fabric = _fabric()
        traffic = CrossRackTraffic(
            sim, fabric, WEB_SEARCH, 0.3,
            flow_factory=mptcp_flow_factory(subflows=2),
            num_flows=5, size_scale=0.02,
        )
        traffic.start()
        sim.run(until=seconds(10))
        assert traffic.stats.completed == 5


class TestIncast:
    def test_request_completes_and_measures(self):
        sim, fabric = _fabric(hosts_per_leaf=8)
        servers = [h for h in sorted(fabric.hosts) if h != 0][:10]
        client = IncastClient(
            sim, fabric, client=0, servers=servers,
            flow_factory=tcp_flow_factory(),
            request_bytes=megabytes(1), repeats=3,
        )
        client.start()
        run_until_idle(sim)
        assert client.stats.drained
        assert len(client.result.request_durations) == 3

    def test_effective_throughput_bounded_by_line_rate(self):
        sim, fabric = _fabric(hosts_per_leaf=8)
        servers = [h for h in sorted(fabric.hosts) if h != 0][:8]
        client = IncastClient(
            sim, fabric, client=0, servers=servers,
            flow_factory=tcp_flow_factory(),
            request_bytes=megabytes(1), repeats=2,
        )
        client.start()
        run_until_idle(sim)
        line_rate = fabric.host(0).nic.rate_bps
        percent = client.result.throughput_percent(line_rate)
        assert 0 < percent <= 100.5

    def test_stripes_sum_to_request(self):
        sim, fabric = _fabric(hosts_per_leaf=8)
        servers = [1, 2, 3]
        received = []
        factory = tcp_flow_factory()

        def counting_factory(src, dst, size, done):
            received.append(size)
            return factory(src, dst, size, done)

        client = IncastClient(
            sim, fabric, client=0, servers=servers,
            flow_factory=counting_factory,
            request_bytes=900_000, repeats=1,
        )
        client.start()
        run_until_idle(sim)
        assert received == [300_000] * 3

    def test_validation(self):
        sim, fabric = _fabric()
        with pytest.raises(ValueError):
            IncastClient(
                sim, fabric, client=0, servers=[],
                flow_factory=tcp_flow_factory(),
            )
        with pytest.raises(ValueError):
            IncastClient(
                sim, fabric, client=0, servers=[0, 1],
                flow_factory=tcp_flow_factory(),
            )


class TestHdfs:
    def test_job_completes(self):
        sim, fabric = _fabric(hosts_per_leaf=4)
        job = HdfsWriteJob(
            sim, fabric, flow_factory=tcp_flow_factory(),
            block_bytes=200_000, blocks_per_writer=1,
        )
        job.start()
        run_until_idle(sim)
        assert job.stats.drained
        assert max(r.start_time + r.fct for r in job.stats.records) > 0
        assert job.stats.arrivals == 16

    def test_replication_traffic_pattern(self):
        """Each block creates one cross-rack and one intra-rack transfer."""
        sim, fabric = _fabric(hosts_per_leaf=4)
        transfers = []
        factory = tcp_flow_factory()

        def recording_factory(src, dst, size, done):
            transfers.append((src.host_id, dst.host_id))
            return factory(src, dst, size, done)

        job = HdfsWriteJob(
            sim, fabric, flow_factory=recording_factory, block_bytes=100_000
        )
        job.start()
        run_until_idle(sim)
        assert len(transfers) == 16  # 8 writers x 2 transfers
        cross = sum(
            1 for s, d in transfers if fabric.leaf_of(s) != fabric.leaf_of(d)
        )
        assert cross >= 8  # writer->replica1 is always off-rack

    def test_needs_two_racks(self):
        sim = Simulator()
        fabric = build_leaf_spine(
            sim, scaled_testbed(hosts_per_leaf=2, num_leaves=1)
        )
        fabric.finalize(EcmpSelector.factory())
        with pytest.raises(ValueError):
            HdfsWriteJob(sim, fabric, flow_factory=tcp_flow_factory())


class TestExperimentHarness:
    def test_all_schemes_registered(self):
        # Built-in schemes (experiments may register more dynamically).
        assert {
            "ecmp", "conga", "conga-flow", "mptcp", "local", "spray", "hedera"
        } <= set(SCHEMES)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            get_scheme("bogus")

    def test_runs_and_summarizes(self):
        result = ExperimentSpec(
            "conga", "web-search", 0.4, num_flows=40, size_scale=0.02, seed=2
        ).run_live()
        assert result.completed == 40
        assert result.unfinished == 0
        assert result.summary.count == 40
        assert result.summary.mean_normalized >= 1.0 or result.summary.mean_normalized > 0

    def test_failed_links_passed_through(self):
        result = ExperimentSpec(
            "conga", "web-search", 0.3, num_flows=20,
            size_scale=0.02, failed_links=[(1, 1, 0)], seed=2,
        ).run_live()
        failed = result.fabric.uplink_ports(1, 1)[0]
        assert not failed.up
        assert result.completed == 20

    def test_monitors_attached(self):
        from repro.units import microseconds

        result = ExperimentSpec(
            "ecmp", "web-search", 0.5,
            num_flows=40, size_scale=0.02, seed=2,
            imbalance_monitor=ImbalanceMonitorSpec(leaf=0, interval=microseconds(50)),
            queue_monitor=QueueMonitorSpec(tier="spine", spine=0, leaf=0),
        ).run_live()
        assert result.imbalance_series is not None
        assert len(result.imbalance_series.samples) > 0
        assert result.queue_series is not None

    def test_schemes_share_the_scenario(self):
        spec = ExperimentSpec("ecmp", "web-search", 0.4, num_flows=30, size_scale=0.02, seed=4)
        results = {name: spec.with_(scheme=name).run_live() for name in ("ecmp", "conga")}
        sizes_e = [r.size for r in results["ecmp"].records]
        sizes_c = [r.size for r in results["conga"].records]
        assert sorted(sizes_e) == sorted(sizes_c)  # same sampled workload

    def test_deterministic_given_seed(self):
        spec = ExperimentSpec("conga", "web-search", 0.5, num_flows=30, size_scale=0.02, seed=9)
        a, b = spec.run_live(), spec.run_live()
        assert [r.fct for r in a.records] == [r.fct for r in b.records]


_RTO_1MS = TcpParams(min_rto=milliseconds(1), initial_rto=milliseconds(1))

#: One spec per traffic shape, on the scaled leaf-spine and the multi-pod Clos.
DRAIN_SPECS = {
    "poisson": ExperimentSpec(
        "conga", "enterprise", 0.5, seed=3, num_flows=40, size_scale=0.05
    ),
    "paced": ExperimentSpec(
        "conga", "enterprise", 0.5, seed=3, num_flows=30, size_scale=0.05,
        traffic=PoissonTraffic(burst_bytes=65_536), tcp_params=_RTO_1MS,
    ),
    "incast": ExperimentSpec(
        "ecmp", "enterprise", 0.5, seed=3, tcp_params=_RTO_1MS,
        traffic=IncastTraffic(fan_in=5, request_bytes=megabytes(1), requests=2),
    ),
    "hdfs": ExperimentSpec(
        "conga", "enterprise", 0.5, seed=3, tcp_params=_RTO_1MS,
        traffic=HdfsTraffic(block_bytes=200_000, blocks_per_writer=2),
    ),
    "multipod": ExperimentSpec(
        "conga", "enterprise", 0.5, seed=3, num_flows=30, size_scale=0.05,
        config=MultiPodConfig(),
    ),
}

#: ``(records_digest, events_executed)`` of each spec, recorded while each
#: generator still stopped the run through its own completion callback.
DRAIN_PINS = {
    "poisson": ("a3b67c5a7f0c0437d90eb40646466a562847048124839d734c9d8fe8ce28c3a9", 38407),
    "paced": ("5a3c5cc54e08ebecc4972479a4153d89e3d05badfd746c8a97eb52712944d12c", 35048),
    "incast": ("0e544392be9955bfe42051d8f9d11858945024dede41aea421cb45fe20eeb3ef", 10960),
    "hdfs": ("08ac6bbf315faec185ceec4fca5d1e102d24de52344de6a47023c38f16ad9fb8", 105216),
    "multipod": ("78bb22ec81b650df03e360f20b55948f6b9149c3d4543928c2382ade463f35d2", 27943),
}


class TestDrainRule:
    """The flow ledger ends the run: closed, and every started flow done."""

    @pytest.mark.parametrize("name", sorted(DRAIN_SPECS))
    def test_the_run_stops_on_the_last_completion(self, name):
        point = DRAIN_SPECS[name].run()
        assert point.arrivals == point.completed > 0
        assert point.end_time == max(r.start_time + r.fct for r in point.records)
        pin = (records_digest(list(point.records)), point.events_executed)
        assert pin == DRAIN_PINS[name]

    def test_a_generator_without_a_hook_runs_until_idle(self):
        # DRAIN_SPECS["incast"] built by hand, as the incast_rto bench
        # workload builds its client.
        sim, fabric = _fabric(
            seed=3, hosts_per_leaf=scaled_testbed().hosts_per_leaf,
            selector=get_scheme("ecmp").make_selector(),
        )
        client = IncastClient(
            sim, fabric, client=0, servers=[1, 2, 3, 4, 5],
            flow_factory=tcp_flow_factory(_RTO_1MS),
            request_bytes=megabytes(1), repeats=2,
        )
        client.start()
        # Nothing stops the run: it reaches its horizon with the heap empty.
        assert sim.run(until=seconds(120)) == seconds(120)
        assert client.stats.on_drained is None and client.stats.drained
        assert not sim.pending_live_events
        # No live event outlasts the last completion, so the hooked spec run
        # executed the very same events.
        assert (records_digest(client.stats.records), sim.events_executed) == DRAIN_PINS["incast"]


class TestTrafficIsData:
    """A traffic description run through a spec is the run built by hand."""

    PARAMS = TcpParams(min_rto=milliseconds(1), initial_rto=milliseconds(1))
    PACED = PoissonTraffic(burst_bytes=65_536)

    def _spec(self, scheme, traffic, **kwargs):
        return ExperimentSpec(
            scheme, "enterprise", 0.5, seed=1,
            config=scaled_testbed(hosts_per_leaf=8), tcp_params=self.PARAMS,
            traffic=traffic, **kwargs,
        )

    @pytest.mark.parametrize("scheme", ["conga", "mptcp"])
    def test_incast_spec_is_the_hand_built_client(self, scheme):
        sim, fabric = _fabric(hosts_per_leaf=8, selector=get_scheme(scheme).make_selector())
        done_at = []
        client = IncastClient(
            sim, fabric, client=0, servers=[1, 2, 3, 4, 5],
            flow_factory=get_scheme(scheme).make_flow_factory(self.PARAMS),
            request_bytes=megabytes(1), repeats=2,
        )
        client.stats.on_drained = lambda: done_at.append(sim.now)
        client.start()
        run_until_idle(sim)
        traffic = IncastTraffic(fan_in=5, request_bytes=megabytes(1), requests=2)
        point = self._spec(scheme, traffic).run()
        assert records_digest(list(point.records)) == records_digest(client.stats.records)
        from_spec = IncastResult.from_records(5, megabytes(1), point.records)
        assert from_spec == client.result
        # Requests run back to back from time 0: the last ends when the job does.
        assert [sum(from_spec.request_durations)] == done_at == [point.end_time]

    def test_hdfs_spec_is_the_hand_built_job(self):
        sim, fabric = _fabric(hosts_per_leaf=8, selector=CongaSelector.factory())
        job = HdfsWriteJob(
            sim, fabric, flow_factory=tcp_flow_factory(self.PARAMS),
            block_bytes=200_000, blocks_per_writer=2,
        )
        job.start()
        run_until_idle(sim)
        point = self._spec("conga", HdfsTraffic(block_bytes=200_000, blocks_per_writer=2)).run()
        assert records_digest(list(point.records)) == records_digest(job.stats.records)
        # Every transfer starts at time 0, so the job ends with its last record.
        completion_time = max(r.start_time + r.fct for r in job.stats.records)
        assert max(r.start_time + r.fct for r in point.records) == completion_time
        assert completion_time == point.end_time
        # 16 writers x 2 blocks, two replica transfers per block.
        assert point.arrivals == point.completed == job.stats.arrivals == 2 * 32

    def test_paced_spec_is_the_hand_built_generator(self):
        sim, fabric = _fabric(hosts_per_leaf=8, selector=CongaSelector.factory())
        traffic = CrossRackTraffic(
            sim, fabric, ENTERPRISE, 0.5, num_flows=30, size_scale=0.05,
            flow_factory=tcp_flow_factory(self.PARAMS, pacing=self.PACED),
        )
        traffic.stats.on_drained = sim.stop
        traffic.start()
        sim.run(until=seconds(20))
        spec = self._spec("conga", self.PACED, num_flows=30, size_scale=0.05)
        point = spec.run()
        assert records_digest(list(point.records)) == records_digest(traffic.stats.records)
        unpaced = spec.with_(traffic=PoissonTraffic()).run()
        assert records_digest(list(unpaced.records)) != records_digest(list(point.records))

    def test_mptcp_connections_run_unpaced(self):
        spec = self._spec("mptcp", self.PACED, num_flows=20, size_scale=0.05)
        paced, plain = spec.run(), spec.with_(traffic=PoissonTraffic()).run()
        assert records_digest(list(paced.records)) == records_digest(list(plain.records))

    def test_default_traffic_is_hash_neutral(self):
        spec = ExperimentSpec("conga", "enterprise", 0.5)
        assert spec.traffic == PoissonTraffic()
        assert spec.with_(traffic=PoissonTraffic()).content_hash() == spec.content_hash()
        assert spec.with_(traffic=self.PACED).content_hash() != spec.content_hash()

    def test_label_names_traffic_that_reads_no_workload(self):
        spec = ExperimentSpec("conga", "enterprise", 0.5, seed=4)
        assert spec.label() == "conga enterprise load=0.5 seed=4"
        assert spec.with_(traffic=self.PACED).label() == spec.label()
        incast = spec.with_(traffic=IncastTraffic(fan_in=7, requests=1))
        assert incast.label() == (
            "conga IncastTraffic(fan_in=7, request_bytes=10000000, requests=1) seed=4"
        )
        assert "enterprise" not in spec.with_(traffic=HdfsTraffic()).label()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ExperimentSpec("conga", "enterprise", 0.5, traffic="incast"),
            lambda: IncastTraffic(fan_in=0),
            lambda: IncastTraffic(fan_in=2, requests=0),
            lambda: PoissonTraffic(burst_bytes=1, mean_gap=0),
            lambda: HdfsTraffic(blocks_per_writer=0),
        ],
        ids=["not-a-description", "fan_in", "requests", "mean_gap", "blocks"],
    )
    def test_garbage_traffic_is_refused(self, make):
        with pytest.raises((TypeError, ValueError)):
            make()

    def test_conga_dctcp_marks_at_its_threshold_unless_the_topology_sets_one(self):
        spec = ExperimentSpec(
            "conga-dctcp", "enterprise", 0.6, seed=3, num_flows=40, size_scale=0.05
        )
        own = spec.run_live()
        assert {p.queue.ecn_threshold_bytes for p in own.fabric.fabric_ports()} == {
            kilobytes(100)
        }
        explicit = spec.with_(config=scaled_testbed(ecn_threshold_bytes=kilobytes(100)))
        assert records_digest(own.records) == records_digest(explicit.run_live().records)
        shallower = spec.with_(config=scaled_testbed(ecn_threshold_bytes=kilobytes(50)))
        assert {
            p.queue.ecn_threshold_bytes for p in shallower.run_live().fabric.fabric_ports()
        } == {kilobytes(50)}
