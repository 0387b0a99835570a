"""Tests for the declarative scenario API (repro.scenarios).

Covers the two contracts the scenario plane guarantees:

* **Hash fidelity** — a scenario compiles to the *exact* spec grid (and
  content hashes) the equivalent hand-written ``sweep_grid`` call builds,
  so committed scenarios never invalidate existing ``.repro-cache/``
  entries.
* **Typed errors with provenance** — every loader failure is a
  :class:`ScenarioError` carrying the source file and YAML line, so a
  typo'd scenario fails as ``file.yaml:12: ...`` instead of a stack
  trace mid-sweep.

The ``scenario_smoke`` marker selects the committed-file checks CI runs
against every ``scenarios/*.yaml``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.apps import ExperimentSpec
from repro.core import CongaParams
from repro.faults import LinkDown
from repro.runner import derive_seeds, sweep_grid
from repro.scenarios import Scenario, ScenarioError, SeedPlan, scenario_from_mapping
from repro.topology import LeafSpineConfig
from repro.transport import TcpParams
from repro.units import megabytes, microseconds, milliseconds
from repro.workloads import BUILTIN_WORKLOAD_NAMES, WORKLOADS

yaml = pytest.importorskip("yaml", reason="scenario files need PyYAML")

from repro.scenarios import load_scenario  # noqa: E402  (after the gate)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
COMMITTED = sorted(SCENARIO_DIR.glob("*.yaml"))

TEMPLATE = ExperimentSpec(
    scheme="ecmp",
    workload="enterprise",
    load=0.5,
    num_flows=250,
    size_scale=0.05,
    seed=31,
)


def load_text(tmp_path: Path, text: str, name: str = "scenario.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return load_scenario(path)


class TestScenarioValues:
    def test_seed_plan_matches_derive_seeds(self):
        plan = SeedPlan(base=31, count=4)
        assert plan.resolve() == tuple(derive_seeds(31, 4))

    def test_seed_plan_rejects_empty(self):
        with pytest.raises(ValueError):
            SeedPlan(base=1, count=0)

    def test_compile_is_bit_identical_to_sweep_grid(self):
        scenario = Scenario(
            name="fig9",
            template=TEMPLATE,
            schemes=("ecmp", "conga"),
            loads=(0.3, 0.5),
            seeds=SeedPlan(base=31, count=2),
        )
        hand = sweep_grid(
            TEMPLATE,
            schemes=["ecmp", "conga"],
            loads=[0.3, 0.5],
            seeds=derive_seeds(31, 2),
        )
        assert scenario.compile() == hand
        assert list(scenario.grid_hashes()) == [
            spec.content_hash() for spec in hand
        ]

    def test_point_count_matches_compile(self):
        scenario = Scenario(
            name="grid",
            template=TEMPLATE,
            schemes=("ecmp", "conga"),
            loads=(0.3, 0.5, 0.7),
        )
        assert scenario.point_count() == 6 == len(scenario.compile())

    def test_template_field_axes_are_the_outer_loops(self):
        fast = TcpParams(min_rto=milliseconds(1))
        failed = ((), ((1, 1, 0),))
        mapping = {
            "name": "axes",
            "template": {"scheme": "ecmp", "workload": "enterprise", "load": 0.5,
                         "seed": 31, "num_flows": 250, "size_scale": 0.05},
            "grid": {
                "schemes": ["ecmp", "conga"],
                "tcp": [None, {"min_rto": "1ms"}],
                "failed_links": [[], [[1, 1, 0]]],
            },
        }
        scenario = scenario_from_mapping(mapping)
        hand = [
            spec
            for tcp in (TcpParams(), fast)
            for links in failed
            for spec in sweep_grid(
                TEMPLATE.with_(tcp_params=tcp, failed_links=links),
                schemes=["ecmp", "conga"],
            )
        ]
        assert scenario.point_count() == 8
        assert scenario.compile() == hand
        assert scenario.axes == (("tcp_params", (TcpParams(), fast)), ("failed_links", failed))

    def test_unknown_scheme_fails_validation(self):
        scenario = Scenario(
            name="bad", template=TEMPLATE, schemes=("ecmp", "bogus")
        )
        with pytest.raises(ValueError, match="bogus"):
            scenario.validate()

    def test_content_hash_ignores_source(self):
        a = Scenario(name="x", template=TEMPLATE, source="/a/b.yaml")
        b = Scenario(name="x", template=TEMPLATE, source=None)
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_faults_axis_runs_healthy_then_each_schedule(self):
        down = (LinkDown(time=0, leaf=1, spine=1),)
        scenario = Scenario(
            name="f", template=TEMPLATE, schemes=("ecmp", "conga"),
            axes=(("faults", ((), down)),),
        )
        assert [spec.faults for spec in scenario.compile()] == [(), (), down, down]


class TestYamlLoader:
    def test_round_trip_hashes_equal_hand_built_grid(self, tmp_path):
        scenario = load_text(
            tmp_path,
            """
            name: fig9-enterprise
            template:
              scheme: ecmp
              workload: enterprise
              load: 0.5
              seed: 31
              num_flows: 250
              size_scale: 0.05
            grid:
              schemes: [ecmp, conga-flow, conga, mptcp]
              loads: [0.3, 0.5, 0.7, 0.9]
            """,
        )
        hand = sweep_grid(
            TEMPLATE,
            schemes=["ecmp", "conga-flow", "conga", "mptcp"],
            loads=[0.3, 0.5, 0.7, 0.9],
        )
        assert scenario.compile() == hand
        assert list(scenario.grid_hashes()) == [
            spec.content_hash() for spec in hand
        ]

    def test_units_resolve_to_value_objects(self, tmp_path):
        scenario = load_text(
            tmp_path,
            """
            name: tuned
            template:
              scheme: conga
              workload: enterprise
              load: 0.5
              tcp: {min_rto: 200ms}
              topology: {hosts_per_leaf: 32, host_queue_bytes: 8MB}
            grid:
              seeds: {base: 31, count: 2}
            """,
        )
        template = scenario.template
        assert template.tcp_params == TcpParams(min_rto=milliseconds(200))
        assert template.config == LeafSpineConfig(
            hosts_per_leaf=32, host_queue_bytes=megabytes(8)
        )
        assert scenario.seed_list() == tuple(derive_seeds(31, 2))

    def test_unknown_key_error_carries_file_and_line(self, tmp_path):
        with pytest.raises(ScenarioError) as info:
            load_text(
                tmp_path,
                "name: broken\n"
                "template:\n"
                "  scheme: ecmp\n"
                "  workload: enterprise\n"
                "  load: 0.5\n"
                "  num_flowz: 10\n",
            )
        err = info.value
        assert err.source and err.source.endswith("scenario.yaml")
        assert err.line == 6
        assert "num_flowz" in str(err)
        assert "scenario.yaml:6:" in str(err)

    def test_bad_cdf_error_carries_file_and_line(self, tmp_path):
        with pytest.raises(ScenarioError) as info:
            load_text(
                tmp_path,
                "name: badcdf\n"
                "template:\n"
                "  scheme: ecmp\n"
                "  workload: my-mix\n"
                "  load: 0.5\n"
                "workloads:\n"
                "  my-mix:\n"
                "    points: [[1000, 0.9], [2000, 0.2]]\n",
            )
        err = info.value
        assert err.source and err.line == 8
        assert "non-decreasing" in str(err)

    def test_unknown_scheme_names_grid_index(self, tmp_path):
        with pytest.raises(ScenarioError) as info:
            load_text(
                tmp_path,
                "name: typo\n"
                "template:\n"
                "  scheme: ecmp\n"
                "  workload: enterprise\n"
                "  load: 0.5\n"
                "grid:\n"
                "  schemes: [ecmp, bogus]\n",
            )
        assert "bogus" in str(info.value)
        assert info.value.line == 7

    def test_yaml_syntax_error_is_scenario_error(self, tmp_path):
        with pytest.raises(ScenarioError) as info:
            load_text(tmp_path, "name: [unclosed\n")
        assert info.value.source is not None

    def test_a_scenario_file_is_composed_once(self, tmp_path, monkeypatch):
        composed = []
        compose_document = yaml.composer.Composer.compose_document

        def counting(loader):
            composed.append(loader)
            return compose_document(loader)

        monkeypatch.setattr(yaml.composer.Composer, "compose_document", counting)
        scenario = load_text(
            tmp_path,
            "name: once\n"
            "template: {scheme: ecmp, workload: enterprise, load: 0.5}\n"
            "grid: {loads: [0.3, 0.5]}\n",
        )
        assert scenario.point_count() == 2
        assert len(composed) == 1  # the data and the line marks share one tree

    def test_a_key_beside_a_merge_key_keeps_its_line(self, tmp_path):
        # The line marks are read before construction flattens ``<<`` in place.
        with pytest.raises(ScenarioError) as info:
            load_text(
                tmp_path,
                "name: merged\n"
                "template:\n"
                "  scheme: ecmp\n"
                "  workload: enterprise\n"
                "  load: 0.5\n"
                "  topology:\n"
                "    <<: {hosts_per_leaf: 32}\n"
                "    host_queue_bytez: 8MB\n",
            )
        assert "host_queue_bytez" in str(info.value)
        assert info.value.line == 8

    def test_missing_file_is_scenario_error(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nope.yaml")

    def test_inline_workload_registers_and_compiles(self, tmp_path):
        scenario = load_text(
            tmp_path,
            """
            name: custom
            template:
              scheme: ecmp
              workload: test-inline-mix
              load: 0.4
              num_flows: 10
            workloads:
              test-inline-mix:
                points: [[1000, 0.5], [1000000, 1.0]]
            """,
        )
        specs = scenario.compile()
        assert len(specs) == 1
        assert specs[0].workload == "test-inline-mix"
        assert "test-inline-mix" in WORKLOADS
        assert "test-inline-mix" not in BUILTIN_WORKLOAD_NAMES

    def test_mapping_loader_needs_no_file(self):
        scenario = scenario_from_mapping(
            {
                "name": "inline",
                "template": {
                    "scheme": "ecmp",
                    "workload": "enterprise",
                    "load": 0.5,
                },
                "grid": {"loads": [0.3, 0.6]},
            }
        )
        assert scenario.point_count() == 2


class TestTopologyParams:
    """``topology.params`` is the fabric's CongaParams, ``controller_period`` hedera's."""

    HEAD = "name: params\ntemplate:\n  scheme: hedera\n  workload: enterprise\n  load: 0.5\n"

    def test_params_and_period_compile_into_the_config_and_sweep(self, tmp_path):
        scenario = load_text(
            tmp_path,
            self.HEAD
            + "  topology: &base {controller_period: 1ms, params: {path_metric: sum}}\n"
            "grid:\n"
            "  topology:\n"
            "    - *base\n"
            "    - {<<: *base, params: {flowlet_timeout: 300us}}\n",
        )
        first, second = (spec.config for spec in scenario.compile())
        assert first == LeafSpineConfig(
            controller_period=milliseconds(1), params=CongaParams(path_metric="sum")
        )
        # An axis entry replaces the whole topology, and ``params`` whole.
        assert second == LeafSpineConfig(
            controller_period=milliseconds(1),
            params=CongaParams(flowlet_timeout=microseconds(300)),
        )

    def test_the_defaults_hash_as_if_the_fields_did_not_exist(self):
        # Recorded on the parent commit, before either field existed.
        spec = ExperimentSpec("hedera", "enterprise", 0.5, config=LeafSpineConfig())
        explicit = spec.with_(config=LeafSpineConfig(
            params=CongaParams(path_metric="max"), controller_period=milliseconds(10)
        ))
        assert spec.content_hash() == explicit.content_hash() == (
            "19a677fe95323376428bbf80c7731ff9e7a392942a71c9c3b372a9a444c8ffd9"
        )

    @pytest.mark.parametrize(
        "body, key, line, words",
        [
            ("  topology:\n    params: {path_metric: avg}\n",
             "template.topology.params", 7, "path_metric must be 'max' or 'sum'"),
            ("  topology:\n    controller_period: 0ms\n",
             "template.topology.controller_period", 7, "at least 1 ns"),
            ("  topology:\n    controller_period: -5ms\n",
             "template.topology.controller_period", 7, "-5ms"),
            ("  topology:\n    params:\n      flowlet_timout: 1ms\n",
             "template.topology.params.flowlet_timout", 8, "unknown key"),
            ("grid:\n  topology:\n    - {hosts_per_leaf: 8}\n"
             "    - {params: {quantization_bits: 9}}\n",
             "grid.topology.1.params", 9, "Q out of range"),
        ],
        ids=["path-metric", "zero-period", "negative-period", "unknown-param", "grid-entry"],
    )
    def test_refusals_name_file_line_and_key(self, tmp_path, body, key, line, words):
        with pytest.raises(ScenarioError) as info:
            load_text(tmp_path, self.HEAD + body)
        assert (info.value.key, info.value.line) == (key, line)
        assert f"scenario.yaml:{line}: " in str(info.value)
        assert words in str(info.value)

    def test_the_config_refuses_a_period_that_is_not_positive(self):
        for period in (0, -1):
            with pytest.raises(ValueError, match="controller_period must be positive"):
                LeafSpineConfig(controller_period=period)


class TestMultipodScenarios:
    """Multipod topology keys and fault-target validation in YAML."""

    def test_multipod_key_selects_three_tier_config(self, tmp_path):
        scenario = load_text(
            tmp_path,
            """
            name: threetier
            template:
              scheme: ecmp
              workload: enterprise
              load: 0.5
              topology: {num_pods: 2, hosts_per_leaf: 8}
            """,
        )
        from repro.topology.multipod import MultiPodConfig

        assert scenario.template.config == MultiPodConfig(
            num_pods=2, hosts_per_leaf=8
        )

    def test_core_fault_on_two_tier_template_rejected(self, tmp_path):
        with pytest.raises(ScenarioError) as info:
            load_text(
                tmp_path,
                "name: badcore\n"
                "template:\n"
                "  scheme: ecmp\n"
                "  workload: enterprise\n"
                "  load: 0.5\n"
                "  faults: [\"link_down@1ms:s1-c0\"]\n",
            )
        assert "need a multipod topology" in str(info.value)
        assert info.value.line == 6

    def test_core_index_out_of_range_names_fault(self, tmp_path):
        with pytest.raises(ScenarioError) as info:
            load_text(
                tmp_path,
                "name: badidx\n"
                "template:\n"
                "  scheme: ecmp\n"
                "  workload: enterprise\n"
                "  load: 0.5\n"
                "  topology: {num_pods: 2}\n"
                "  faults: [\"link_down@1ms:s1-c5\"]\n",
            )
        assert "core 5 out of range" in str(info.value)
        assert "LinkDown" in str(info.value)

    def test_leaf_index_checked_against_default_testbed(self, tmp_path):
        with pytest.raises(ScenarioError) as info:
            load_text(
                tmp_path,
                "name: badleaf\n"
                "template:\n"
                "  scheme: ecmp\n"
                "  workload: enterprise\n"
                "  load: 0.5\n"
                "  faults: [\"link_down@1ms:l7-s1\"]\n",
            )
        assert "leaf 7 out of range" in str(info.value)

    def test_valid_core_fault_compiles(self, tmp_path):
        scenario = load_text(
            tmp_path,
            """
            name: okcore
            template:
              scheme: caft
              workload: enterprise
              load: 0.5
              topology: {num_pods: 2}
              faults: ["link_down@1ms:s1-c0", "blackout@2ms:core1+1ms"]
            grid:
              seeds: [1, 2]
            """,
        )
        scenario.validate()
        assert scenario.point_count() == 2


@pytest.mark.scenario_smoke
class TestCommittedScenarios:
    """CI gate: every committed scenarios/*.yaml compiles and stays stable."""

    def test_scenario_dir_is_populated(self):
        assert COMMITTED, "no committed scenario files found"

    @pytest.mark.parametrize(
        "path", COMMITTED, ids=[p.name for p in COMMITTED]
    )
    def test_compiles_with_stable_hashes(self, path):
        scenario = load_scenario(path)
        scenario.validate()
        assert scenario.point_count() == len(scenario.compile())
        # Compiling twice must give the identical grid digest (hash
        # stability is what lets CI pin committed grids).
        assert scenario.grid_digest() == scenario.grid_digest()

    def test_fig9_scenario_matches_benchmark_grid(self):
        scenario = load_scenario(SCENARIO_DIR / "fig9_enterprise.yaml")
        hand = sweep_grid(
            TEMPLATE,
            schemes=["ecmp", "conga-flow", "conga", "mptcp"],
            loads=[0.3, 0.5, 0.7, 0.9],
        )
        assert scenario.compile() == hand
