"""Tests for the command-line interface."""

import pytest

from repro.cli import _resolve_point_spec, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fct_defaults(self):
        # The parser leaves description flags None; the flag mapping fills
        # in the defaults, so --scenario can tell a given flag from a default.
        args = build_parser().parse_args(["fct"])
        assert (args.scheme, args.workload, args.load) == (None, None, None)
        spec = _resolve_point_spec(args)
        assert spec.scheme == "conga"
        assert spec.workload == "enterprise"
        assert spec.load == 0.6
        assert (spec.num_flows, spec.size_scale, spec.seed) == (200, 0.05, 1)

    def test_rejects_unknown_scheme(self, capsys):
        # The parser keeps no copy of the registry: the schema refuses the
        # name, located at its key, before anything runs.
        assert main(["fct", "--scheme", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "conga-repro: template.scheme: unknown scheme 'bogus'; registered schemes: "
        )
        assert len(captured.err.splitlines()) == 1

    def test_fail_link_repeatable(self):
        args = build_parser().parse_args(
            ["fct", "--fail-link", "1,1,0", "--fail-link", "0,1,1"]
        )
        assert args.fail_link == ["1,1,0", "0,1,1"]


class TestCommands:
    def test_poa(self, capsys):
        assert main(["poa"]) == 0
        output = capsys.readouterr().out
        assert "Price of Anarchy" in output
        assert "2.000" in output

    def test_fct_runs(self, capsys):
        code = main(
            ["fct", "--scheme", "ecmp", "--workload", "web-search",
             "--load", "0.3", "--flows", "20", "--size-scale", "0.02"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "flows completed:        20/20" in output

    def test_fct_with_failed_link(self, capsys):
        code = main(
            ["fct", "--scheme", "conga", "--workload", "web-search",
             "--load", "0.3", "--flows", "15", "--size-scale", "0.02",
             "--fail-link", "1,1,0"]
        )
        assert code == 0
        assert "mean FCT" in capsys.readouterr().out

    def test_sweep_runs_and_caches(self, capsys, tmp_path):
        argv = [
            "sweep", "--schemes", "ecmp", "--workload", "web-search",
            "--loads", "0.3", "--seeds", "1", "--flows", "15",
            "--size-scale", "0.02", "--workers", "0",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert "1 executed, 0 cached" in capsys.readouterr().out
        assert main(argv) == 0
        assert "0 executed, 1 cached" in capsys.readouterr().out

    def test_sweep_rejects_unknown_scheme_before_running(self, capsys):
        code = main(["sweep", "--schemes", "ecmp,bogus"])
        assert code == 2
        captured = capsys.readouterr()
        assert "unknown scheme 'bogus'" in captured.err
        assert captured.out == ""  # no point executed

    def test_incast_runs(self, capsys):
        code = main(
            ["incast", "--transport", "tcp", "--fan-in", "3", "--repeats", "1"]
        )
        assert code == 0
        assert "effective throughput" in capsys.readouterr().out


ONE_POINT = (
    "name: one\ntemplate:\n  scheme: ecmp\n  workload: enterprise\n"
    "  load: 0.3\n  num_flows: 5\n  size_scale: 0.02\n"
)


@pytest.fixture
def one_yaml(tmp_path):
    pytest.importorskip("yaml", reason="scenario files need PyYAML")
    path = tmp_path / "one.yaml"
    path.write_text(ONE_POINT)
    return path


class TestScenarioIsTheWholeDescription:
    @pytest.mark.parametrize(
        "argv, key",
        [
            (["fct", "--scheme", "conga"], "template.scheme"),
            (["fct", "--workload", "web-search"], "template.workload"),
            (["fct", "--load", "0.9"], "template.load"),
            (["fct", "--flows", "50"], "template.num_flows"),
            (["fct", "--size-scale", "0.1"], "template.size_scale"),
            (["fct", "--seed", "2"], "template.seed"),
            (["fct", "--fail-link", "1,1,0"], "template.failed_links"),
            (["fct", "--fault", "link_down@0s:l0-s0"], "template.faults"),
            (["trace", "conga"], "template.scheme"),
            (["metrics", "--imbalance-leaf", "0"], "template.imbalance_monitor.leaf"),
            (["sweep", "--schemes", "conga"], "grid.schemes"),
            (["sweep", "--loads", "0.9"], "grid.loads"),
            (["sweep", "--seeds", "2"], "grid.seeds"),
            (["report", "--flows", "50"], "template.num_flows"),
        ],
    )
    def test_a_description_flag_beside_a_file_is_refused(self, one_yaml, capsys, argv, key):
        assert main([*argv, "--scenario", str(one_yaml)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        (line,) = captured.err.splitlines()
        assert line.startswith(f"conga-repro: {key}: ")
        assert f"edit {key} in {one_yaml}" in line

    def test_the_file_alone_is_the_point(self, one_yaml, capsys):
        assert main(["fct", "--scenario", str(one_yaml)]) == 0
        output = capsys.readouterr().out
        assert "scheme=ecmp workload=enterprise load=0.3" in output
        assert "flows completed:        5/5" in output

    def test_observation_and_execution_flags_still_compose(self, one_yaml, tmp_path, capsys):
        out = tmp_path / "trace.ndjson"
        argv = ["trace", "--scenario", str(one_yaml), "--limit", "3", "--output", str(out)]
        assert main(argv) == 0
        assert len(out.read_text().splitlines()) == 3
        assert ", 3 retained," in capsys.readouterr().err
        argv = [
            "sweep", "--scenario", str(one_yaml), "--workers", "0", "--retries", "0",
            "--timeout", "60", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert "1 executed, 0 cached" in capsys.readouterr().out
