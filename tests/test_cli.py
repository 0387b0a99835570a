"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fct_defaults(self):
        args = build_parser().parse_args(["fct"])
        assert args.scheme == "conga"
        assert args.workload == "enterprise"
        assert args.load == 0.6

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
