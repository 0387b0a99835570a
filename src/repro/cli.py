"""Command-line interface for quick experiments.

Examples::

    conga-repro fct --scheme conga --workload data-mining --load 0.6
    conga-repro fct --scheme ecmp --load 0.6 --fail-link 1,1,0
    conga-repro fct --scheme conga --fault link_down@0.1s:l1-s1 \\
        --fault link_up@1.5s:l1-s1
    conga-repro sweep --schemes ecmp,conga --loads 0.3,0.5,0.7 --seeds 1,2
    conga-repro sweep --scenario scenarios/fig9_enterprise.yaml
    conga-repro sweep --scenario scenarios/tiny_smoke.yaml --telemetry sweep.ndjson
    conga-repro report --scenario scenarios/caft_recovery.yaml --timeline
    conga-repro scenario validate scenarios/*.yaml
    conga-repro scenario run scenarios/tiny_smoke.yaml --backend subprocess
    conga-repro incast --transport mptcp --fan-in 31 --mtu 9000
    conga-repro lint src --format json
    conga-repro poa

(Equivalently: ``python -m repro.cli ...``.)

The ``fct``/``sweep``/``report``/``trace``/``metrics`` commands share one
spec loader: every one of them accepts either flags or ``--scenario
file.yaml``, and both go through :mod:`repro.scenarios`' schema (flags as an
in-memory mapping), so a bad value is refused the same way at either door:
one ``conga-repro: <key or file:line>: <message>`` line on stderr and exit
code 2.  The single-point commands require exactly one compiled point.
"""

from __future__ import annotations

import argparse
import sys

from repro.units import to_milliseconds


class _CliError(Exception):
    """A user-facing CLI failure: printed to stderr, exits with ``code``."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def _scalars(text: str) -> list:
    """Comma-separated flag text as the scalars a YAML list would hold.

    Tokens that are not numbers stay strings, so the schema — not this
    function — is what refuses ``--loads 0.3,x``.
    """
    items: list = []
    for token in (part.strip() for part in text.split(",")):
        for kind in (int, float):
            try:
                items.append(kind(token))
                break
            except ValueError:
                continue
        else:
            items.append(token)
    return items


def _flag_mapping(args: argparse.Namespace, template: dict, grid=None) -> dict:
    """The flags of a point or sweep command as the mapping a file would hold."""
    template.update(
        workload=args.workload,
        num_flows=args.flows,
        size_scale=args.size_scale,
        faults=args.fault or [],
    )
    if getattr(args, "imbalance_leaf", None) is not None:  # metrics only
        template["imbalance_monitor"] = {"leaf": args.imbalance_leaf}
    name = f"{args.workload}, {args.flows} flows/point"
    return {"name": name, "template": template, "grid": grid}


def _load_scenario(path: str | None, flags: dict | None = None):
    """The one front door: a scenario file, or else the flags' mapping.

    Either way the input goes through :mod:`repro.scenarios`' schema, and a
    refusal becomes a one-line CLI error naming the file and line or the
    mapping key (``template.load``, ``grid.seeds.1``) a flag filled.
    """
    from repro.scenarios import ScenarioError, load_scenario, scenario_from_mapping

    try:
        return load_scenario(path) if path else scenario_from_mapping(flags)
    except ScenarioError as exc:
        where = "" if exc.source else f"{exc.key}: "
        raise _CliError(f"{where}{exc}") from exc


def _resolve_point_spec(args: argparse.Namespace):
    """The shared spec loader behind fct/trace/metrics.

    One :class:`ExperimentSpec`, from the point flags or — when
    ``--scenario`` is given — from the scenario file, which must then
    describe exactly one point.
    """
    template = {
        "scheme": args.scheme,
        "load": args.load,
        "seed": args.seed,
        "failed_links": [_scalars(text) for text in args.fail_link or []],
    }
    scenario = _load_scenario(args.scenario, _flag_mapping(args, template))
    specs = scenario.compile()
    if len(specs) != 1:
        raise _CliError(
            f"scenario {scenario.name!r} compiles to {len(specs)} points; "
            "this command needs exactly one (use 'sweep --scenario' or "
            "'scenario run' for grids)"
        )
    return specs[0]


def _resolve_sweep_specs(args: argparse.Namespace):
    """The shared grid loader behind sweep/report: flags or a scenario file.

    Returns ``(title, specs)``; every name and value is checked before any
    point executes, so typos fail fast.
    """
    grid = {
        "schemes": [name.strip() for name in args.schemes.split(",")],
        "loads": _scalars(args.loads),
        "seeds": _scalars(args.seeds),
    }
    # The template's scheme and load are placeholders the grid overwrites.
    flags = _flag_mapping(args, {"scheme": "ecmp", "load": 0.6}, grid)
    scenario = _load_scenario(args.scenario, flags)
    return scenario.name, scenario.compile()


def _make_backend(args: argparse.Namespace):
    """The ``--backend`` choice, configured from the shared execution flags."""
    from repro.runner import get_backend

    try:
        backend = get_backend(args.backend)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    workers = args.workers
    if args.backend == "subprocess" and not workers:
        workers = 2
    return backend(workers=workers, timeout=args.timeout, retries=args.retries)


def _cmd_fct(args: argparse.Namespace) -> int:
    from repro.faults import fault_window

    spec = _resolve_point_spec(args)
    result = spec.run()
    summary = result.summary
    print(f"scheme={spec.scheme} workload={spec.workload} load={spec.load:g}")
    print(f"  flows completed:        {result.completed}/{result.arrivals}")
    print(f"  mean FCT (normalized):  {summary.mean_normalized:.2f}")
    print(f"  p95  FCT (normalized):  {summary.p95_normalized:.2f}")
    print(f"  p99  FCT (normalized):  {summary.p99_normalized:.2f}")
    if summary.count_small:
        print(f"  small flows (<100KB):   {summary.count_small} "
              f"(mean FCT {to_milliseconds(round(summary.mean_fct_small)):.3f} ms)")
    if summary.count_large:
        print(f"  large flows (>10MB):    {summary.count_large} "
              f"(mean FCT {to_milliseconds(round(summary.mean_fct_large)):.3f} ms)")
    print(f"  fabric drops:           {result.fabric_drops}")
    if spec.faults:
        print(f"  faults injected:        {len(spec.faults)} "
              f"(retransmits {result.retransmissions}, "
              f"RTO timeouts {result.timeouts})")
        if fault_window(spec.faults) is not None:
            deg = result.degradation()
            print(f"  goodput retained:       {deg.goodput_retained:.2f} "
                  f"of pre-fault level during the degraded window")
            if deg.recovery_time is not None:
                print(f"  recovery time:          "
                      f"{to_milliseconds(deg.recovery_time):.3f} ms after restore")
    print(f"  simulator:              {result.events_executed} events, "
          f"{result.events_per_sec / 1e3:.0f}k events/sec")
    return 0


def _print_sweep_table(title: str, sweep) -> None:
    from repro.analysis import print_table
    from repro.runner import PointFailure

    rows = []
    for p in sweep:
        if isinstance(p, PointFailure):
            rows.append(
                (p.scheme, p.load, p.spec.seed, float("nan"), float("nan"),
                 f"FAILED:{p.kind}", "fail")
            )
            continue
        rows.append(
            (
                p.scheme,
                p.load,
                p.spec.seed,
                p.summary.mean_normalized if p.summary else float("nan"),
                p.summary.p99_normalized if p.summary else float("nan"),
                f"{p.completed}/{p.arrivals}",
                "cache" if p.from_cache else "run",
            )
        )
    print_table(
        f"sweep: {title}",
        ["scheme", "load", "seed", "mean FCT", "p99 FCT", "done", "source"],
        rows,
    )
    print(
        f"\n{len(sweep)} points in {sweep.wall_seconds:.1f}s "
        f"({sweep.executed} executed, {sweep.cached} cached, "
        f"{sweep.events_executed} simulator events)"
    )
    for failure in sweep.failures:
        print(
            f"FAILED {failure.spec.label()}: {failure.kind} "
            f"after {failure.attempts} attempt(s): {failure.error}",
            file=sys.stderr,
        )


def _run_sweep_from_args(specs, args: argparse.Namespace, telemetry=None):
    """One ``run_sweep`` call wired to the shared execution flags."""
    from repro.runner import run_sweep

    return run_sweep(
        specs,
        cache=None if args.no_cache else args.cache_dir,
        progress=print if args.verbose else None,
        backend=_make_backend(args),
        telemetry=telemetry,
    )


def _run_and_report(title: str, specs, args: argparse.Namespace) -> int:
    sweep = _run_sweep_from_args(specs, args, telemetry=args.telemetry)
    _print_sweep_table(title, sweep)
    return 1 if sweep.failures else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    title, specs = _resolve_sweep_specs(args)
    return _run_and_report(title, specs, args)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.apps import ObsSpec

    spec = _resolve_point_spec(args)
    obs_kwargs: dict = {}
    if args.categories is not None:
        obs_kwargs["categories"] = args.categories
    if args.limit is not None:
        obs_kwargs["buffer_limit"] = args.limit
    if obs_kwargs or spec.obs is None:
        try:
            spec = spec.with_(obs=ObsSpec(**obs_kwargs))
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
    result = spec.run()
    trace = result.trace
    assert trace is not None  # the spec carried an ObsSpec
    chrome = args.format == "chrome"
    if args.output != "-":
        (trace.write_chrome if chrome else trace.write_ndjson)(args.output)
    elif chrome:
        import json

        sys.stdout.write(json.dumps(trace.chrome_trace(), indent=1) + "\n")
    else:
        sys.stdout.writelines(line + "\n" for line in trace.ndjson_lines())
    print(
        f"trace: {trace.emitted} events emitted, {len(trace)} retained, "
        f"{trace.dropped} dropped (categories: {','.join(trace.categories)}; "
        f"digest {trace.digest()[:12]})",
        file=sys.stderr,
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    spec = _resolve_point_spec(args)
    result = spec.run()
    report = result.metrics
    assert report is not None  # fresh runs always carry a report
    print(f"metrics: {spec.label()}")
    try:
        lines = report.lines(args.select)
    except KeyError as exc:
        raise _CliError(str(exc.args[0])) from exc
    for line in lines:
        print(f"  {line}")
    return 0


def _with_timeline(spec):
    """Attach a default-cadence timeline collector to one spec."""
    import dataclasses

    from repro.apps import ObsSpec
    from repro.obs import TimelineSpec

    if spec.obs is not None and spec.obs.timeline is not None:
        return spec
    if spec.obs is None:
        # categories=() keeps the ring buffer silent: the point pays for
        # the timeline samples it asked for, not for full tracing too.
        obs = ObsSpec(categories=(), timeline=TimelineSpec())
    else:
        obs = dataclasses.replace(spec.obs, timeline=TimelineSpec())
    return spec.with_(obs=obs)


def _report_points(sweep):
    """Split one sweep into (successful points, failures)."""
    from repro.runner import PointFailure

    return [p for p in sweep if not isinstance(p, PointFailure)], list(
        sweep.failures
    )


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import recovery_report, sweep_report

    title, specs = _resolve_sweep_specs(args)
    if args.timeline:
        specs = [_with_timeline(s) for s in specs]
    sweep = _run_sweep_from_args(specs, args, telemetry=args.telemetry)
    points, failures = _report_points(sweep)
    if not points:
        raise _CliError("every point failed; nothing to report", code=1)
    schedules = {spec.faults for spec in specs}
    if () in schedules and len(schedules) > 1:
        # A faults axis with its healthy baseline: the recovery-matrix page.
        html = recovery_report(
            title=args.title or f"{title} — recovery matrix",
            points=points,
            subtitle=f"{len(schedules) - 1} fault cells; {len(points)} points",
            timelines=args.timeline,
        )
    else:
        html = sweep_report(
            points,
            title=args.title or f"sweep: {title}",
            subtitle=f"{len(points)} points "
                     f"({sweep.executed} executed, {sweep.cached} cached)",
            failures=failures,
            timelines=args.timeline,
        )
    out = Path(args.output)
    out.write_text(html)
    print(f"wrote {out} ({len(html) / 1024:.0f} KiB)")
    for failure in failures:
        print(
            f"FAILED {failure.spec.label()}: {failure.kind}: {failure.error}",
            file=sys.stderr,
        )
    return 1 if failures else 0


def _cmd_scenario_validate(args: argparse.Namespace) -> int:
    from repro.scenarios import ScenarioError, load_scenario

    failed = False
    for path in args.files:
        try:
            scenario = load_scenario(path)
            first = scenario.grid_digest()
            if first != scenario.grid_digest():
                raise ScenarioError(
                    "grid digest is unstable across compilations",
                    source=str(path),
                )
        except ScenarioError as exc:
            print(f"conga-repro: {exc}", file=sys.stderr)
            failed = True
            continue
        print(
            f"ok {path}: {scenario.name} "
            f"({scenario.point_count()} points, grid digest {first[:12]})"
        )
    return 2 if failed else 0


def _cmd_scenario_compile(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    print(f"scenario: {scenario.name}")
    if scenario.description:
        print(f"  {scenario.description}")
    specs = scenario.compile()
    for spec in specs:
        print(f"  {spec.content_hash()[:16]}  {spec.label()}")
    print(f"{len(specs)} points, grid digest {scenario.grid_digest()[:16]}, "
          f"scenario hash {scenario.content_hash()[:16]}")
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    return _run_and_report(scenario.name, scenario.compile(), args)


def _add_point_arguments(
    cmd: argparse.ArgumentParser, *, positional_scheme: bool = False
) -> None:
    """The shared single-point argument set (fct/trace/metrics); the schema resolves names."""
    if positional_scheme:
        cmd.add_argument("scheme", nargs="?", default="conga")
    else:
        cmd.add_argument("--scheme", default="conga")
    cmd.add_argument("--workload", default="enterprise")
    cmd.add_argument("--load", type=float, default=0.6)
    cmd.add_argument("--flows", type=int, default=200)
    cmd.add_argument("--size-scale", type=float, default=0.05)
    cmd.add_argument("--seed", type=int, default=1)
    cmd.add_argument("--fail-link", action="append",
                     metavar="LEAF,SPINE,WHICH",
                     help="fail a leaf-spine link (repeatable)")
    cmd.add_argument("--fault", action="append", metavar="FAULT",
                     help="schedule a fault event, e.g. link_down@0.1s:l0-s1, "
                          "link_degrade@5ms:l1-s0=0.25, blackout@1ms:spine1+2ms; "
                          "core-tier targets (multipod fabrics) use s1-c0, "
                          "core1, or random_downs@0:core=3 "
                          "(repeatable; see repro.faults.parse_fault)")
    cmd.add_argument("--scenario", default=None, metavar="FILE",
                     help="load the point from a scenario YAML instead of "
                          "flags (must compile to exactly one point)")


def _add_sweep_grid_arguments(cmd: argparse.ArgumentParser) -> None:
    """The shared grid definition flags (``sweep`` and ``report``)."""
    cmd.add_argument("--schemes", default="ecmp,conga",
                     help="comma-separated scheme names")
    cmd.add_argument("--workload", default="enterprise")
    cmd.add_argument("--loads", default="0.3,0.5,0.7",
                     help="comma-separated offered loads")
    cmd.add_argument("--seeds", default="1",
                     help="comma-separated seeds (one point per seed)")
    cmd.add_argument("--flows", type=int, default=200)
    cmd.add_argument("--size-scale", type=float, default=0.05)
    cmd.add_argument("--fault", action="append", metavar="FAULT",
                     help="schedule a fault event on every point "
                          "(repeatable; same grammar as fct --fault)")
    cmd.add_argument("--scenario", default=None, metavar="FILE",
                     help="compile the grid from a scenario YAML "
                          "(overrides the template/grid flags above)")


def _add_sweep_run_arguments(cmd: argparse.ArgumentParser) -> None:
    """Execution knobs shared by ``sweep`` and ``scenario run``."""
    from repro.runner import DEFAULT_CACHE_DIR

    cmd.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: one per CPU for the "
                          "local backend, 2 for subprocess; 0 = serial)")
    cmd.add_argument("--backend", default="local",
                     help="how parallel workers are launched: 'local' "
                          "forks them from this process, 'subprocess' "
                          "starts fresh interpreters speaking the "
                          "stdin/stdout JSON protocol")
    cmd.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    cmd.add_argument("--no-cache", action="store_true",
                     help="always execute, never read or write the cache")
    cmd.add_argument("--verbose", action="store_true",
                     help="print per-point timing as results arrive")
    cmd.add_argument("--timeout", type=float, default=None,
                     help="per-point wall-clock budget in seconds "
                          "(enforced wherever points run on workers)")
    cmd.add_argument("--retries", type=int, default=1,
                     help="re-executions granted to a failing point "
                          "(default 1); failures become table rows, "
                          "not crashes")
    cmd.add_argument("--telemetry", default=None, metavar="PATH",
                     help="stream structured sweep health events "
                          "(cache hits, completions, failures, worker "
                          "restarts) to this NDJSON file, tailable while "
                          "the sweep runs")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="conga-repro",
        description="CONGA (SIGCOMM 2014) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fct = sub.add_parser("fct", help="run one FCT experiment point")
    _add_point_arguments(fct)
    fct.set_defaults(func=_cmd_fct)

    sweep = sub.add_parser(
        "sweep", help="run a cached, parallel scheme x load x seed sweep"
    )
    _add_sweep_grid_arguments(sweep)
    _add_sweep_run_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    report = sub.add_parser(
        "report",
        help="run a sweep (or recovery scenario) and render a "
             "self-contained HTML report",
    )
    _add_sweep_grid_arguments(report)
    report.add_argument("--output", default="report.html", metavar="PATH",
                        help="where to write the HTML document "
                             "(default report.html; no external assets)")
    report.add_argument("--title", default=None,
                        help="report page title (default: derived from "
                             "the grid or scenario name)")
    report.add_argument("--timeline", action="store_true",
                        help="collect sim-time timelines (port "
                             "utilization heatmaps, reroute/loss rates, "
                             "per-interval goodput) and render them; "
                             "changes spec hashes, so timeline points "
                             "cache separately")
    _add_sweep_run_arguments(report)
    report.set_defaults(func=_cmd_report)

    scenario = sub.add_parser(
        "scenario", help="validate, compile, and run scenario YAML files"
    )
    scen_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    validate = scen_sub.add_parser(
        "validate", help="load and fully validate scenario files"
    )
    validate.add_argument("files", nargs="+", metavar="FILE")
    validate.set_defaults(func=_cmd_scenario_validate)
    compile_ = scen_sub.add_parser(
        "compile", help="print a scenario's spec grid and content hashes"
    )
    compile_.add_argument("file", metavar="FILE")
    compile_.set_defaults(func=_cmd_scenario_compile)
    scen_run = scen_sub.add_parser(
        "run", help="compile a scenario and run its grid as a sweep"
    )
    scen_run.add_argument("file", metavar="FILE")
    _add_sweep_run_arguments(scen_run)
    scen_run.set_defaults(func=_cmd_scenario_run)

    incast = sub.add_parser("incast", help="run an Incast micro-benchmark")
    incast.add_argument("--transport", default="tcp", choices=["tcp", "mptcp"])
    incast.add_argument("--fan-in", type=int, default=31)
    incast.add_argument("--min-rto-ms", type=int, default=200)
    incast.add_argument("--mtu", type=int, default=1500, choices=[1500, 9000])
    incast.add_argument("--repeats", type=int, default=3)
    incast.add_argument("--seed", type=int, default=1)
    incast.set_defaults(func=_cmd_incast)

    trace = sub.add_parser(
        "trace", help="run one experiment point with structured tracing on"
    )
    _add_point_arguments(trace, positional_scheme=True)
    trace.add_argument("--categories", default=None,
                       help="comma-separated trace categories "
                            "(default: all; see repro.obs.CATEGORIES)")
    trace.add_argument("--limit", type=int, default=None,
                       help="trace ring-buffer capacity "
                            "(oldest events drop beyond this)")
    trace.add_argument("--format", default="ndjson",
                       choices=["ndjson", "chrome"],
                       help="ndjson (one event per line) or a Chrome "
                            "trace_event JSON document for about://tracing")
    trace.add_argument("--output", default="-", metavar="PATH",
                       help="write the trace here instead of stdout")
    trace.set_defaults(func=_cmd_trace)

    metrics = sub.add_parser(
        "metrics", help="run one experiment point and print its metrics report"
    )
    _add_point_arguments(metrics, positional_scheme=True)
    metrics.add_argument("--imbalance-leaf", type=int, default=None,
                         metavar="LEAF",
                         help="attach a throughput-imbalance monitor to this "
                              "leaf (adds monitor.imbalance.* metrics)")
    metrics.add_argument("--select", default="", metavar="FAMILIES",
                         help="comma-separated dotted-name families to "
                              "print, exact names or prefixes (e.g. "
                              "'kernel.,lb.caft.' or 'tcp.rto_timeouts'); "
                              "unknown selections are an error")
    metrics.set_defaults(func=_cmd_metrics)

    poa = sub.add_parser("poa", help="evaluate the Theorem 1 PoA gadget")
    poa.set_defaults(func=_cmd_poa)

    from repro.lint.cli import add_lint_parser

    add_lint_parser(sub)
    return parser


def _cmd_incast(args: argparse.Namespace) -> int:
    from repro.apps import incast_throughput_percent

    # Fig. 13's fabric and transports as the mapping a scenario file would
    # hold: CONGA+TCP or MPTCP (over ECMP); incast reads no workload or load.
    template = {
        "scheme": "conga" if args.transport == "tcp" else "mptcp",
        "workload": "enterprise",
        "load": 0.5,
        "seed": args.seed,
        "deadline": "120s",
        "topology": {"hosts_per_leaf": 32, "host_queue_bytes": "8MB"},
        "tcp": {
            "min_rto": f"{args.min_rto_ms}ms",
            "initial_rto": f"{max(args.min_rto_ms, 1)}ms",
            "mss": args.mtu - 40,
        },
        "traffic": {
            "incast": {
                "fan_in": args.fan_in,
                "request_bytes": "10MB",
                "requests": args.repeats,
            }
        },
    }
    (spec,) = _load_scenario(None, {"name": "incast", "template": template}).compile()
    point = spec.run()
    if point.unfinished:
        print("incast did not finish within the deadline (collapsed)")
        return 1
    percent = incast_throughput_percent(point)
    print(f"transport={args.transport} fan_in={args.fan_in} "
          f"minRTO={args.min_rto_ms}ms MTU={args.mtu}")
    print(f"  effective throughput: {percent:.1f}% of line rate")
    return 0


def _cmd_poa(args: argparse.Namespace) -> int:
    from repro.theory import figure17_gadget

    game, nash = figure17_gadget()
    print("Theorem 1 worst-case gadget (3 leaves x 3 spines, 6 unit demands)")
    print(f"  Nash network bottleneck:    {game.network_bottleneck(nash):.3f}")
    print(f"  optimal network bottleneck: {game.optimal_bottleneck():.3f}")
    print(f"  Price of Anarchy:           {game.price_of_anarchy(nash):.3f}")
    print(f"  flow is a Nash equilibrium: {game.is_nash(nash)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"conga-repro: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
