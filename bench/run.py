#!/usr/bin/env python3
"""The repo benchmark.  See bench/README.md for every name printed here.

One workload, one result line (what the benchmark contract runs)::

    python3 bench/run.py --workload conga_enterprise --seed 42 --seconds 8 --trace 0

All seven, each in a fresh child process, with tables and a result file::

    python3 bench/run.py [--seed 42] [--seconds 8] [--workloads a,b] [--traced] [--out FILE]

Two result files, row by row::

    python3 bench/run.py --compare A.json B.json [--force]

``--selfcheck`` shrinks every workload to a fraction of a second (the sizes
bench/test_bench_selfcheck.py runs); its numbers mean nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from benchlib import SRC, load_contract  # noqa: E402
from benchlib import report  # noqa: E402

DETAIL_TAG = "detail: "


def run_one(args: argparse.Namespace) -> int:
    """Measure one workload in this process and print its contract line last."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from benchlib.harness import measure
    from benchlib.workloads import WORKLOADS

    contract = load_contract()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    detail = measure(workload, args.seed, args.seconds, bool(args.trace), args.selfcheck)
    warning = report.load_warning(detail["loadavg"][0])
    if warning:
        print(warning)
    print("\n".join(report.format_detail(detail, report.contract_units(contract))))
    print(DETAIL_TAG + json.dumps(detail))
    print(report.contract_line(detail, contract))
    return 1 if detail["failed"] else 0


def run_all(args: argparse.Namespace) -> int:
    """Every selected workload in its own fresh child, one after the other."""
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workloads:
        names = [n.strip() for n in args.workloads.split(",") if n.strip()]
    result = {
        "schema": 1,
        "claim": None,
        "fingerprint": report.fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "selfcheck": args.selfcheck,
        "loadavg_start": os.getloadavg()[0],
        "workloads": {},
    }
    status = 0
    for name in names:
        runs = result["workloads"].setdefault(name, {})
        for section, trace in (("end_to_end", 0), ("per_layer", 1)):
            if trace and not args.traced:
                continue
            command = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), *(["--selfcheck"] if args.selfcheck else []),
            ]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            detail = next((l for l in lines if l.startswith(DETAIL_TAG)), None)
            print("\n".join(l for l in lines[:-1] if not l.startswith(DETAIL_TAG)))
            if detail is None:
                print(f"bench: {name} (trace {trace}) exited {child.returncode} without a result")
                return 2
            runs[section] = json.loads(detail[len(DETAIL_TAG):])
            status = status or child.returncode
    result["loadavg_end"] = os.getloadavg()[0]
    print()
    print("\n".join(report.format_summary(result, contract)))
    fp = result["fingerprint"]
    print(
        f"{fp['nproc']} x {fp['cpu']}, python {fp['python']}, {fp['platform']}, "
        f"git {fp['git_sha'][:12]}{' (dirty)' if fp['git_dirty'] else ''}, "
        f"load {result['loadavg_start']:.2f} -> {result['loadavg_end']:.2f}"
    )
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {args.out}")
    return status


def run_compare(args: argparse.Namespace) -> int:
    a, b = (json.loads(Path(path).read_text()) for path in args.compare)
    lines, status = report.compare(a, b, load_contract(), force=args.force)
    print("\n".join(lines))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this one workload in this process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=load_contract()["run_seconds"],
                        help="how long the timed repeats of one workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 adds a cProfile repeat and reports per-layer metrics")
    parser.add_argument("--workloads", help="comma-separated subset for the all-workloads run")
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads run: also run each workload with --trace 1")
    parser.add_argument("--out", help="all-workloads run: write the result file here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--force", action="store_true",
                        help="--compare across different machines, seeds or run lengths")
    parser.add_argument("--selfcheck", action="store_true", help="tiny sizes, meaningless numbers")
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(args)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
