"""What gets printed and written: fingerprint, tables, result lines, --compare."""

from __future__ import annotations

import json
import os
import platform
import subprocess

from benchlib import ROOT

#: Fingerprint fields two result files must share to be compared.
SAME_MACHINE = ("nproc", "cpu", "python", "platform")


def fingerprint() -> dict:
    """The machine and checkout a result came from."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count() or 1,
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(_git("status", "--porcelain")),
    }


def _git(*args: str) -> str:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def load_warning(loadavg: float) -> str | None:
    """A busy machine is reported, not refused."""
    nproc = os.cpu_count() or 1
    if loadavg > nproc:
        return f"warning: 1-min load average {loadavg:.2f} exceeds nproc={nproc}; timings will be noisy"
    return None


def contract_units(contract: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in (*contract["end_to_end"], *contract["per_layer"])}


def contract_line(detail: dict, contract: dict) -> str:
    """The one-line result the benchmark contract asks for.

    With ``--trace 0`` every end-to-end metric, with ``--trace 1`` every
    per-layer metric.  The contract wants every name on every workload, so a
    per-layer metric that does not apply to this workload reads 0 here; the
    tables and the result file leave it out instead.
    """
    section = "per_layer" if detail["trace"] else "end_to_end"
    measured = detail[section]
    metrics = {
        m["name"]: {"value": measured.get(m["name"], {"value": 0})["value"], "unit": m["unit"]}
        for m in contract[section]
    }
    return json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    })


def format_detail(detail: dict, units: dict[str, str]) -> list[str]:
    """Every metric one workload measured, by name, with unit and spread.

    The first number is the reported value: the best repeat for a timing or
    a rate, the median for ``setup_s`` and ``alloc_blocks``.
    """
    digest = (detail["digest"] or "-")[:16]
    lines = [
        f"{detail['workload']}  seed {detail['seed']}  {detail['seconds']:g} s  "
        f"trace {detail['trace']}  digest {digest}"
    ]
    for section in ("end_to_end", "per_layer"):
        lines.append(f"  {section.replace('_', ' ')}")
        for name, stat in detail[section].items():
            spread = (
                f"median {stat['median']:.6g}  min {stat['min']:.6g}  "
                f"max {stat['max']:.6g}  n {stat['n']}"
                if stat["n"] > 1 else ""
            )
            lines.append(
                f"    {name:<34}{stat['value']:>16.6g} {units.get(name, '?'):<9}{spread}"
            )
    lines += [f"    {row:<34}      unmeasured" for row in detail["unmeasured"]]
    share = detail["failed"] / detail["attempted"]
    lines.append(
        f"  checks: {detail['attempted']} operations, {detail['failed']} failed "
        f"(fail_share {share:g}); n samples a metric, too few for a percentile"
    )
    lines += [f"  FAILED {failure}" for failure in detail["failures"]]
    return lines


def format_summary(result: dict, contract: dict) -> list[str]:
    """One row per workload: the end-to-end values and fail_share."""
    names = [m["name"] for m in contract["end_to_end"]]
    units = contract_units(contract)
    header = f"{'workload':<22}" + "".join(f"{n + ' ' + units[n]:>24}" for n in names)
    lines = [header + f"{'fail_share':>12}"]
    for name, runs in result["workloads"].items():
        detail = runs["end_to_end"]
        cells = "".join(f"{detail['end_to_end'][n]['value']:>24.6g}" for n in names)
        lines.append(f"{name:<22}{cells}{detail['failed'] / detail['attempted']:>12g}")
    return lines


# -- --compare -----------------------------------------------------------------


def compare(a: dict, b: dict, contract: dict, *, force: bool) -> tuple[list[str], int]:
    """Rows comparing result file ``a`` (parent) with ``b`` (change), and an exit code.

    ``worse``: b's value is worse than a's by more than the metric's bound.
    ``unresolved``: either side's min-max spread exceeds the bound and the
    two ranges overlap, so the values cannot be told apart.  ``same``
    otherwise.  Sim counts and digests are compared for equality.
    """
    reasons = [
        f"{key}: {a['fingerprint'].get(key)!r} vs {b['fingerprint'].get(key)!r}"
        for key in SAME_MACHINE
        if a["fingerprint"].get(key) != b["fingerprint"].get(key)
    ] + [
        f"{key}: {a.get(key)!r} vs {b.get(key)!r}"
        for key in ("seed", "seconds", "selfcheck")
        if a.get(key) != b.get(key)
    ]
    lines = []
    if reasons:
        lines += [f"not comparable - {reason}" for reason in reasons]
        if not force:
            return lines + ["refusing to compare; pass --force to compare anyway"], 2
    lines.append(
        f"{'workload':<22}{'metric':<18}{'a':>14}{'b':>14}"
        f"{'b worse by':>12}{'bound':>8}  verdict"
    )
    worse = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"{name:<22}only in a")
            continue
        side_a = a["workloads"][name]["end_to_end"]
        side_b = b["workloads"][name]["end_to_end"]
        for metric in contract["end_to_end"]:
            sa = side_a["end_to_end"].get(metric["name"])
            sb = side_b["end_to_end"].get(metric["name"])
            if sa is None or sb is None:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            by = sign * (sb["value"] - sa["value"]) / sa["value"]
            verdict = _verdict(sa, sb, by, metric["bound"])
            worse += verdict == "worse"
            lines.append(
                f"{name:<22}{metric['name']:<18}{sa['value']:>14.6g}{sb['value']:>14.6g}"
                f"{by:>+12.2%}{metric['bound']:>8.0%}  {verdict}"
            )
    lines += _exact_differences(a, b)
    return lines, 1 if worse else 0


def _verdict(sa: dict, sb: dict, worse_by: float, bound: float) -> str:
    wide = max((s["max"] - s["min"]) / s["value"] for s in (sa, sb)) > bound
    overlap = sa["min"] <= sb["max"] and sb["min"] <= sa["max"]
    if wide and overlap:
        return "unresolved"
    return "worse" if worse_by > bound else "same"


def _exact_differences(a: dict, b: dict) -> list[str]:
    """Digests and sim counts that differ between the two files."""
    lines = []
    for name, runs_a in a["workloads"].items():
        runs_b = b["workloads"].get(name)
        if runs_b is None:
            continue
        for section in ("end_to_end", "per_layer"):
            da, db = runs_a.get(section), runs_b.get(section)
            if not da or not db:
                continue
            if da["digest"] != db["digest"]:
                lines.append(
                    f"{name}: digest differs: {str(da['digest'])[:16]} vs {str(db['digest'])[:16]}"
                )
            for metric, stat in da["per_layer"].items():
                other = db["per_layer"].get(metric)
                if metric in da["exact"] and other and other["value"] != stat["value"]:
                    lines.append(
                        f"{name}: {metric} differs: {stat['value']} vs {other['value']}"
                    )
    return list(dict.fromkeys(lines)) or ["sim counts and digests: all equal"]
