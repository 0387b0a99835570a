"""Output checks.  Each returns the failures it found as ``(op, message)``.

An *operation* is one repeat of a packet workload, one pass of a sweep
(``local/cold``), or one micro row; a failure names the operation it fails,
and the share of operations with at least one failure is ``fail_share``.
Digests and counts are compared within a run, never against constants kept
here, so a change that legitimately alters the model shows up in the
parent-vs-change report instead of tripping a stale pin.
"""

from __future__ import annotations

Failure = tuple[str, str]

#: Slack on "traced shares sum to 1": float rounding only, the buckets
#: partition the profile by construction.
SHARE_SUM_TOLERANCE = 0.01


def check_repeat(op: str, sample: dict) -> list[Failure]:
    """One repeat on its own: everything finished, no packet from nowhere.

    A run stops when its last flow completes, which can leave duplicates of
    retransmitted packets in flight, so ``tx - rx - lost`` may be positive
    (it then has to repeat exactly, like every count); it is never negative.
    """
    failures = []
    arrived, done = sample["arrivals"], sample["completed"]
    if done != arrived or arrived < 1:
        failures.append((op, f"{done} of {arrived} flows/requests completed"))
    in_flight = sample["counts"]["port.in_flight_packets"]
    if in_flight < 0:
        failures.append((op, f"tx - rx - lost = {in_flight} packets"))
    return failures


def check_repeats_identical(samples: list[tuple[str, dict]]) -> list[Failure]:
    """Same spec, same seed: the digest and every sim count must repeat."""
    failures = []
    ref_op, ref = samples[0]
    for op, sample in samples[1:]:
        if sample["digest"] != ref["digest"]:
            failures.append(
                (op, f"digest {sample['digest'][:12]} != {ref_op}'s {ref['digest'][:12]}")
            )
        for name, value in ref["counts"].items():
            if sample["counts"].get(name) != value:
                failures.append(
                    (op, f"{name} = {sample['counts'].get(name)} != {ref_op}'s {value}")
                )
    return failures


def check_reference_digest(op: str, digest: str, reference: str, what: str) -> list[Failure]:
    """Observability must not change what a run computes."""
    if digest != reference:
        return [(op, f"digest {digest[:12]} != {what} {reference[:12]}")]
    return []


def check_sweep_pass(
    op: str, *, points: int, expected_points: int, failures: int,
    digest: str, reference: str, warm: bool, all_cached: bool,
) -> list[Failure]:
    """One sweep pass: every point present, none failed, same answer."""
    found = []
    if points != expected_points:
        found.append((op, f"{points} points returned, {expected_points} dispatched"))
    if failures:
        found.append((op, f"{failures} PointFailure(s)"))
    if digest != reference:
        found.append((op, f"sweep digest {digest[:12]} != inline/cold {reference[:12]}"))
    if warm and not all_cached:
        found.append((op, "warm pass re-executed points"))
    return found


def check_shares(op: str, shares: dict[str, float]) -> list[Failure]:
    """Traced self-time shares partition the profile."""
    total = sum(shares.values())
    if abs(total - 1.0) > SHARE_SUM_TOLERANCE:
        return [(op, f"traced shares sum to {total:.4f}")]
    return []


def failed_operations(failures: list[Failure]) -> int:
    """Operations with at least one failure."""
    return len({op for op, _ in failures})
