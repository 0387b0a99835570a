"""Seeded random multi-failure injection, shared across topology tiers.

The Fig. 16 scenario fails ``N`` random links; the 3-tier extension (CAFT)
needs the same trick at the spine↔core tier.  Both draws follow the
simulator's named-RNG-stream discipline: the failure set is a pure function
of ``(seed, stream)`` — machine-stable (the stream name is hashed with
:func:`repro.net.hashing.stable_string_seed`, not ``hash()``) and
independent of every other stream — and never disconnects a switch from
its uplink tier entirely.

The leaf-tier draw here is *bit-identical* to the historical
``repro.topology.leafspine.fail_random_links`` (which now re-exports this
helper): same stream, same candidate ordering, same skip rules, so
pre-existing Fig. 16 failure sets and golden digests are unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.switch.fabric import Fabric

#: Tiers :func:`fail_random_links` can draw from.
TIERS = ("leaf", "core")


def fail_random_links(
    fabric: "Fabric",
    count: int,
    stream: str = "link-failures",
    seed: int | None = None,
    tier: str = "leaf",
) -> list:
    """Fail ``count`` distinct random links of one fabric tier.

    ``tier="leaf"`` draws from the leaf↔spine links (the Fig. 16 scenario)
    and never leaves a leaf with no up uplink; ``tier="core"`` draws from
    the spine↔core links of a multi-pod fabric and never leaves a pod
    spine with no up core uplink (which would silently disconnect its pod
    from inter-pod traffic rather than create asymmetry).  Returns the
    failed near-side (leaf- or spine-side) ports.

    Which links fail follows the simulator's named-RNG-stream discipline:
    the draw comes from a *fresh* generator seeded by ``(seed, stream)`` —
    ``seed`` defaulting to the simulator's master seed — so the failure set
    is a pure function of those two values and independent of any draws
    other components may have taken from a same-named ``sim.rng`` stream
    earlier in setup.
    """
    from repro.net.hashing import stable_string_seed
    from repro.sim.pcg64 import PCG64Stream

    if tier not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}, got {tier!r}")
    base = fabric.sim.seed if seed is None else seed
    rng = PCG64Stream(base, stable_string_seed(stream))
    all_ports = list(
        fabric.leaf_uplink_ports() if tier == "leaf" else fabric.spine_core_ports()
    )
    if not all_ports:
        raise ValueError(
            "tier 'core' needs a multi-pod fabric (no spine-core links here)"
        )
    order = rng.permutation(len(all_ports))
    failed = []
    for index in order:
        if len(failed) >= count:
            break
        port = all_ports[index]
        up_count = sum(1 for p in all_ports if p.node is port.node and p.up)
        if up_count <= 1 or not port.up:
            continue
        port.fail()
        failed.append(port)
    if len(failed) < count:
        raise ValueError(
            f"could only fail {len(failed)} of {count} {tier}-tier links "
            "without disconnecting a switch from its uplink tier"
        )
    return failed


__all__ = ["TIERS", "fail_random_links"]
