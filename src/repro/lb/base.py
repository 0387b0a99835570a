"""Uplink-selection policy interface for leaf switches.

A leaf switch delegates the *choice of uplink* for each fabric-bound packet
to an :class:`UplinkSelector`; schemes differ only in this one decision,
exactly as in Figure 1's design tree.  Overlay encapsulation is common
plumbing in :class:`repro.switch.leaf.LeafSwitch` under every policy.  The
congestion plane — per-link DREs, CE marking, leaf-to-leaf feedback — is
measurement, and runs only when something reads it: a selector says so with
:attr:`UplinkSelector.reads_congestion`, and finalizing a leaf with a
reading selector switches the plane on for the whole fabric
(:meth:`repro.switch.fabric.Fabric.require_congestion_plane`).

Selectors are created per leaf via a :class:`SelectorFactory` so that an
experiment config can say "all leaves run CONGA with these parameters".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable

from repro.net.packet import Packet

if TYPE_CHECKING:
    from repro.switch.leaf import LeafSwitch

SelectorFactory = Callable[["LeafSwitch"], "UplinkSelector"]


class UplinkSelector(ABC):
    """Chooses the uplink (LBTag) for each packet entering the fabric."""

    #: Human-readable scheme name used in results tables.
    name = "base"

    #: Whether ``choose_uplink`` reads DRE metrics or the congestion tables
    #: (``leaf.local_metric``, ``leaf.to_leaf_table`` ...).  True unless a
    #: subclass says otherwise, so a selector written without knowing the
    #: rule is measured for; a congestion-oblivious one sets it False and
    #: the fabric skips the measurement nothing consumes.
    reads_congestion = True

    def __init__(self, leaf: "LeafSwitch") -> None:
        self.leaf = leaf

    @classmethod
    def factory(cls, *args, **kwargs) -> SelectorFactory:
        """A factory building ``cls(leaf, *args, **kwargs)`` on each leaf."""
        return lambda leaf: cls(leaf, *args, **kwargs)

    @abstractmethod
    def choose_uplink(self, packet: Packet, dst_leaf: int, candidates: list[int]) -> int:
        """Return the uplink index to carry ``packet`` toward ``dst_leaf``.

        ``candidates`` is the non-empty list of uplink indices that are
        currently up and can reach ``dst_leaf``; the returned value must be
        one of them.
        """


__all__ = ["SelectorFactory", "UplinkSelector"]
