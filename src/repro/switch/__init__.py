"""Switch models: leaf (CONGA decision point), spine, and fabric directory."""

from repro.switch.fabric import CongestionPlaneError, Fabric
from repro.switch.leaf import LeafSwitch
from repro.switch.spine import SpineSwitch

__all__ = ["CongestionPlaneError", "Fabric", "LeafSwitch", "SpineSwitch"]
