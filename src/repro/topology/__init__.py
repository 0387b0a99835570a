"""Topology builders: Leaf-Spine fabrics and failure injection."""

from importlib import import_module

from repro.topology.leafspine import (
    LeafSpineConfig,
    TESTBED,
    build_leaf_spine,
    fail_random_links,
    scaled_testbed,
)

#: Sibling imported on first access: only a ``MultiPodConfig`` spec builds it.
_DEFERRED = {
    "multipod": ("MultiPodConfig", "build_multipod"),
}


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "LeafSpineConfig",
    "MultiPodConfig",
    "build_multipod",
    "TESTBED",
    "build_leaf_spine",
    "fail_random_links",
    "scaled_testbed",
]
