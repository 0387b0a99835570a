"""The repo benchmark: seven workloads measured from outside the simulator.

Everything here drives ``repro`` through its public API and keeps its own
clocks; nothing imports ``repro.perf``.  ``bench/run.py`` is the only entry
point, ``BENCHMARK.json`` at the repo root is the list of metric names, and
``bench/README.md`` says what each name means.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONTRACT_FILE = ROOT / "BENCHMARK.json"
SCENARIO_DIR = BENCH_DIR / "scenarios"

#: Packages under ``src/repro/`` that traced self time is attributed to;
#: everything else lands in ``builtins`` (C functions) or ``other``.
LAYERS = (
    "sim", "net", "core", "lb", "switch", "overlay", "transport", "obs",
    "faults", "apps",
)


def load_contract() -> dict:
    """``BENCHMARK.json`` — the authority on metric names, units and bounds."""
    return json.loads(CONTRACT_FILE.read_text())


@contextmanager
def scratch_dir(prefix: str):
    """A temporary directory inside the checkout; the benchmark writes nowhere else."""
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=work)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run's scratch is still in it
