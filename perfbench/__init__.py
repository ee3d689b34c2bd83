"""End-to-end and per-layer benchmark of the A4 simulator.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root.  See ``perfbench/README.md`` for the workloads,
the metrics and what each layer metric is expected to move.
"""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
"""The checkout the benchmark runs in (the parent of this package)."""

OUT_DIR = ROOT / ".perfbench"
"""Everything a run leaves behind (span dumps) goes here."""


def isolate_environment() -> None:
    """Drop every ``REPRO_*`` setting inherited from the caller and turn the
    run cache off, so each measured run simulates from scratch and no fault
    plan, batching switch or trace spool leaks in.  Call before importing
    :mod:`repro`: several modules read these variables at import time."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DISABLE"] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(OUT_DIR / "cache")


def add_source_path() -> None:
    """Make the repository's ``src`` tree and this package importable.
    Exits if the tree is missing, rather than measuring some other copy of
    the simulator that happens to be installed."""
    import sys

    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no simulator sources under {ROOT / 'src'}")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
