"""Tests for the evaluation scenarios (Table 2/3 combinations)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.a4 import A4Manager
from repro.core.baselines import DefaultManager, IsolateManager
from repro.experiments.scenarios import (
    build_server,
    daemon_interference_workloads,
    hpw_heavy_workloads,
    lpw_heavy_workloads,
    microbenchmark_workloads,
)
from repro.telemetry.pcm import PRIORITY_HIGH, PRIORITY_LOW


def test_microbenchmark_composition():
    workloads = microbenchmark_workloads()
    names = [w.name for w in workloads]
    assert names == ["dpdk-t", "fio", "xmem1", "xmem2", "xmem3"]
    assert workloads[0].priority == PRIORITY_HIGH
    assert workloads[1].priority == PRIORITY_LOW


def test_hpw_heavy_has_seven_hpws_and_four_lpws():
    workloads = hpw_heavy_workloads()
    hpws = [w for w in workloads if w.priority == PRIORITY_HIGH]
    lpws = [w for w in workloads if w.priority == PRIORITY_LOW]
    assert len(hpws) == 7 and len(lpws) == 4


def test_lpw_heavy_has_four_hpws_and_seven_lpws():
    workloads = lpw_heavy_workloads()
    hpws = [w for w in workloads if w.priority == PRIORITY_HIGH]
    lpws = [w for w in workloads if w.priority == PRIORITY_LOW]
    assert len(hpws) == 4 and len(lpws) == 7


def test_scenarios_fit_the_18_core_server():
    for factory in (
        hpw_heavy_workloads,
        lpw_heavy_workloads,
        daemon_interference_workloads,
    ):
        assert sum(w.num_cores for w in factory()) <= 17  # one core for A4


def test_daemon_scenario_composition():
    workloads = daemon_interference_workloads()
    names = {w.name for w in workloads}
    assert {"fastclick", "ksm", "zswap"} <= names
    daemons = [w for w in workloads if w.name in ("ksm", "zswap")]
    assert all(w.priority == PRIORITY_LOW for w in daemons)


def test_build_server_attaches_manager():
    server = build_server(microbenchmark_workloads(), scheme="default")
    assert isinstance(server.manager, DefaultManager)
    server = build_server(microbenchmark_workloads(), scheme="isolate")
    assert isinstance(server.manager, IsolateManager)
    server = build_server(microbenchmark_workloads(), scheme="a4")
    assert isinstance(server.manager, A4Manager)


def test_build_server_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        build_server(microbenchmark_workloads(), scheme="bogus")


def test_scenarios_run_one_epoch():
    server = build_server(hpw_heavy_workloads(), scheme="a4")
    result = server.run(epochs=3, warmup=1)
    assert "fastclick" in result.stream_names()


NUMPY_FREE_RUN = """
import sys
from repro.experiments.scenarios import build_server, microbenchmark_workloads
server = build_server(microbenchmark_workloads(), scheme="a4")
server.run(epochs=1, warmup=0)
assert "numpy" not in sys.modules, "the simulator imported numpy"
"""


def test_simulator_runs_without_importing_numpy():
    """The simulator core is stdlib-only: importing it and running an
    A4-managed epoch in a fresh interpreter never loads numpy (its import
    used to be ~40% of every process's start-up)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_RUN],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
