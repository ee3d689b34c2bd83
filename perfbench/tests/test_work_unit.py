"""The benchmark's work units mean the same thing however the simulator
dispatches the work, and its span accounting adds up.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

import perfbench  # noqa: E402

perfbench.add_source_path()

from perfbench import workloads as wl  # noqa: E402
from perfbench.spans import Recorder, fold  # noqa: E402
from repro.cache.hierarchy import CacheHierarchy  # noqa: E402
from repro.experiments.harness import Server  # noqa: E402
from repro.sim import batch  # noqa: E402


def _net_a4_lines(batching: bool):
    previous = batch.set_enabled(batching)
    try:
        with Recorder(timed=False) as rec:
            server = wl.NET_A4.build(164)
            server.hierarchy.set_batching(batching)
            result = server.run(epochs=wl.NET_A4.epochs,
                                warmup=wl.NET_A4.warmup)
    finally:
        batch.set_enabled(previous)
    return rec, result


def test_net_a4_line_accesses_identical_with_batching_off():
    on, on_result = _net_a4_lines(True)
    off, off_result = _net_a4_lines(False)
    assert on_result.server.hierarchy._batching
    assert not off_result.server.hierarchy._batching
    assert on.line_accesses == off.line_accesses > 0
    assert wl.run_digest(on_result) == wl.run_digest(off_result)


def test_lines_are_counted_once_at_the_outermost_entry_point():
    for batching in (True, False):
        server = Server(cores=4)
        server.hierarchy.set_batching(batching)
        with Recorder(timed=True) as rec:
            hierarchy = server.hierarchy
            hierarchy.cpu_access_run(0.0, 0, range(4096, 4160), "s")
            hierarchy.cpu_access_run(1.0, 0, range(4096, 4160), "s")
            hierarchy.dma_write_multi(2.0, [(8192, 24, "n"), (9000, 8, "n")],
                                      True)
            hierarchy.dma_write(3.0, 9100, "n", allocating=True)
            hierarchy.dma_read(4.0, 8192, "n")
        rec.flush()
        assert rec.line_accesses == 64 + 64 + 24 + 8 + 1 + 1
        # Misses fall back to cpu_access and multi-span writes to
        # dma_write_burst; those nested calls are spans but not new lines.
        assert rec.calls["cache.cpu_access"] >= 64
        assert rec.calls["cache.dma_write_burst"] == 3
        assert rec.top_lines["cache.dma_write_burst"] == 0
    assert CacheHierarchy.cpu_access.__name__ == "cpu_access"
    assert not hasattr(CacheHierarchy.cpu_access, "__wrapped__")


def test_sim_cycles_count_skipped_epochs_as_covered():
    workload = wl.WORKLOADS["long_horizon_sampled"]
    outcome = workload.measure(164, keep=True)
    result, = outcome.results
    report = result.sampling
    epoch_cycles = result.server.epoch_cycles
    assert report.skipped_epochs > 0
    assert outcome.cycles == workload.epochs * epoch_cycles
    assert outcome.cycles == result.server.sim.now
    assert outcome.cycles > report.detailed_epochs * epoch_cycles


def test_self_time_subtracts_child_spans():
    names = ["experiments.run", "sim", "cache.cpu_access_run",
             "cache.cpu_access", "uncore.memory.read"]
    spans = [  # (name id, start, end, parent)
        (0, 0.0, 10.0, -1),
        (1, 1.0, 9.0, 0),
        (2, 2.0, 6.0, 1),
        (3, 3.0, 4.0, 2),
        (3, 4.5, 5.0, 2),
        (4, 7.0, 8.0, 1),
    ]
    calls, self_s, _ = fold(*zip(*spans), n_names=len(names))
    assert calls.tolist() == [1, 1, 1, 2, 1]
    assert self_s.tolist() == [2.0, 3.0, 2.5, 1.5, 1.0]
    assert self_s.sum() == 10.0


def test_benchmark_json_names_these_workloads():
    spec = json.loads((perfbench.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in wl.WORKLOADS.items()
    }
