"""Tests for multi-seed repetition and averaging."""

import pytest

from repro.experiments.harness import Server
from repro.experiments.sweep import (
    DEFAULT_SWEEP_PLATFORMS,
    MetricStats,
    average_figure,
    mean,
    run_repeated,
    stdev,
    sweep_platforms,
)
from repro.workloads.xmem import xmem


def build(seed):
    server = Server(cores=3, seed=seed)
    server.add_workload(xmem("a", 2.0, cores=1, pattern="rand"))
    return server


def test_mean_and_stdev():
    assert mean([1.0, 3.0]) == 2.0
    assert mean([]) == 0.0
    assert stdev([2.0, 2.0, 2.0]) == 0.0
    assert stdev([1.0]) == 0.0
    assert stdev([1.0, 3.0]) == pytest.approx(2.0 ** 0.5)


def test_metric_stats_rel_spread():
    stats = MetricStats(mean=2.0, stdev=0.2)
    assert stats.rel_spread == pytest.approx(0.1)
    assert MetricStats(0.0, 0.5).rel_spread == 0.0


def test_run_repeated_collects_all_seeds():
    result = run_repeated(build, epochs=4, warmup=1, seeds=(1, 2, 3))
    stats = result.metric("a", "ipc")
    assert len(stats.values) == 3
    assert stats.mean > 0
    # Different seeds, slightly different outcomes.
    assert len(set(stats.values)) > 1
    assert result.mem_total_bw.mean >= 0


def test_run_repeated_requires_seeds():
    with pytest.raises(ValueError):
        run_repeated(build, epochs=4, warmup=1, seeds=())


def test_run_repeated_single_seed_zero_spread():
    result = run_repeated(build, epochs=4, warmup=1, seeds=(7,))
    assert result.metric("a", "ipc").stdev == 0.0


def test_average_figure_averages_numeric_cells():
    from repro.experiments.figures import fig8

    averaged = average_figure(
        fig8.run_fig8b, seeds=(1, 2), epochs=4
    )
    assert "mean of 2 seeds" in averaged.title
    assert len(averaged.rows) == 4
    assert isinstance(averaged.rows[0]["xmem_miss"], float)
    assert isinstance(averaged.rows[0]["fio_ways"], str)


def test_sweep_platforms_yields_one_cell_per_preset():
    results = sweep_platforms(["fig3a"], epochs=3, positions=[(0, 1)])
    assert list(results) == [("fig3a", p) for p in DEFAULT_SWEEP_PLATFORMS]
