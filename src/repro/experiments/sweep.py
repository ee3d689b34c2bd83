"""Multi-seed repetition and averaging.

The paper averages every result over five iterations (§6).  This module
provides the equivalent: run a server-builder or a figure runner across
seeds and average the numeric outputs, reporting spread so users can judge
simulation noise (the paper makes the same point about X-Mem's run-to-run
variance in its artifact appendix).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.errors import FigureShapeError, SweepConfigError
from repro.experiments.harness import Server
from repro.experiments.parallel import (
    FigureTask,
    SeedTask,
    run_figure,
    run_tasks,
    seed_metrics,
)
from repro.experiments.report import FigureResult
from repro.platform import get_platform

DEFAULT_SEEDS = (0xA4, 0xA5, 0xA6, 0xA7, 0xA8)
"""Five iterations, like the paper."""

DEFAULT_SWEEP_PLATFORMS = ("skylake-sp", "cascadelake-sp", "icelake-sp")
"""The preset registry, in the order the sensitivity sweep visits it."""


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def stdev(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


@dataclass
class MetricStats:
    mean: float
    stdev: float
    values: List[float] = field(default_factory=list)

    @property
    def rel_spread(self) -> float:
        return self.stdev / abs(self.mean) if self.mean else 0.0


@dataclass
class MultiSeedResult:
    """Per-stream metric statistics across seeds."""

    seeds: Sequence[int]
    streams: Dict[str, Dict[str, MetricStats]]
    mem_total_bw: MetricStats
    total_events: int = 0
    """Simulated events executed across all seeds, as reported by each
    seed's simulation (a memoized summary carries the count from the run
    that originally produced it)."""

    def metric(self, stream: str, name: str) -> MetricStats:
        return self.streams[stream][name]


def run_repeated(
    build: Callable[[int], Server],
    epochs: int,
    warmup: int,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    parallel: bool = False,
    max_workers: Optional[int] = None,
) -> MultiSeedResult:
    """Run ``build(seed)`` for each seed and collect metric statistics.

    ``build`` must return a fully configured (workloads + manager) server.
    With ``parallel=True`` the seeds run across a process pool (``build``
    must then be a module-level callable so it pickles); results are
    identical to the serial path because both assemble the same per-seed
    summaries in seed order.
    """
    if not seeds:
        raise SweepConfigError("need at least one seed")
    tasks = [SeedTask(build, epochs, warmup, seed) for seed in seeds]
    summaries = run_tasks(
        seed_metrics, tasks, parallel=parallel, max_workers=max_workers
    )
    per_stream: Dict[str, Dict[str, List[float]]] = {}
    mem_values: List[float] = []
    total_events = 0
    for mem_total_bw, streams, events in summaries:
        mem_values.append(mem_total_bw)
        total_events += events
        for name, metrics in streams.items():
            bucket = per_stream.setdefault(name, {})
            for field_name, value in metrics.items():
                bucket.setdefault(field_name, []).append(value)
    return MultiSeedResult(
        seeds=tuple(seeds),
        streams={
            name: {
                metric: MetricStats(mean(vals), stdev(vals), vals)
                for metric, vals in metrics.items()
            }
            for name, metrics in per_stream.items()
        },
        mem_total_bw=MetricStats(mean(mem_values), stdev(mem_values), mem_values),
        total_events=total_events,
    )


def average_figure(
    runner: Callable[..., FigureResult],
    seeds: Sequence[int] = DEFAULT_SEEDS,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    **kwargs,
) -> FigureResult:
    """Run a figure runner once per seed and average its numeric cells.

    Rows are matched by position (every figure runner is deterministic in
    row order); non-numeric cells are taken from the first run.  With
    ``parallel=True`` the seeds run across a process pool (``runner`` must
    be module-level so it pickles).
    """
    if not seeds:
        raise SweepConfigError("need at least one seed")
    tasks = [
        FigureTask(runner, seed, tuple(kwargs.items())) for seed in seeds
    ]
    results = run_tasks(
        run_figure, tasks, parallel=parallel, max_workers=max_workers
    )
    first = results[0]
    for other in results[1:]:
        if len(other.rows) != len(first.rows):
            raise FigureShapeError(
                "figure runners must be deterministic in shape"
            )
    averaged = FigureResult(
        figure=first.figure,
        title=f"{first.title} (mean of {len(seeds)} seeds)",
        columns=first.columns,
        notes=list(first.notes),
    )
    for index, row in enumerate(first.rows):
        out = {}
        for column, value in row.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[column] = mean(
                    [float(r.rows[index][column]) for r in results]
                )
            else:
                out[column] = value
        averaged.add_row(**out)
    return averaged


# -- platform sensitivity --------------------------------------------------


@dataclass(frozen=True)
class PlatformTask:
    """One (figure, platform) cell of a platform-sensitivity sweep.

    ``platform`` is a preset name (possibly with a ``+dcaN`` suffix) rather
    than a spec object so the descriptor stays tiny and trivially picklable;
    the worker resolves it through the preset registry."""

    figure_id: str
    platform: str
    seed: int
    kwargs: Tuple[Tuple[str, Any], ...] = ()


def run_platform_figure(task: PlatformTask) -> FigureResult:
    """Worker entry point: run one registry figure on one platform.

    Goes through the registry's cache-through wrapper, so the platform name
    lands in the run-cache key alongside the figure id and kwargs."""
    from repro.experiments.figures import REGISTRY

    runner = REGISTRY[task.figure_id]
    return runner(
        seed=task.seed, platform=task.platform, **dict(task.kwargs)
    )


def _accepts(runner, param: str) -> bool:
    """True if a registry runner's underlying function takes ``param``."""
    fn = runner._resolve() if hasattr(runner, "_resolve") else runner
    return param in inspect.signature(fn).parameters


def _accepts_platform(runner) -> bool:
    """True if a registry runner's underlying function takes ``platform``."""
    return _accepts(runner, "platform")


def sweep_platforms(
    figures: Sequence[str],
    platforms: Sequence[str] = DEFAULT_SWEEP_PLATFORMS,
    dca_ways: Sequence[int] = (),
    dca_base: str = "skylake-sp",
    seed: int = 0xA4,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    **kwargs,
) -> Dict[Tuple[str, str], FigureResult]:
    """Run each figure on each platform (presets × DCA-way variants).

    ``dca_ways`` appends ``dca_base+dcaN`` variants — the paper's "what if
    DDIO had N ways" question — to the platform list.  Results come back as
    an insertion-ordered ``{(figure_id, platform_name): FigureResult}``;
    with ``parallel=True`` the cells fan out over the shared process pool
    (identical results either way, same guarantee as ``run_repeated``).
    """
    from repro.experiments.figures import REGISTRY

    names = list(platforms) + [f"{dca_base}+dca{n}" for n in dca_ways]
    if not figures or not names:
        raise SweepConfigError("need at least one figure and one platform")
    for name in names:
        get_platform(name)  # fail fast on unknown presets / bad variants
    for figure_id in figures:
        if figure_id not in REGISTRY:
            raise SweepConfigError(f"unknown figure {figure_id!r}")
        if not _accepts_platform(REGISTRY[figure_id]):
            raise SweepConfigError(
                f"figure {figure_id!r} does not take a platform parameter"
            )
    tasks = [
        PlatformTask(figure_id, name, seed, tuple(sorted(kwargs.items())))
        for figure_id in figures
        for name in names
    ]
    results = run_tasks(
        run_platform_figure, tasks, parallel=parallel, max_workers=max_workers
    )
    return {
        (task.figure_id, task.platform): result
        for task, result in zip(tasks, results)
    }


# -- tenant populations ----------------------------------------------------


DEFAULT_TENANT_SCHEMES = ("a4", "ioca", "isolate")
"""The tenant ablation's comparison set: the paper's scheme, the IOCA
per-tenant baseline, and static CAT."""


@dataclass(frozen=True)
class TenantCellTask:
    """One (tenant count, scheme) cell of a tenant-population sweep.

    Frozen + field types all primitive, so it pickles cheaply into the
    shared process pool (the same shape as :class:`PlatformTask`)."""

    tenants: int
    scheme: str
    seed: int
    epochs: int
    platform: Optional[str] = None


def run_tenant_cell(task: TenantCellTask) -> List:
    """Worker entry point: one generated population under one scheme.

    Returns the per-tenant :class:`~repro.experiments.report.TenantSlo`
    rows (frozen dataclasses — picklable back through the pool)."""
    from repro.experiments.tenants import build_tenant_server, evaluate_slos

    server = build_tenant_server(
        task.tenants,
        scheme=task.scheme,
        seed=task.seed,
        platform=task.platform,
    )
    result = server.run(epochs=task.epochs)
    return evaluate_slos(result, server.tenants())


def tenant_sweep(
    counts: Sequence[int] = (2, 4, 6),
    schemes: Sequence[str] = DEFAULT_TENANT_SCHEMES,
    seed: int = 0xA4,
    epochs: int = 10,
    platform: Optional[str] = None,
    parallel: bool = False,
    max_workers: Optional[int] = None,
) -> Dict[Tuple[int, str], List]:
    """Run every (tenant count, scheme) cell, optionally through the pool.

    Each count draws its population once (same seed), so all schemes in a
    column face the identical tenants; results come back insertion-ordered
    as ``{(count, scheme): [TenantSlo, ...]}``.
    """
    if not counts or not schemes:
        raise SweepConfigError("need at least one tenant count and scheme")
    tasks = [
        TenantCellTask(n, scheme, seed, epochs, platform)
        for n in counts
        for scheme in schemes
    ]
    results = run_tasks(
        run_tenant_cell, tasks, parallel=parallel, max_workers=max_workers
    )
    return {
        (task.tenants, task.scheme): rows
        for task, rows in zip(tasks, results)
    }


def tenant_sweep_summary(
    results: Dict[Tuple[int, str], List],
) -> FigureResult:
    """Condense a :func:`tenant_sweep`: SLOs met and mean attainment per
    (tenant count, scheme) cell."""
    summary = FigureResult(
        figure="Tenant sweep",
        title="SLO attainment per tenant count and scheme",
        columns=["tenants", "scheme", "slos_met", "slos_total",
                 "mean_attainment"],
    )
    for (count, scheme), rows in results.items():
        with_slo = [r for r in rows if r.slo_p99_latency is not None
                    or r.slo_min_throughput is not None]
        summary.add_row(
            tenants=count,
            scheme=scheme,
            slos_met=sum(1 for r in with_slo if r.met),
            slos_total=len(with_slo),
            mean_attainment=(
                sum(r.attainment for r in with_slo) / len(with_slo)
                if with_slo else 1.0
            ),
        )
    return summary


def platform_sweep_summary(
    results: Dict[Tuple[str, str], FigureResult],
) -> FigureResult:
    """Condense a :func:`sweep_platforms` result into one table: the mean
    of each figure's numeric columns per platform (a coarse sensitivity
    read-out; the per-cell tables carry the detail)."""
    summary = FigureResult(
        figure="Platform sweep",
        title="per-platform mean of each figure's numeric columns",
        columns=["figure", "platform", "column", "mean"],
    )
    for (figure_id, platform_name), result in results.items():
        for column in result.columns:
            values = [
                float(row[column])
                for row in result.rows
                if isinstance(row[column], (int, float))
                and not isinstance(row[column], bool)
            ]
            if values:
                summary.add_row(
                    figure=figure_id,
                    platform=platform_name,
                    column=column,
                    mean=mean(values),
                )
    return summary
