"""The benchmark's four workloads.

Each workload builds its servers from the seed alone.  An *operation* is
one cell -- one run of one server -- or, for ``seed_sweep_pool``, one seed
task of a :func:`~repro.experiments.sweep.run_repeated` sweep.  One timed
call runs a batch of operations (five consecutive seeds for the cell
workloads and the pool, since traffic differs by seed; one seed for the
long horizon, whose cost does not) and returns an :class:`Outcome` with
its host wall time and, per operation, a digest of the simulated
statistics after warm-up, which every other run of that seed must
reproduce exactly.  Each operation starts on a collected heap, and a call
keeps its results (and so its servers) only when asked to.

Caches start empty (every operation builds a fresh server) and the
digests and simulated metrics cover only the epochs after warm-up.
"""

from __future__ import annotations

import gc
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import parallel
from repro.experiments.harness import RunResult, Server
from repro.experiments.scenarios import (
    build_server,
    hpw_heavy_workloads,
    microbenchmark_workloads,
)
from repro.experiments.sweep import MultiSeedResult, run_repeated
from repro.platform import DEFAULT_PLATFORM
from repro.sim.sampling import SamplingPlan
from repro.telemetry.pcm import PRIORITY_HIGH, PRIORITY_LOW
from repro.workloads.dpdk import DpdkWorkload
from repro.workloads.fio import FioWorkload

MB = 1024 * 1024

CELL_EPOCHS = 5
CELL_WARMUP = 2
LONG_EPOCHS = 200
LONG_WARMUP = 5
LONG_PLAN = SamplingPlan(max_skip=32, error_budget=0.02)
SEEDS_PER_RUN = 5
POOL_WORKERS = 2

SIGNIFICANT = 0.01
"""Relative errors are taken only over estimates whose magnitude is at
least this (the convention of the repository's own long-horizon bench):
a storage reader's ~1e-4 LLC hit rate turns a 1e-5 absolute wobble into a
huge relative one.  The unfloored figure is reported per layer."""


# -- servers ------------------------------------------------------------------


def build_net_a4(seed: int) -> Server:
    """Fig. 11 microbenchmark mix (DPDK-T, FIO, three X-Mems) under A4,
    1514 B packets."""
    return build_server(
        microbenchmark_workloads(packet_bytes=1514), scheme="a4", seed=seed
    )


def build_mixed_a4(seed: int) -> Server:
    """Fig. 13a HPW-heavy mix (Fastclick, FFSB-H/L, Redis-S/C, six SPEC
    programs) under A4."""
    return build_server(hpw_heavy_workloads(), scheme="a4", seed=seed)


def build_canonical(seed: int) -> Server:
    """The canonical unmanaged NIC+NVMe server: DPDK-T (HPW) + FIO (LPW)."""
    server = Server(cores=10, seed=seed)
    server.add_workload(
        DpdkWorkload(name="dpdk", touch=True, cores=4, packet_bytes=1024,
                     priority=PRIORITY_HIGH)
    )
    server.add_workload(
        FioWorkload(name="fio", block_bytes=1 * MB, cores=4, io_depth=16,
                    priority=PRIORITY_LOW)
    )
    return server


# -- digests and derived figures ----------------------------------------------


def run_digest(result: RunResult) -> str:
    """Hash of every post-warm-up epoch sample (per-stream counters and
    latency summaries) plus, for a sampled run, the sampler's report."""
    h = hashlib.sha256()
    for sample in result.window:
        h.update(repr((sample.index, sample.time, sample.epoch_cycles,
                       sample.mem_read_lines, sample.mem_write_lines)).encode())
        for name in sorted(sample.streams):
            stream = sample.streams[name]
            h.update(repr((name, stream.counters, stream.latency)).encode())
    report = result.sampling
    if report is not None:
        h.update(repr((report.detailed_epochs, report.skipped_epochs,
                       report.clusters, report.skipped_indices)).encode())
        for name in sorted(report.estimates):
            for metric in sorted(report.estimates[name]):
                h.update(repr(report.estimates[name][metric]).encode())
    return h.hexdigest()[:16]


def seed_digests(result: MultiSeedResult) -> List[str]:
    """One digest per seed of a sweep: that seed's value of every stream
    metric, plus its memory bandwidth."""
    digests = []
    for i, seed in enumerate(result.seeds):
        h = hashlib.sha256(repr((seed, result.mem_total_bw.values[i])).encode())
        for name in sorted(result.streams):
            for metric in sorted(result.streams[name]):
                value = result.streams[name][metric].values[i]
                h.update(repr((name, metric, value)).encode())
        digests.append(h.hexdigest()[:16])
    return digests


def reported_error(result: RunResult) -> float:
    """Worst relative error the sampler reports, over estimates of
    magnitude >= :data:`SIGNIFICANT`; 0 for an exact run."""
    report = result.sampling
    if report is None:
        return 0.0
    worst = 0.0
    for metrics in report.estimates.values():
        for estimate in metrics.values():
            if abs(estimate.mean) >= SIGNIFICANT:
                worst = max(worst, estimate.rel_err)
    return worst


def true_error(exact: RunResult, sampled: RunResult) -> float:
    """Worst relative error of the sampled window means against an exact
    run of the same seed, over the sampler's metrics of magnitude >=
    :data:`SIGNIFICANT`."""
    worst = 0.0
    for name in exact.stream_names():
        reference = exact.aggregate(name)
        estimate = sampled.aggregate(name)
        for metric in ("ipc", "llc_hit_rate", "mlc_miss_rate", "throughput"):
            ref = getattr(reference, metric)
            if abs(ref) >= SIGNIFICANT:
                worst = max(worst, abs(getattr(estimate, metric) - ref) / abs(ref))
    return worst


def cycles_covered(result: RunResult) -> float:
    """Simulated cycles a run covers; epochs the sampler skipped count."""
    return len(result.samples) * result.server.epoch_cycles


# -- workloads ----------------------------------------------------------------


@dataclass
class Outcome:
    """One measured call: its wall time and what it simulated."""

    wall_s: float
    digests: List[str]
    """One digest per operation, in operation order."""
    cycles: float
    results: list
    """What the operations returned, if the call was asked to keep it."""
    accuracy: float = 1.0
    """1 - the worst reported sampling error (1 on exact runs)."""
    failures: Dict[int, str] = field(default_factory=dict)
    """Operation index -> the check it failed on its own (error budget)."""
    pool: Dict[str, float] = field(default_factory=dict)


class CellWorkload:
    """A workload whose operation is one run of one server.  One timed
    call runs the cells of ``batch`` consecutive seeds serially, so that a
    run's figure does not hinge on one seed's traffic."""

    def __init__(self, name: str, why: str, build: Callable[[int], Server],
                 epochs: int, warmup: int, batch: int = 1,
                 sampling: Optional[SamplingPlan] = None) -> None:
        self.name = name
        self.why = why
        self.build = build
        self.epochs = epochs
        self.warmup = warmup
        self.batch = batch
        self.sampling = sampling
        self.pool_start_s = 0.0

    def seeds(self, seed: int) -> Sequence[int]:
        return tuple(seed + i for i in range(self.batch))

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass

    def reference(self, seed: int) -> Outcome:
        return self.measure(seed)

    def measure(self, seed: int, exact: bool = False,
                keep: bool = False) -> Outcome:
        """Build each server (untimed), then time its run.  ``exact`` runs
        a sampled workload epoch by epoch instead; ``keep`` keeps each
        cell's :class:`RunResult`."""
        plan = None if exact else self.sampling
        outcome = Outcome(0.0, [], 0.0, [])
        for i, cell_seed in enumerate(self.seeds(seed)):
            gc.collect()
            server = self.build(cell_seed)
            started = time.perf_counter()
            result = server.run(epochs=self.epochs, warmup=self.warmup,
                                sampling=plan)
            outcome.wall_s += time.perf_counter() - started
            outcome.digests.append(run_digest(result))
            outcome.cycles += cycles_covered(result)
            if keep:
                outcome.results.append(result)
            if plan is not None:
                err = reported_error(result)
                outcome.accuracy = min(outcome.accuracy, 1.0 - err)
                if err > plan.error_budget:
                    outcome.failures[i] = (
                        f"reported sampling error {err:.4f} exceeds the "
                        f"{plan.error_budget} budget"
                    )
            del server, result
        return outcome


class PoolWorkload:
    """``run_repeated`` over a cell workload's seed batch, through the
    process pool of :mod:`repro.experiments.parallel`."""

    def __init__(self, name: str, why: str, cell: CellWorkload) -> None:
        self.name = name
        self.why = why
        self.cell = cell
        self.workers = POOL_WORKERS
        self.pool_start_s = 0.0

    def seeds(self, seed: int) -> Sequence[int]:
        return self.cell.seeds(seed)

    def prepare(self) -> None:
        """Start the shared pool and wait until every worker has run its
        initializer and taken a task."""
        started = time.perf_counter()
        start_pool(self.workers)
        self.pool_start_s = time.perf_counter() - started

    def close(self) -> None:
        parallel.shutdown_pool()

    def worker_pids(self) -> List[int]:
        pool = parallel.get_pool(self.workers)
        return sorted(pool._processes or {})

    def _sweep(self, seed: int, parallel_run: bool) -> Outcome:
        seeds = self.seeds(seed)
        pids = self.worker_pids() if parallel_run else []
        gc.collect()
        busy_before = sum(cpu_seconds(pid) for pid in pids)
        cpu_before = time.process_time()
        started = time.perf_counter()
        result = run_repeated(
            self.cell.build, epochs=self.cell.epochs, warmup=self.cell.warmup,
            seeds=seeds, parallel=parallel_run, max_workers=self.workers,
        )
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_before
        cycles = len(seeds) * self.cell.epochs * DEFAULT_PLATFORM.epoch_cycles
        outcome = Outcome(wall, seed_digests(result), cycles, [])
        if parallel_run:
            busy = sum(cpu_seconds(pid) for pid in pids) - busy_before
            outcome.pool = {
                "dispatch_wait_s": max(0.0, wall - cpu),
                "worker_busy_s": busy,
                "efficiency": busy / (self.workers * wall),
            }
        return outcome

    def reference(self, seed: int) -> Outcome:
        """The serial ``run_repeated`` result the pool must reproduce."""
        return self._sweep(seed, parallel_run=False)

    def measure(self, seed: int) -> Outcome:
        return self._sweep(seed, parallel_run=True)


def _worker_pid() -> int:
    time.sleep(0.01)  # long enough that one idle worker cannot take all
    return os.getpid()


def start_pool(workers: int) -> None:
    """Start the shared executor and warm every worker."""
    pool = parallel.get_pool(workers)
    seen = set()
    for _ in range(100):
        seen.update(f.result() for f in
                    [pool.submit(_worker_pid) for _ in range(workers)])
        if len(seen) >= workers:
            return
    raise RuntimeError(f"only {len(seen)} of {workers} pool workers answered")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


NET_A4 = CellWorkload(
    "net_a4",
    "Fig. 11 mix under A4 at 1514 B packets, five seeds, exact: the "
    "network-DCA path, where the CPU miss chain (cpu_access, MLC fill, MLC "
    "eviction) dominates",
    build_net_a4, CELL_EPOCHS, CELL_WARMUP, batch=SEEDS_PER_RUN,
)

WORKLOADS = {
    w.name: w
    for w in (
        NET_A4,
        CellWorkload(
            "mixed_a4",
            "Fig. 13a HPW-heavy mix under A4, five seeds, exact: MLC hits, "
            "CPU writes, snoops and NVMe DMA; catches a miss-path speed-up "
            "that costs hits or writes",
            build_mixed_a4, CELL_EPOCHS, CELL_WARMUP, batch=SEEDS_PER_RUN,
        ),
        CellWorkload(
            "long_horizon_sampled",
            "Canonical DPDK-T+FIO server over 200 epochs under interval "
            "sampling: moves with the sampler, barely with the cache layer",
            build_canonical, LONG_EPOCHS, LONG_WARMUP, sampling=LONG_PLAN,
        ),
        PoolWorkload(
            "seed_sweep_pool",
            "net_a4's five seeds as one run_repeated sweep on a 2-worker "
            "pool: the only workload that measures the parallel executor",
            NET_A4,
        ),
    )
}
