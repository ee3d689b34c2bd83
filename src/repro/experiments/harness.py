"""The simulated server testbed and run harness.

:class:`Server` assembles one socket — simulator, cache hierarchy, CAT,
memory, PCIe/IIO, PCM — then accepts workloads and an optional LLC manager
(Default / Isolate / A4).  :func:`Server.run` advances the simulation epoch
by epoch, sampling counters and invoking the manager at each boundary,
mirroring the paper's 1-second monitoring loop, and returns a
:class:`RunResult` aggregated over the post-warm-up window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro import obsv
from repro.experiments.errors import CoreAllocationError, InsufficientEpochsError
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.platform import DEFAULT_PLATFORM, PlatformSpec, get_platform
from repro.rdt.cat import CacheAllocation
from repro.rdt.mba import MemoryBandwidthAllocation
from repro.rdt.monitor import OccupancyMonitor
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng
from repro.telemetry.counters import CounterBank
from repro.telemetry.pcm import EpochSample, PcmSampler
from repro.uncore.iio import IIOAgent
from repro.uncore.memory import MemoryController
from repro.uncore.msr import MsrFile
from repro.uncore.pcie import PcieComplex, PciePort
from repro.workloads.base import Workload

REGION_PAD_LINES = 32
"""Guard gap between allocated regions (keeps streams' sets decorrelated)."""


class Server:
    """One simulated datacenter server socket."""

    def __init__(
        self,
        cores: int = 18,
        epoch_cycles: Optional[float] = None,
        seed: int = 0xA4,
        hierarchy_cfg: Optional[HierarchyConfig] = None,
        fault_plan=None,
        platform: Optional[PlatformSpec] = None,
    ):
        self.platform = get_platform(platform)
        """The microarchitecture this socket simulates; every geometry- or
        timing-dependent component below derives its defaults from it."""
        if epoch_cycles is None:
            epoch_cycles = self.platform.epoch_cycles
        self.sim = Simulator()
        self.rng = DeterministicRng(seed)
        self.counters = CounterBank()
        self.cat = CacheAllocation(ways=self.platform.llc_ways)
        self.mba = MemoryBandwidthAllocation()
        self.memory = MemoryController.for_platform(
            self.counters, self.platform
        )
        hierarchy_cfg = hierarchy_cfg or HierarchyConfig.for_platform(
            self.platform, cores=cores
        )
        hierarchy_cfg.cores = cores
        self.hierarchy = CacheHierarchy(
            hierarchy_cfg, self.cat, self.memory, self.counters, mba=self.mba
        )
        self.iio = IIOAgent(self.hierarchy)
        self.msr = MsrFile(self.hierarchy.llc)
        self.pcie = PcieComplex(self.counters)
        self.pcm = PcmSampler(
            self.counters, epoch_cycles, line_bytes=self.platform.line_bytes
        )
        self.monitor = OccupancyMonitor(self.hierarchy.llc)
        self.faults = None
        if fault_plan is not None and fault_plan.enabled:
            # Interpose on the *control plane* only: the hierarchy and the
            # devices keep their references to the real CAT/PCIe objects
            # (grabbed above), so injected failures hit the manager's
            # writes, never the data path.  Imported lazily so a faultless
            # server never loads the module.
            from repro.faults.inject import (
                FaultInjector,
                FaultyCacheAllocation,
                FaultyPcieView,
            )

            self.faults = FaultInjector(fault_plan, self.rng)
            self.cat = FaultyCacheAllocation(self.cat, self.faults)
            self.pcie = FaultyPcieView(self.pcie, self.faults)
        self.epoch_cycles = epoch_cycles
        self.total_cores = cores
        self.workloads: List[Workload] = []
        self.manager = None
        self.epochs_completed = 0
        """Cumulative epoch count across every ``run`` call (and across a
        checkpoint restore — it pickles with the server), so trace epochs
        and checkpoint indices of a resumed run line up with the
        uninterrupted equivalent."""
        self._next_core = 0
        self._next_addr = 1 << 20
        self._next_port = 0
        self._next_clos = 1
        self._clos: Dict[str, int] = {}

    # -- resource allocation ------------------------------------------------

    def alloc_cores(self, n: int) -> Tuple[int, ...]:
        if self._next_core + n > self.total_cores:
            raise CoreAllocationError(
                f"out of cores: need {n}, have {self.total_cores - self._next_core}"
            )
        cores = tuple(range(self._next_core, self._next_core + n))
        self._next_core += n
        return cores

    def alloc_region(self, lines: int) -> int:
        base = self._next_addr
        self._next_addr += lines + REGION_PAD_LINES
        return base

    def add_port(self, name: str = "") -> PciePort:
        port = self.pcie.add_port(self._next_port, name)
        self._next_port += 1
        return port

    # -- workload / manager management -------------------------------------

    def add_workload(self, workload: Workload) -> Workload:
        """Set a workload up: cores, regions, devices, CLOS, registration.

        May also be called mid-run (between ``run`` calls): the paper's
        Fig. 9 step 1 — the manager is notified so it can re-derive its
        initial partitions for the new workload combination.
        """
        workload.setup(self)
        clos = self._next_clos
        self._next_clos += 1
        self._clos[workload.name] = clos
        for core in workload.cores:
            self.cat.associate(core, clos)
        self.cat.label(clos, workload.tenant.name)
        self.workloads.append(workload)
        self.pcm.register(workload.info())
        if obsv.TRACER is not None:
            obsv.TRACER.emit(
                obsv.KIND_TENANT,
                workload.tenant.name,
                {
                    "workload": workload.name,
                    "clos": clos,
                    "tenant_class": workload.tenant.tenant_class,
                    "cores": list(workload.cores),
                },
            )
        if self.manager is not None:
            self.manager.on_workload_change()
        return workload

    def terminate_workload(self, name: str) -> Workload:
        """Remove a workload from management (its processes idle out; the
        paper's termination event).  Freed cores are not recycled — the
        testbed pins workloads to cores for a run, as in §6."""
        workload = self.workload(name)
        self.workloads.remove(workload)
        self.pcm.unregister(name)
        if self.manager is not None:
            self.manager.on_workload_change()
        return workload

    def add_workloads(self, workloads) -> None:
        for workload in workloads:
            self.add_workload(workload)

    def clos_of(self, name: str) -> int:
        return self._clos[name]

    def workload(self, name: str) -> Workload:
        for workload in self.workloads:
            if workload.name == name:
                return workload
        raise KeyError(name)

    def tenants(self):
        """The :class:`~repro.tenancy.TenantSet` the hosted workloads imply
        (implicit per-workload tenants merged by name)."""
        from repro.tenancy import TenantSet

        return TenantSet.from_workloads(self.workloads)

    def tenant_workloads(self, tenant: str) -> List[Workload]:
        return [w for w in self.workloads if w.tenant.name == tenant]

    def set_manager(self, manager) -> None:
        self.manager = manager
        manager.attach(self)

    # -- execution -------------------------------------------------------------

    def time_shift(self, delta: float) -> None:
        """Advance the wall clock by ``delta`` cycles without simulating.

        The engine fast-forwards (pending events keep their relative
        offsets), and every component holding *absolute* timestamps —
        the memory controller's bandwidth window, in-flight device
        commands, workload latency baselines — is shifted to match, so
        simulation resumes exactly where it left off, just later.  This
        is the primitive interval sampling skips epochs with."""
        self.sim.fast_forward(delta)
        self.memory.time_shift(delta)
        for workload in self.workloads:
            workload.time_shift(delta)

    def _begin_run(self, total_epochs: int = 0):
        """Per-``run`` observability setup shared by the exact and sampled
        executors; returns the context tuple ``_run_epoch`` consumes.

        ``total_epochs`` (the number of epochs this ``run`` call will
        simulate) arms live progress streaming: each epoch then also
        emits a ``progress`` event with done/total, events/s, and an
        ETA — the payload ``tools/service.py watch`` renders."""
        faults = self.faults
        tracer = obsv.TRACER
        profiler = obsv.PROFILER
        epoch_hist = None
        progress = None
        if tracer is not None:
            epoch_hist = obsv.get_registry().histogram(
                "repro_epoch_wall_seconds",
                help="wall time simulating one monitoring epoch",
            )
            # Header event: which microarchitecture produced this trace.
            tracer.platform = self.platform.token
            tracer.emit(
                obsv.KIND_PLATFORM,
                self.platform.name,
                self.platform.fingerprint(),
            )
            if obsv.AUDIT is not None:
                obsv.AUDIT.platform = self.platform.token
            if total_epochs > 0 and (
                tracer.sink is not None or tracer.context is not None
            ):
                # Progress events carry wall-clock rates and per-leg
                # totals, so they are deliberately confined to streaming
                # consumers (a spooled or service-context tracer) — a
                # plain in-memory trace stays deterministic and replay
                # traces stay comparable event-for-event.
                # Totals are absolute (a checkpoint-resumed run reports
                # "epoch 30/40", not "10/10 of the remainder").
                progress = {
                    "base": self.epochs_completed,
                    "total": self.epochs_completed + total_epochs,
                    "started": perf_counter(),
                    "events_base": self.sim.events_executed,
                }
        return (faults, tracer, profiler, epoch_hist, progress)

    def _run_epoch(self, ctx) -> EpochSample:
        """Simulate exactly one monitoring epoch (chaos, events, sample,
        manager) and advance ``epochs_completed``."""
        faults, tracer, profiler, epoch_hist, progress = ctx
        i = self.epochs_completed
        if tracer is not None:
            tracer.epoch = i
            tracer.now = self.sim.now
        # The profiler attributes each epoch's engine window to the phase
        # the controller was in when the epoch began.
        phase = getattr(self.manager, "phase", None) or "epoch"
        if faults is not None:
            # Device chaos is armed before the epoch simulates; delayed
            # CAT commits mature at the boundary, before the manager
            # acts on it; the manager sees the (possibly corrupted)
            # fault view while ``samples`` keeps the true reading.
            faults.epoch_chaos(self)
        sim = self.sim
        events_before = sim.events_executed
        now_before = sim.now
        wall_started = perf_counter()
        sim.run_until(now_before + self.epoch_cycles)
        if profiler is not None:
            profiler.record(
                phase,
                perf_counter() - wall_started,
                sim.events_executed - events_before,
                sim.now - now_before,
            )
        sample = self.pcm.sample(sim.now)
        if tracer is not None:
            wall = perf_counter() - wall_started
            tracer.now = self.sim.now
            tracer.emit(
                obsv.KIND_EPOCH,
                "epoch",
                {
                    "index": i,
                    "events": self.sim.events_executed,
                    "mem_bw": sample.mem_total_bw,
                },
                wall=wall,
            )
            epoch_hist.observe(wall)
            if progress is not None:
                done = self.epochs_completed + 1
                elapsed = perf_counter() - progress["started"]
                session = done - progress["base"]
                rate = 0.0
                if elapsed > 0:
                    rate = (
                        self.sim.events_executed - progress["events_base"]
                    ) / elapsed
                remaining = progress["total"] - done
                eta = (
                    remaining * (elapsed / session)
                    if session > 0 and remaining > 0
                    else 0.0
                )
                tracer.emit(
                    obsv.KIND_PROGRESS,
                    "epoch",
                    {
                        "done": done,
                        "total": progress["total"],
                        "events_per_s": round(rate, 1),
                        "eta_s": round(eta, 3),
                    },
                )
        if self.manager is not None:
            if faults is not None:
                faults.advance_epoch()
                self.manager.on_epoch(faults.filter_sample(sample))
            else:
                self.manager.on_epoch(sample)
        self.epochs_completed += 1
        return sample

    def _maybe_checkpoint(
        self, store, every: int, run_key: Optional[str]
    ) -> None:
        """Write a checkpoint if a store is attached and the cadence says
        so; emits one ``checkpoint`` trace event per snapshot taken."""
        if store is None or every <= 0:
            return
        if self.epochs_completed % every != 0:
            return
        from repro.sim import checkpoint as ckpt

        state = ckpt.snapshot(self)
        key = store.save(run_key or "run", state)
        tracer = obsv.TRACER
        if tracer is not None:
            tracer.now = self.sim.now
            tracer.emit(
                obsv.KIND_CHECKPOINT,
                "snapshot",
                {
                    "epoch": state.epoch,
                    "key": key[:16],
                    "bytes": len(state.payload),
                },
            )

    def run(
        self,
        epochs: int,
        warmup: Optional[int] = None,
        epoch_hook=None,
        sampling=None,
        checkpoint_store=None,
        checkpoint_every: int = 0,
        run_key: Optional[str] = None,
    ) -> "RunResult":
        """Advance the server ``epochs`` monitoring intervals.

        ``sampling`` (a :class:`~repro.sim.sampling.SamplingPlan`) switches
        to the representative-interval executor; exact epoch-by-epoch
        simulation — bit-identical to every previous release — remains the
        default.  ``checkpoint_store`` + ``checkpoint_every`` snapshot the
        whole server every N completed epochs under ``run_key``."""
        if warmup is None:
            warmup = self.platform.warmup_epochs
        if epochs <= warmup:
            raise InsufficientEpochsError(
                "need more epochs than warm-up intervals"
            )
        if sampling is not None:
            from repro.sim.sampling import SampledRun

            return SampledRun(self, sampling).run(
                epochs,
                warmup,
                epoch_hook,
                checkpoint_store=checkpoint_store,
                checkpoint_every=checkpoint_every,
                run_key=run_key,
            )
        samples: List[EpochSample] = []
        ctx = self._begin_run(epochs)
        tracer = ctx[1]
        for _ in range(epochs):
            sample = self._run_epoch(ctx)
            samples.append(sample)
            if epoch_hook is not None:
                epoch_hook(self, sample)
            self._maybe_checkpoint(checkpoint_store, checkpoint_every, run_key)
        if tracer is not None:
            tracer.epoch = -1
        return RunResult(samples=samples, warmup=warmup, server=self)


@dataclass
class StreamAggregate:
    """One workload's metrics averaged over the measurement window."""

    name: str
    ipc: float = 0.0
    llc_hit_rate: float = 0.0
    llc_miss_rate: float = 0.0
    mlc_miss_rate: float = 0.0
    dca_miss_rate: float = 0.0
    throughput: float = 0.0
    """Completed I/O in lines per cycle."""
    avg_latency: float = 0.0
    p99_latency: float = 0.0
    latency_components: Dict[str, float] = field(default_factory=dict)
    requests: int = 0
    dma_leaks: int = 0
    dma_bloats: int = 0
    migrations: int = 0
    packets_dropped: int = 0


@dataclass
class RunResult:
    """Outcome of one experiment run."""

    samples: List[EpochSample]
    warmup: int
    server: Server
    sampling: Optional[object] = None
    """:class:`~repro.sim.sampling.SamplingReport` when the run used
    representative-interval sampling; None for exact runs."""

    @property
    def window(self) -> List[EpochSample]:
        return self.samples[self.warmup:]

    def stream_names(self) -> List[str]:
        names: List[str] = []
        for sample in self.samples:
            for name in sample.streams:
                if name not in names:
                    names.append(name)
        return names

    def aggregate(self, name: str) -> StreamAggregate:
        window = [s.streams[name] for s in self.window if name in s.streams]
        if not window:
            return StreamAggregate(name)
        n = len(window)
        agg = StreamAggregate(name)
        agg.ipc = sum(s.ipc for s in window) / n
        agg.llc_hit_rate = sum(s.llc_hit_rate for s in window) / n
        agg.llc_miss_rate = sum(s.llc_miss_rate for s in window) / n
        agg.mlc_miss_rate = sum(s.mlc_miss_rate for s in window) / n
        agg.dca_miss_rate = sum(s.dca_miss_rate for s in window) / n
        agg.throughput = sum(s.io_throughput_lines_per_cycle for s in window) / n
        agg.requests = sum(s.latency.count for s in window)
        if agg.requests:
            agg.avg_latency = (
                sum(s.latency.mean * s.latency.count for s in window)
                / agg.requests
            )
            weighted = [s for s in window if s.latency.count]
            agg.p99_latency = sum(s.latency.p99 for s in weighted) / len(weighted)
            components: Dict[str, float] = {}
            for s in weighted:
                for key, value in s.latency.components.items():
                    components[key] = components.get(key, 0.0) + value
            agg.latency_components = {
                key: value / len(weighted) for key, value in components.items()
            }
        agg.dma_leaks = sum(s.counters.dma_leaks for s in window)
        agg.dma_bloats = sum(s.counters.dma_bloats for s in window)
        agg.migrations = sum(s.counters.migrations for s in window)
        agg.packets_dropped = sum(s.counters.packets_dropped for s in window)
        return agg

    def aggregates(self) -> Dict[str, StreamAggregate]:
        return {name: self.aggregate(name) for name in self.stream_names()}

    def robustness(self) -> Dict[str, int]:
        """Hardening + fault counters for run reports (empty when the
        manager predates the hardened contract, e.g. a cached stub)."""
        stats: Dict[str, int] = {}
        manager = getattr(self.server, "manager", None)
        if manager is not None and hasattr(manager, "robustness_stats"):
            stats.update(manager.robustness_stats())
        faults = getattr(self.server, "faults", None)
        if faults is not None:
            stats["faults_injected"] = faults.counters.total
        return stats

    @property
    def mem_read_bw(self) -> float:
        window = self.window
        return sum(s.mem_read_bw for s in window) / max(1, len(window))

    @property
    def mem_write_bw(self) -> float:
        window = self.window
        return sum(s.mem_write_bw for s in window) / max(1, len(window))

    @property
    def mem_total_bw(self) -> float:
        return self.mem_read_bw + self.mem_write_bw

    def export_csv(
        self,
        path: str,
        metrics=("ipc", "llc_hit_rate", "io_throughput", "avg_latency"),
    ) -> None:
        """Dump the per-epoch, per-stream time series to ``path`` (CSV).

        For a sampled run a companion ``<path>.sampling.csv`` is written
        alongside, carrying the per-stream extrapolation estimates
        (mean, standard error, relative error) so downstream plots can
        annotate confidence."""
        from repro.telemetry import trace

        trace.write_csv(self.samples, path, metrics)
        if self.sampling is not None:
            self._export_sampling_csv(f"{path}.sampling.csv")

    def _export_sampling_csv(self, path: str) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["stream", "metric", "mean", "stderr", "rel_err"])
            for name in sorted(self.sampling.estimates):
                for metric, est in sorted(self.sampling.estimates[name].items()):
                    writer.writerow(
                        [name, metric, est.mean, est.stderr, est.rel_err]
                    )

    def summary(self) -> str:
        """Human-readable per-workload table."""
        lines = [
            f"{'workload':<12} {'IPC':>7} {'LLChit%':>8} {'MLCmiss%':>9} "
            f"{'tput l/c':>9} {'avg lat':>9} {'p99 lat':>9} {'leaks':>7}"
        ]
        for name in self.stream_names():
            agg = self.aggregate(name)
            lines.append(
                f"{name:<12} {agg.ipc:>7.3f} {100 * agg.llc_hit_rate:>8.1f} "
                f"{100 * agg.mlc_miss_rate:>9.1f} {agg.throughput:>9.4f} "
                f"{agg.avg_latency:>9.1f} {agg.p99_latency:>9.1f} "
                f"{agg.dma_leaks:>7}"
            )
        lines.append(
            f"memory bandwidth: read {self.mem_read_bw:.4f} "
            f"write {self.mem_write_bw:.4f} lines/cycle"
        )
        if self.sampling is not None:
            lines.append(self.sampling.summary())
        return "\n".join(lines)
