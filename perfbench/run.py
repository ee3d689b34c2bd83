"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload net_a4 --seed 164 --seconds 10 --trace 0

A run

1. sets the workload up several times in fresh interpreters
   (``setup_probe.py``) and keeps the median as ``setup_s``;
2. makes one reference call with cache-line counters on the hierarchy
   entry points (the work unit of ``line_accesses_per_s``), keeping only
   its digests and counts;
3. repeats the call untraced for ``--seconds`` seconds (at least three
   times), has the host-speed calibration (``hostspeed.py``, in a child
   interpreter) sample after each call, and reports median host times
   scaled to the reference host;
4. with ``--trace 1``, also makes the call under span wrappers
   (``spans.py``) and reports the per-layer metrics instead; for a sampled
   workload it also runs the seed exactly and checks the sampler's true
   error against its budget.

Every operation's digest of simulated statistics must equal the
reference's; for the pool workload the reference is the serial sweep.  The
last line of standard output is one JSON object; the exit code is 1 when
any correctness check failed.  ``--workload all`` runs every workload in
turn and ends with one JSON object over all of them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402

MIN_REPEATS = 3
CALIBRATION_SHARE = 0.5
"""Calibration time after each timed call, as a share of the call's."""
SETUP_PROBES = 5
TRACE_SETUP_PROBES = 3


def probe_setup(workload: str, seed: int) -> dict:
    """Time one set-up in a fresh interpreter, from process start until
    the first epoch could begin."""
    script = Path(__file__).resolve().parent / "setup_probe.py"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(script), workload, str(seed)],
        cwd=perfbench.ROOT, capture_output=True, text=True, timeout=120,
        check=True,
    )
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    probe["setup_s"] = probe["ready"] - started
    return probe


def median_of(dicts, key: str) -> float:
    return statistics.median(d[key] for d in dicts)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self, reference) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, outcome, what: str) -> None:
        """Count ``outcome``'s operations; one fails if its digest differs
        from the reference's or the call failed a check of its own."""
        self.attempted += len(outcome.digests)
        for i, (got, want) in enumerate(
                zip(outcome.digests, self.reference.digests)):
            if got != want:
                self.reasons.append(f"{what} op {i}: digest {got} != {want}")
            elif i in outcome.failures:
                self.reasons.append(f"{what} op {i}: {outcome.failures[i]}")
            else:
                continue
            self.failed += 1


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count from its current RSS (Linux
    ``clear_refs``), so what earlier calls held does not show."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb(workload) -> float:
    """Peak RSS of this process since :func:`reset_peak_rss`, plus that of
    each live pool worker."""
    from perfbench.workloads import PoolWorkload, peak_rss_kb

    kb = peak_rss_kb(os.getpid())
    if isinstance(workload, PoolWorkload):
        kb += sum(peak_rss_kb(pid) for pid in workload.worker_pids())
    return kb / 1024.0


def layer_metrics(rec, traced_wall: float) -> dict:
    """Per-layer figures of one traced operation (see README.md)."""
    from perfbench.workloads import reported_error
    from repro.telemetry.pcm import PRIORITY_HIGH

    calls, self_s = rec.calls, rec.self_s
    results = rec.results
    m = {}
    events = sum(r.server.sim.events_executed for r in results)
    total_epochs = sum(len(r.samples) for r in results)
    detailed = sum(
        r.sampling.detailed_epochs if r.sampling else len(r.samples)
        for r in results
    )
    detailed_cycles = sum(
        (r.sampling.detailed_epochs if r.sampling else len(r.samples))
        * r.server.epoch_cycles for r in results
    )
    m["sim.self_s"] = self_s["sim"]
    m["sim.events"] = events
    m["sim.events_per_kcycle"] = events / (detailed_cycles / 1000.0)
    m["sim.epoch_wall_ms.p50"] = 1000.0 * statistics.median(rec.durations["sim"])

    m["sampling.run.self_s"] = self_s["sampling.run"]
    m["sampling.detailed_epochs"] = detailed
    m["sampling.skip_ratio"] = (total_epochs - detailed) / total_epochs
    m["sampling.reported_err"] = max(reported_error(r) for r in results)
    m["sampling.reported_err_raw"] = max(
        r.sampling.max_rel_err() if r.sampling else 0.0 for r in results
    )

    cache_self = 0.0
    for name in rec.calls:
        if name.startswith("cache."):
            cache_self += self_s[name]
    m["cache.self_s"] = cache_self
    m["cache.line_accesses"] = rec.line_accesses
    for entry in ("cpu_access", "cpu_access_run", "dma_write_burst", "dma_read"):
        m[f"cache.{entry}.calls"] = calls[f"cache.{entry}"]
        m[f"cache.{entry}.self_s"] = self_s[f"cache.{entry}"]
    for entry in ("cpu_access_run", "dma_write_burst"):
        m[f"cache.{entry}.lines"] = rec.lines[f"cache.{entry}"]
    m["cache.batched_line_share"] = rec.batched_line_share

    totals = {}
    for r in results:
        for sample in r.window:
            for stream in sample.streams.values():
                counters = stream.counters
                for f in fields(counters):
                    totals[f.name] = totals.get(f.name, 0) + getattr(
                        counters, f.name)

    def ratio(num, den):
        return num / den if den else 0.0

    m["cache.mlc_hit_rate"] = ratio(
        totals["mlc_hits"], totals["mlc_hits"] + totals["mlc_misses"])
    m["cache.llc_hit_rate"] = ratio(
        totals["llc_hits"], totals["llc_hits"] + totals["llc_misses"])
    m["cache.dca_hit_rate"] = 1.0 - ratio(
        totals["io_read_misses"], totals["io_reads"])
    for key in ("migrations", "dma_bloats", "dma_leaks", "back_invalidations"):
        m[f"cache.{key}"] = totals[key]

    m["uncore.iio.inbound_write_burst.calls"] = calls[
        "uncore.iio.inbound_write_burst"]
    m["uncore.iio.inbound_write_burst.self_s"] = self_s[
        "uncore.iio.inbound_write_burst"]
    m["uncore.iio.outbound_read.calls"] = calls["uncore.iio.outbound_read"]
    m["uncore.memory.read.calls"] = calls["uncore.memory.read"]
    m["uncore.memory.write.calls"] = calls["uncore.memory.write"]
    m["uncore.memory.self_s"] = (
        self_s["uncore.memory.read"] + self_s["uncore.memory.write"])

    m["devices.nvme.submit.calls"] = calls["devices.nvme.submit"]
    m["devices.nvme.submit.self_s"] = self_s["devices.nvme.submit"]
    m["devices.packets_dropped"] = totals["packets_dropped"]

    m["core.on_epoch.calls"] = calls["core.on_epoch"]
    m["core.on_epoch.self_s"] = self_s["core.on_epoch"]
    m["core.set_ways.calls"] = calls["core.set_ways"]
    m["core.set_port_dca.calls"] = calls["core.set_port_dca"]
    m["core.pending_applies"] = sum(
        r.server.manager.pending_applies for r in results
        if r.server.manager is not None
    )
    m["rdt.cat.set_mask.calls"] = calls["rdt.cat.set_mask"]
    m["telemetry.pcm.sample.calls"] = calls["telemetry.pcm.sample"]
    m["telemetry.pcm.sample.self_s"] = self_s["telemetry.pcm.sample"]

    ipc, hit = [], []
    for r in results:
        hpw = [w.name for w in r.server.workloads if w.priority == PRIORITY_HIGH]
        ipc.append(statistics.fmean(r.aggregate(n).ipc for n in hpw))
        hit.append(statistics.fmean(r.aggregate(n).llc_hit_rate for n in hpw))
    m["model.hpw_ipc"] = statistics.fmean(ipc)
    m["model.hpw_llc_hit_rate"] = statistics.fmean(hit)

    self_sum = rec.total_self_s()
    m["trace.wall_s"] = traced_wall
    m["trace.self_sum_s"] = self_sum
    m["trace.residual_pct"] = 100.0 * (traced_wall - self_sum) / traced_wall
    return m


def traced_run(workload, seed: int, tally: Tally,
               untraced_wall: float) -> dict:
    """Run the operation under span wrappers; returns per-layer metrics.
    A sampled workload's seed is also run exactly, as one more operation,
    which fails if the sampler's true error exceeds the plan's budget."""
    from perfbench.spans import Recorder
    from perfbench.workloads import PoolWorkload, true_error

    pool = isinstance(workload, PoolWorkload)
    # The pool's workers were forked before the wrappers went in, so the
    # traced operation is the in-process serial sweep; its overhead is
    # taken against an untraced serial sweep.
    operation = workload.reference if pool else workload.measure
    if pool:
        baseline = operation(seed)
        tally.check(baseline, "untraced serial sweep")
        untraced_wall = baseline.wall_s
    with Recorder(timed=True) as rec:
        outcome = operation(seed)
    tally.check(outcome, "traced")
    rec.flush(perfbench.OUT_DIR / f"spans-{workload.name}-{seed}.npz")
    metrics = layer_metrics(rec, outcome.wall_s)
    metrics["trace.overhead_pct"] = (
        100.0 * (outcome.wall_s - untraced_wall) / untraced_wall)
    metrics["sampling.true_err"] = 0.0
    plan = getattr(workload, "sampling", None)
    if plan is not None:
        exact = workload.measure(seed, exact=True, keep=True)
        err = true_error(exact.results[0], rec.results[0])
        metrics["sampling.true_err"] = err
        tally.attempted += 1
        if err > plan.error_budget:
            tally.failed += 1
            tally.reasons.append(
                f"exact run: true sampling error {err:.4f} exceeds the "
                f"{plan.error_budget} budget")
    return metrics


def run_all(args) -> int:
    """Run every workload in its own process, in turn, and print one
    summary whose metric names are prefixed with the workload's."""
    spec = json.loads((perfbench.ROOT / "BENCHMARK.json").read_text())
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for entry in spec["workloads"]:
        name = entry["name"]
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=perfbench.ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            summary["correct"] = False
        if not lines or not lines[-1].startswith("{"):
            continue
        result = json.loads(lines[-1])
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=0xA4)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    perfbench.isolate_environment()
    perfbench.add_source_path()
    from repro.experiments import parallel

    from perfbench.hostspeed import HostSpeed
    from perfbench.spans import Recorder
    from perfbench.workloads import WORKLOADS

    spec = json.loads((perfbench.ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = args.seed

    probes = [probe_setup(workload.name, seed) for _ in range(
        TRACE_SETUP_PROBES if args.trace else SETUP_PROBES)]
    parallel.dispatch_stats.reset()
    workload.prepare()
    host = None
    try:
        with Recorder(timed=False) as counter:
            reference = workload.reference(seed)
        line_accesses = counter.line_accesses
        del counter
        tally = Tally(reference)
        tally.check(reference, "reference")
        for i, digest in enumerate(reference.digests):
            print(f"digest {workload.name} seed={seed} op={i} {digest}")

        # Neither the reference nor the repeats keep their servers, so what
        # earlier calls held neither slows a timed call nor shows in the
        # memory peak.
        walls, pool_runs = [], []
        accuracy = reference.accuracy
        measured = 0.0
        peak_rss = None
        gc.collect()
        reset_peak_rss()
        host = HostSpeed()
        while measured < args.seconds or len(walls) < MIN_REPEATS:
            outcome = workload.measure(seed)
            if peak_rss is None:
                peak_rss = peak_rss_mb(workload)
            host.sample_for(CALIBRATION_SHARE * outcome.wall_s)
            tally.check(outcome, "repeat")
            walls.append(outcome.wall_s)
            if outcome.pool:
                pool_runs.append(outcome.pool)
            accuracy = min(accuracy, outcome.accuracy)
            measured += outcome.wall_s
            del outcome
        host.close()
        wall = statistics.median(walls)
        setup = median_of(probes, "setup_s")
        scale = host.factor()
        print(f"  raw wall per repeat: {' '.join('%.3f' % w for w in walls)} s;"
              f" host factor {scale:.4f} from {len(host.samples)} samples")

        if args.trace:
            metrics = traced_run(workload, seed, tally, wall)
            metrics["experiments.import_s"] = median_of(probes, "import_s")
            metrics["experiments.build_server_s"] = median_of(
                probes, "build_server_s")
            metrics["experiments.parallel.pool_start_s"] = median_of(
                probes, "pool_start_s")
            for key in ("dispatch_wait_s", "worker_busy_s", "efficiency"):
                metrics[f"experiments.parallel.{key}"] = (
                    median_of(pool_runs, key) if pool_runs else 0.0)
            stats = parallel.dispatch_stats
            metrics["experiments.parallel.tasks_retried"] = stats.retried_tasks
            metrics["experiments.parallel.timeouts"] = stats.timeouts
            metrics["bench.host_factor"] = scale
            metrics["bench.wall_raw_s"] = wall
            metrics["bench.setup_raw_s"] = setup
            wanted = spec["per_layer"]
        else:
            wall *= scale
            metrics = {
                "wall_s": wall,
                "setup_s": setup * scale,
                "sim_cycles_per_s": reference.cycles / wall,
                "line_accesses_per_s": line_accesses / wall,
                "peak_rss_mb": peak_rss,
                "sampled_accuracy": accuracy,
            }
            wanted = spec["end_to_end"]
    finally:
        if host is not None:
            host.close()
        workload.close()

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise SystemExit(
            f"metric set mismatch: missing {sorted(set(names) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(names))}"
        )
    units = {m["name"]: m["unit"] for m in wanted}
    for name in names:
        print(f"  {name:<42} {metrics[name]:>16.6g} {units[name]}")
    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in names
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
