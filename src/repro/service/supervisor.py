"""The worker-fleet supervisor: spawn, watch, kill, retry, resume.

A :class:`Supervisor` drains a :class:`~repro.service.store.JobStore` by
claiming one job at a time and executing it in a **separate worker
process** (never in-process: a worker that segfaults, leaks, or is
OOM-killed must not take the service down with it).  While a worker
runs, the supervisor watches two signals:

* **process liveness** — a worker that exits without recording a result
  died uncleanly (``kill -9``, OOM); its attempt is recorded as
  :data:`~repro.experiments.errors.CATEGORY_WORKER_DEATH`;
* **heartbeats** — a worker thread stamps the job row every
  ``heartbeat_interval`` seconds; a row stale past
  ``heartbeat_timeout`` marks the worker *hung* and the supervisor
  SIGKILLs and replaces it (:data:`~repro.experiments.errors.
  CATEGORY_STALLED`).

Either way the retry decision goes through the shared
:class:`~repro.service.retry.RetryPolicy`: fail-fast categories (bad
config, shape bugs, corrupt specs) go straight to ``DEAD``; transient
ones re-queue with exponential backoff — and, crucially, with a **resume
point**: every job gets a private checkpoint namespace
(``checkpoint_root/job-<key16>/``), the worker exports it as
``$REPRO_CHECKPOINT_DIR``, and any checkpoint-capable figure
(``run_setup`` figures, ``fig11``) snapshots into it as it runs.  A
retry therefore restarts from the newest snapshot, so a ``kill -9``
mid-run costs at most one checkpoint cadence — and because every
simulation is deterministic, the final figure is **bit-identical** to an
uninterrupted run (the result digest in the store proves it).

Observability: when ``SupervisorConfig.spool_root`` is set, every worker
gets a per-job trace spool directory (``spool_root/job-<key16>/``) and a
:class:`~repro.obsv.tracer.TraceContext` through the environment; the
worker enables tracing with a crash-safe
:class:`~repro.obsv.spool.TraceSink`, the heartbeat thread pushes live
epoch progress into the job row, and on any failed settle the
supervisor's **flight recorder** salvages the victim's last spooled
events into ``<result>.crash.json`` (:mod:`repro.obsv.flight`).  With
``spool_root`` unset none of this exists — workers run exactly as
before.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro import obsv
from repro.experiments.errors import (
    CATEGORY_STALLED,
    CATEGORY_WORKER_DEATH,
    classify,
)
from repro.service.retry import DEFAULT_POLICY, RetryPolicy
from repro.service.store import (
    DONE,
    FAILED,
    RUNNING,
    Job,
    JobStore,
)

ENV_STALL_HEARTBEAT = "REPRO_SERVICE_STALL_HEARTBEAT"
"""Chaos hook: a worker seeing this env var beats once and then goes
silent, so the supervisor's hung-worker path can be exercised on
demand (see :mod:`repro.faults.service_chaos`)."""


def _emit_job(name: str, data: Dict[str, Any]) -> None:
    tracer = obsv.TRACER
    if tracer is not None:
        tracer.emit(obsv.KIND_JOB, name, data)


# -- the worker process -----------------------------------------------------


def _push_progress(store: JobStore, job_id: int) -> None:
    """Mirror the tracer's latest ``progress`` payload into the job row
    (no-op while tracing is off or before the first epoch)."""
    tracer = obsv.TRACER
    if tracer is None or not tracer.progress:
        return
    payload = tracer.progress
    try:
        store.update_progress(
            job_id,
            int(payload.get("done", 0)),
            int(payload.get("total", 0)),
            float(payload.get("events_per_s", 0.0)),
            payload.get("eta_s"),
        )
    except Exception:  # pragma: no cover - progress must never kill work
        pass


def _heartbeat_loop(
    db_path: str, job_id: int, interval: float, stop: threading.Event
) -> None:
    """Worker-side liveness thread (its own store connection — sqlite3
    connections are not shared across threads).  Each beat also pushes
    the tracer's live progress snapshot onto the row, which is what
    ``tools/service.py watch`` renders."""
    stall = os.environ.get(ENV_STALL_HEARTBEAT, "") not in ("", "0")
    try:
        store = JobStore(db_path, recover=False)
    except Exception:  # pragma: no cover - heartbeat must never kill work
        return
    try:
        while not stop.is_set():
            store.heartbeat(job_id)
            _push_progress(store, job_id)
            if stall:
                return  # chaos: one beat, then silence
            stop.wait(interval)
    finally:
        store.close()


def run_worker(
    db_path: str,
    job_id: int,
    spec: Dict[str, Any],
    result_path: str,
    checkpoint_dir: str,
    environ: Dict[str, str],
    heartbeat_interval: float,
) -> None:
    """Worker process body: execute one figure job start to finish.

    Exports the job's private checkpoint namespace (so any
    checkpoint-capable runner snapshots/resumes automatically), runs the
    registry runner, pickles the result atomically, and records the
    outcome — success *with* a SHA-256 result digest, or a classified
    failure — in the store.  Never raises: the row is the protocol.
    """
    os.environ.update(environ)
    os.environ["REPRO_CHECKPOINT_DIR"] = checkpoint_dir
    from repro.experiments import runcache

    runcache.set_cache(None)  # re-read cache settings from the env above
    # Cross-process tracing: spool + context arrive via the environment
    # (no-op when the supervisor runs without a spool_root).
    obsv.enable_from_env()

    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(db_path, job_id, heartbeat_interval, stop),
        daemon=True,
    )
    beat.start()
    store = JobStore(db_path, recover=False)
    try:
        from repro.experiments.figures import REGISTRY

        figure = spec.get("figure")
        if figure not in REGISTRY:
            raise ValueError(f"unknown figure: {figure!r}")
        kwargs = dict(spec.get("kwargs") or {})
        result = REGISTRY[figure](**kwargs)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        path = Path(result_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
        _push_progress(store, job_id)  # land the final 100% row
        store.mark_done(job_id, str(path), digest)
    except Exception as exc:  # noqa: BLE001 - recorded, never raised
        try:
            store.mark_failed(
                job_id,
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
                classify(exc),
            )
        except Exception:  # pragma: no cover - row race on teardown
            pass
    finally:
        stop.set()
        tracer = obsv.TRACER
        if tracer is not None and tracer.sink is not None:
            tracer.sink.close()
        store.close()


# -- the supervisor ---------------------------------------------------------


@dataclass
class SupervisorConfig:
    """Knobs for one supervisor instance."""

    results_dir: str
    checkpoint_root: str
    retry: RetryPolicy = DEFAULT_POLICY
    heartbeat_interval: float = 0.2
    heartbeat_timeout: float = 60.0
    """Seconds without a heartbeat before a worker is declared hung and
    SIGKILLed.  Generous by default: a heartbeat is a single SQLite
    UPDATE, so only a truly wedged worker misses this."""
    poll_interval: float = 0.05
    worker_env: Dict[str, str] = field(default_factory=dict)
    """Extra environment for workers (cache settings, chaos switches)."""
    mp_context: str = "fork"
    """Multiprocessing start method; falls back to the platform default
    where unavailable."""
    spool_root: Optional[str] = None
    """Trace-spool root; when set, workers shard their trace into
    ``spool_root/job-<key16>/`` and every failed settle produces a
    flight-recorder crash report.  None (default) = tracing stays off."""
    crash_events: int = 128
    """How many salvaged tail events a crash report carries."""


@dataclass
class DrainReport:
    """What one :meth:`Supervisor.drain` pass accomplished."""

    executed: int = 0
    done: int = 0
    dead: int = 0
    retries: int = 0
    resumes: int = 0
    kills: int = 0
    wall_seconds: float = 0.0

    def summary(self) -> str:
        return (
            f"{self.executed} attempts -> {self.done} done, "
            f"{self.dead} dead; {self.retries} retries "
            f"({self.resumes} from checkpoint), {self.kills} kills, "
            f"{self.wall_seconds:.1f}s"
        )


class Supervisor:
    """Claims jobs from the store and runs each in a supervised worker."""

    def __init__(
        self,
        store: JobStore,
        config: SupervisorConfig,
        chaos=None,
    ) -> None:
        self.store = store
        self.config = config
        self.chaos = chaos
        self.report = DrainReport()
        try:
            self._mp = multiprocessing.get_context(config.mp_context)
        except ValueError:  # pragma: no cover - non-fork platform
            self._mp = multiprocessing.get_context()

    # -- paths ---------------------------------------------------------------

    def checkpoint_dir(self, job: Job) -> Path:
        """The job's private checkpoint namespace (keyed on the job's
        content key, so a resubmitted identical job finds the snapshots
        an earlier DEAD incarnation left behind)."""
        return Path(self.config.checkpoint_root) / f"job-{job.key[:16]}"

    def result_path(self, job: Job) -> Path:
        return Path(self.config.results_dir) / f"{job.key}.pkl"

    def spool_dir(self, job: Job) -> Optional[Path]:
        """The job's trace-spool directory (None when spooling is off).
        Keyed like the checkpoint namespace so retries of one job land
        their shards together."""
        if self.config.spool_root is None:
            return None
        return Path(self.config.spool_root) / f"job-{job.key[:16]}"

    # -- one job -------------------------------------------------------------

    def _spawn(self, job: Job) -> multiprocessing.Process:
        environ = dict(self.config.worker_env)
        if self.chaos is not None:
            environ.update(self.chaos.worker_env())
        spool = self.spool_dir(job)
        if spool is not None:
            environ[obsv.ENV_TRACE_SPOOL] = str(spool)
            environ[obsv.ENV_TRACE_CONTEXT] = obsv.TraceContext(
                run_id=job.key[:16], job_id=job.id, attempt=job.attempts
            ).to_env()
        process = self._mp.Process(
            target=run_worker,
            args=(
                str(self.store.path),
                job.id,
                job.spec,
                str(self.result_path(job)),
                str(self.checkpoint_dir(job)),
                environ,
                self.config.heartbeat_interval,
            ),
            name=f"repro-job-{job.id}",
        )
        process.start()
        return process

    def run_job(self, job: Job) -> Job:
        """Execute one claimed job to a settled row (DONE, DEAD, or
        re-QUEUED for a later attempt).  Returns the final row."""
        self.report.executed += 1
        process = self._spawn(job)
        worker_pid = process.pid or 0
        if process.pid:
            self.store.set_owner(job.id, process.pid)
        kill_category: Optional[str] = None
        last_beat = time.time()
        while process.is_alive():
            if self.chaos is not None and self.chaos.maybe_kill(self, job, process):
                kill_category = CATEGORY_WORKER_DEATH
                self.report.kills += 1
                _emit_job("kill", {"job": job.id, "reason": "chaos"})
                break
            row = self.store.job(job.id)
            if row.state != RUNNING:
                break  # worker recorded its outcome; let it finish dying
            if row.heartbeat is not None:
                last_beat = max(last_beat, row.heartbeat)
            if time.time() - last_beat > self.config.heartbeat_timeout:
                process.kill()
                kill_category = CATEGORY_STALLED
                self.report.kills += 1
                _emit_job("kill", {"job": job.id, "reason": "stalled"})
                break
            time.sleep(self.config.poll_interval)
        process.join()
        process.close()
        return self._settle(job, kill_category, worker_pid)

    def _settle(
        self, job: Job, kill_category: Optional[str], worker_pid: int = 0
    ) -> Job:
        """Turn whatever the worker left behind into a final transition."""
        row = self.store.job(job.id)
        if row.state == DONE:
            self.report.done += 1
            return row
        crash_reason = "retryable_failure"
        if row.state == RUNNING:
            # Unclean death: the worker never got to record its outcome.
            category = kill_category or CATEGORY_WORKER_DEATH
            crash_reason = (
                "stale_heartbeat"
                if kill_category == CATEGORY_STALLED
                else "worker_death"
            )
            self.store.count_crash()
            row = self.store.mark_failed(
                job.id, f"worker died without recording a result", category
            )
        if row.state != FAILED:  # pragma: no cover - concurrent settle
            return row
        self._flight_record(row, crash_reason, worker_pid)
        return self._decide_retry(row)

    def _flight_record(
        self, row: Job, reason: str, worker_pid: int
    ) -> Optional[Path]:
        """Salvage the dead worker's spooled tail into a crash report.

        Best-effort: the report is diagnostics, so nothing here may break
        the settle path."""
        spool = self.spool_dir(row)
        if spool is None or not worker_pid:
            return None
        from dataclasses import asdict

        from repro.obsv.flight import write_crash_report

        try:
            path = write_crash_report(
                self.result_path(row),
                job=asdict(row),
                reason=reason,
                category=row.category or "runtime",
                spool_root=spool,
                pid=worker_pid,
                error=row.error or "",
                limit=self.config.crash_events,
            )
        except Exception:  # pragma: no cover - diagnostics only
            return None
        _emit_job(
            "crash_report",
            {"job": row.id, "reason": reason, "path": str(path)},
        )
        return path

    def _decide_retry(self, row: Job) -> Job:
        """FAILED -> QUEUED (with backoff + resume point) or DEAD."""
        policy = self.config.retry
        category = row.category or "runtime"
        attempts = row.attempts
        if policy.gives_up(attempts, category) or attempts >= row.max_attempts:
            self.report.dead += 1
            return self.store.mark_dead(
                row.id,
                row.error or f"gave up after {attempts} attempts",
                category,
            )
        from repro.sim.checkpoint import newest_epoch

        resume_epoch = newest_epoch(self.checkpoint_dir(row))
        delay = policy.delay(attempts, token=row.key)
        self.report.retries += 1
        if resume_epoch is not None:
            self.report.resumes += 1
        return self.store.requeue(row.id, delay=delay, resume_epoch=resume_epoch)

    # -- the loop ------------------------------------------------------------

    def settle_failed(self) -> None:
        """Apply the retry policy to FAILED rows left by a supervisor
        that crashed between recording a failure and deciding on it."""
        for row in self.store.jobs(FAILED):
            self._decide_retry(row)

    def drain(
        self,
        max_jobs: Optional[int] = None,
        wall_limit: Optional[float] = None,
    ) -> DrainReport:
        """Run until the queue settles (every job DONE or DEAD), an
        attempt budget is spent, or a wall-clock limit passes."""
        started = time.time()
        self.settle_failed()
        executed_before = self.report.executed
        while True:
            if wall_limit is not None and time.time() - started > wall_limit:
                break
            if (
                max_jobs is not None
                and self.report.executed - executed_before >= max_jobs
            ):
                break
            job = self.store.claim()
            if job is not None:
                self.run_job(job)
                continue
            eta = self.store.next_eta()
            if eta is None:
                break  # nothing queued, nothing failed: settled
            time.sleep(
                min(max(0.0, eta - time.time()), self.config.poll_interval)
                or self.config.poll_interval
            )
        self.report.wall_seconds = time.time() - started
        return self.report
