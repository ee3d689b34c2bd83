"""Fault injection for the job service: kill workers, stall heartbeats,
corrupt store rows.

The supervisor takes an optional ``chaos`` collaborator with two hooks:

* ``worker_env() -> dict`` — extra environment merged into every spawned
  worker (how :class:`StallHeartbeat` plants its flag);
* ``maybe_kill(supervisor, job, process) -> bool`` — called each poll
  tick while a worker runs; returning True tells the supervisor the
  worker was just killed by chaos (it stops polling and settles the
  attempt as a worker death).

These are the service-level counterparts of the telemetry faults in
:mod:`repro.faults.plan`: they attack the *infrastructure* (process
lifetime, liveness reporting, on-disk rows) rather than the simulated
machine, and the properties they check are the service's — a killed
worker resumes from its newest checkpoint and still produces the
bit-identical figure; a silent worker is detected and replaced; a
corrupted row is quarantined without wedging the queue.  Used by
``tests/test_service.py``.
"""

from __future__ import annotations

import sqlite3
from typing import Dict

from repro.service.supervisor import ENV_STALL_HEARTBEAT


class KillWorker:
    """SIGKILL up to ``budget`` workers, optionally only once the job has
    something to resume from.

    With ``after_checkpoint=True`` (the default) the kill waits for the
    job's private checkpoint namespace to hold at least one snapshot, so
    the retry exercises the resume path rather than a from-scratch
    re-run.  ``kills`` records how many budget units were spent."""

    def __init__(self, budget: int = 1, after_checkpoint: bool = True):
        self.budget = budget
        self.after_checkpoint = after_checkpoint
        self.kills = 0

    def worker_env(self) -> Dict[str, str]:
        return {}

    def maybe_kill(self, supervisor, job, process) -> bool:
        if self.kills >= self.budget:
            return False
        if self.after_checkpoint:
            from repro.sim.checkpoint import newest_epoch

            if newest_epoch(supervisor.checkpoint_dir(job)) is None:
                return False
        self.kills += 1
        process.kill()
        return True


class StallHeartbeat:
    """Make every worker beat once and then go silent.

    The worker process keeps running (and keeps simulating) — only its
    liveness reporting dies, which is exactly the failure mode the
    supervisor's heartbeat watchdog exists for.  The supervisor must
    SIGKILL the silent worker after ``heartbeat_timeout`` and classify
    the attempt as ``stalled``."""

    def worker_env(self) -> Dict[str, str]:
        return {ENV_STALL_HEARTBEAT: "1"}

    def maybe_kill(self, supervisor, job, process) -> bool:
        return False


def corrupt_job_row(db_path, job_id: int) -> None:
    """Overwrite one job's stored spec with bytes that do not parse as
    JSON — the on-disk corruption :meth:`JobStore.claim` must quarantine
    (row goes DEAD with category ``corrupt``) instead of crashing on or,
    worse, executing."""
    db = sqlite3.connect(str(db_path))
    try:
        db.execute(
            "UPDATE jobs SET spec = ? WHERE id = ?",
            ("\x00not json{{", job_id),
        )
        db.commit()
    finally:
        db.close()
