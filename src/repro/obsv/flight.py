"""The flight recorder: post-mortem crash reports from spooled telemetry.

When the supervisor settles a job that died — unclean worker death,
stale-heartbeat SIGKILL, or a retryable failure — the worker's in-memory
tracer is gone, but its :class:`~repro.obsv.spool.TraceSink` shards are
still on disk.  :func:`write_crash_report` salvages the victim's last
spooled events and freezes them, together with the durable job row and
the failure classification, into one JSON artifact next to the job's
result path (``<result>.crash.json``).  That file is the "black box":
``tools/obsv.py`` can replay the final seconds of a worker that no
longer exists, and ``tests/test_service.py`` asserts the salvaged tail
matches the shard the worker actually wrote.

Reports are plain JSON (not JSONL) because they are single, final
documents; the embedded events use the same dict shape as the JSONL
export so :func:`read_crash_report` reloads them as real
:class:`TraceEvent` objects.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obsv.spool import read_pid_tail
from repro.obsv.tracer import TraceEvent

PathLike = Union[str, Path]

CRASH_SUFFIX = ".crash.json"
DEFAULT_SALVAGE_EVENTS = 128
FORMAT = "repro-crash-report-v1"


def crash_report_path(result_path: PathLike) -> Path:
    """Where a job's crash report lives: beside its result artifact."""
    result_path = Path(result_path)
    return result_path.with_name(result_path.name + CRASH_SUFFIX)


def salvage_events(
    spool_root: PathLike, pid: int, limit: int = DEFAULT_SALVAGE_EVENTS
) -> List[TraceEvent]:
    """The victim's freshest spooled events (``seq`` order, last ``limit``).

    Returns ``[]`` when the spool directory is missing or the worker
    never flushed a shard — a crash report with no events is still worth
    writing (it carries the job row and failure category)."""
    root = Path(spool_root)
    if not root.is_dir():
        return []
    return read_pid_tail(root, pid, limit=limit)


def write_crash_report(
    result_path: PathLike,
    job: Dict[str, Any],
    reason: str,
    category: str,
    spool_root: Optional[PathLike],
    pid: int,
    error: str = "",
    limit: int = DEFAULT_SALVAGE_EVENTS,
) -> Path:
    """Emit the crash artifact; returns its path.

    ``job`` is the durable store row as a dict, ``reason`` is the settle
    path that fired (``worker_death`` / ``stale_heartbeat`` /
    ``retryable_failure``), ``category`` the failure taxonomy label, and
    ``error`` the worker's recorded exception text (empty for signals).
    The write is atomic (tmp + rename) so a supervisor crash mid-report
    never leaves a torn artifact."""
    events = (
        salvage_events(spool_root, pid, limit=limit)
        if spool_root is not None
        else []
    )
    report = {
        "format": FORMAT,
        "reason": reason,
        "category": category,
        "error": error,
        "pid": pid,
        "job": job,
        "salvaged_events": len(events),
        "events": [asdict(event) for event in events],
    }
    path = crash_report_path(result_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def read_crash_report(
    path: PathLike,
) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    """Reload a crash report: ``(header, events)`` where ``header`` is the
    report minus its event list and ``events`` are real TraceEvents."""
    with open(path) as handle:
        report = json.load(handle)
    if report.get("format") != FORMAT:
        raise ValueError(f"{path}: not a crash report (format field)")
    raw_events = report.pop("events", [])
    events = [TraceEvent(**obj) for obj in raw_events]
    return report, events
