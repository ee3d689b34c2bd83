"""Zero-cost-when-off observability: tracing, metrics, audit, profiling.

The layer is three cooperating pieces plus a profiler, all process-global
and **off by default**:

* :data:`TRACER` — a bounded ring buffer of typed :class:`TraceEvent`\\ s
  (epoch boundaries, CLOS mask writes, DCA toggles, controller phase
  transitions, fault injections, cache-zone resizes), exported to JSONL
  and Chrome ``chrome://tracing`` trace-event JSON
  (:mod:`repro.obsv.export`).
* :data:`AUDIT` — the controller decision audit trail: every A4
  reallocation / degrade / detection / restoration records its inputs
  (the sanitized telemetry values and the thresholds crossed) and the
  chosen action.  Decisions mirror into the tracer as ``decision``
  events, so one JSONL file carries the whole story and
  ``tools/obsv.py explain-epoch`` can replay it post-run.
* the **metrics registry** (:mod:`repro.obsv.metrics`) — process-wide
  counters/gauges/histograms with labels, exported as Prometheus text
  and a JSON snapshot.  Unlike the tracer it always exists (it is
  passive until someone observes into it) and also hosts the shared
  stats-dict merge helpers used by the run cache and the chaos sweep.
* :data:`PROFILER` — per-phase wall/cycle/event attribution recorded by
  :meth:`repro.experiments.harness.Server.run` once per epoch (see
  :mod:`repro.obsv.profile`).

Every emit site in the simulator, controller, and fault layer is guarded
by a single ``obsv.TRACER is not None`` (or ``obsv.AUDIT``/``profiler``)
check: with the layer disabled no event objects are built, no dicts are
allocated, and runs are bit-identical to a tree without the layer.
Enable with :func:`enable` (or ``--trace`` / ``--metrics-out`` on the
figures CLI), tear down with :func:`disable`.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from repro.obsv.audit import AuditTrail, Decision
from repro.obsv.metrics import (
    MetricsRegistry,
    get_registry,
    merge_counts,
    set_registry,
)
from repro.obsv.profile import PhaseProfiler
from repro.obsv.tracer import (
    ENV_TRACE_CONTEXT,
    ENV_TRACE_SPOOL,
    KIND_CHECKPOINT,
    KIND_CONTROL,
    KIND_DCA,
    KIND_DECISION,
    KIND_EPOCH,
    KIND_FAULT,
    KIND_JOB,
    KIND_MASK,
    KIND_PHASE,
    KIND_PLATFORM,
    KIND_PROGRESS,
    KIND_SAMPLE,
    KIND_SPAN,
    KIND_TENANT,
    KIND_ZONE,
    TraceContext,
    TraceEvent,
    Tracer,
)

TRACER: Optional[Tracer] = None
"""The process-wide event tracer; ``None`` while observability is off."""

AUDIT: Optional[AuditTrail] = None
"""The process-wide decision audit trail; ``None`` while off."""

PROFILER: Optional[PhaseProfiler] = None
"""The process-wide per-phase profiler; ``None`` while off."""


def enable(
    capacity: int = Tracer.DEFAULT_CAPACITY,
    audit_capacity: int = AuditTrail.DEFAULT_CAPACITY,
    profile: bool = True,
    context: Optional[TraceContext] = None,
    sink: Optional[Any] = None,
) -> Tracer:
    """Turn the observability layer on (idempotent: replaces any previous
    tracer/trail/profiler with fresh, empty ones) and return the tracer.

    ``context`` stamps every event with run/job identity;``sink`` (a
    :class:`repro.obsv.spool.TraceSink`) spools segments to disk so the
    trace survives the process."""
    global TRACER, AUDIT, PROFILER
    _register_at_fork()
    TRACER = Tracer(capacity, context=context, sink=sink)
    AUDIT = AuditTrail(audit_capacity, tracer=TRACER)
    PROFILER = PhaseProfiler() if profile else None
    return TRACER


def enable_from_env(environ=None) -> Optional[Tracer]:
    """Enable tracing from worker-side environment variables.

    :data:`ENV_TRACE_SPOOL` names the spool directory this process should
    shard into; :data:`ENV_TRACE_CONTEXT` carries the encoded
    :class:`TraceContext`.  Returns None (layer untouched) when no spool
    is requested — the zero-cost-off path for un-traced jobs.  Never
    raises: an unusable spool directory falls back to in-memory-only
    tracing so observability can't take a worker down."""
    env = os.environ if environ is None else environ
    spool_root = env.get(ENV_TRACE_SPOOL, "")
    if not spool_root:
        return None
    from repro.obsv.spool import TraceSink

    context = TraceContext.from_env(env.get(ENV_TRACE_CONTEXT, ""))
    try:
        sink: Optional[Any] = TraceSink(spool_root)
    except (OSError, ValueError):
        sink = None
    return enable(context=context, sink=sink)


def disable() -> None:
    """Turn the layer off; emit sites go back to their no-op fast path."""
    global TRACER, AUDIT, PROFILER
    TRACER = None
    AUDIT = None
    PROFILER = None


def enabled() -> bool:
    return TRACER is not None


_at_fork_registered = False


def _fork_child() -> None:
    if TRACER is not None:
        TRACER.after_fork()


def _register_at_fork() -> None:
    """Make forked children re-stamp their pid (once per process)."""
    global _at_fork_registered
    if _at_fork_registered or not hasattr(os, "register_at_fork"):
        return
    os.register_at_fork(after_in_child=_fork_child)
    _at_fork_registered = True


__all__ = [
    "AUDIT",
    "AuditTrail",
    "Decision",
    "ENV_TRACE_CONTEXT",
    "ENV_TRACE_SPOOL",
    "KIND_CHECKPOINT",
    "KIND_CONTROL",
    "KIND_DCA",
    "KIND_DECISION",
    "KIND_EPOCH",
    "KIND_FAULT",
    "KIND_JOB",
    "KIND_MASK",
    "KIND_PHASE",
    "KIND_PLATFORM",
    "KIND_PROGRESS",
    "KIND_SAMPLE",
    "KIND_SPAN",
    "KIND_TENANT",
    "KIND_ZONE",
    "MetricsRegistry",
    "PROFILER",
    "PhaseProfiler",
    "TRACER",
    "TraceContext",
    "TraceEvent",
    "Tracer",
    "disable",
    "enable",
    "enable_from_env",
    "enabled",
    "get_registry",
    "merge_counts",
    "set_registry",
]
