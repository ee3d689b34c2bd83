"""Crash-safe simulation job service.

Three cooperating modules:

* :mod:`repro.service.store` — the durable SQLite run store (WAL mode,
  versioned schema, enforced job state machine, orphan recovery,
  admission control, dedup by runcache key);
* :mod:`repro.service.supervisor` — the worker fleet: one process per
  job, heartbeat watchdog, kill-and-replace for hung workers,
  checkpoint-resumable retries;
* :mod:`repro.service.retry` — the shared bounded-backoff retry policy
  (also used by :mod:`repro.experiments.parallel` for dispatch retries).

This ``__init__`` stays import-light on purpose: ``parallel.py`` imports
:mod:`repro.service.retry`, which must not drag the store and the
supervisor into every pool worker.  Names resolve lazily via module
``__getattr__``.
"""

from __future__ import annotations

_EXPORTS = {
    "AdmissionError": "repro.service.store",
    "Job": "repro.service.store",
    "JobStore": "repro.service.store",
    "ServiceError": "repro.service.store",
    "SubmitOutcome": "repro.service.store",
    "TransitionError": "repro.service.store",
    "DEFAULT_POLICY": "repro.service.retry",
    "FAST_POLICY": "repro.service.retry",
    "RetryPolicy": "repro.service.retry",
    "DrainReport": "repro.service.supervisor",
    "Supervisor": "repro.service.supervisor",
    "SupervisorConfig": "repro.service.supervisor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
