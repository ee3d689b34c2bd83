"""Typed exceptions for the experiment layer.

Every error raised by the harness, sweep, and figure setup paths derives
from :class:`ExperimentError` so callers — in particular the parallel
runner's per-task error capture — can classify failures without string
matching.  Each concrete class *also* inherits the builtin it replaced
(``ValueError`` / ``RuntimeError``), so pre-existing ``except ValueError``
call sites keep working.

Classification of an arbitrary exception (including one re-hydrated from a
worker traceback) goes through :func:`classify`.
"""

from __future__ import annotations


CATEGORY_POOL = "pool"
"""A worker pool broke underneath a dispatch (dead worker, OOM kill)."""

CATEGORY_WORKER_DEATH = "worker-death"
"""A job-service worker process died without recording a failure
(SIGKILL, OOM, segfault) — synthesized by the supervisor, not raised."""

CATEGORY_STALLED = "stalled"
"""A job-service worker stopped heartbeating and was killed by the
supervisor — synthesized by the supervisor, not raised."""

CATEGORY_CORRUPT = "corrupt"
"""A persisted job row failed validation (unreadable spec JSON); the
job cannot be executed, let alone retried."""

FAIL_FAST_CATEGORIES = frozenset({"config", "figure", CATEGORY_CORRUPT})
"""Categories the retry layer never retries: re-running an invalid
configuration, a shape bug, or an unreadable spec yields the same
failure, only later.  Everything else is presumed transient."""

RETRYABLE_CATEGORIES = frozenset(
    {
        "experiment",
        "resources",
        "allocation",
        "runtime",
        CATEGORY_POOL,
        CATEGORY_WORKER_DEATH,
        CATEGORY_STALLED,
    }
)
"""The complement of :data:`FAIL_FAST_CATEGORIES` over the known
taxonomy (documentation + test lock; the retry policy only checks
membership in ``fail_fast``)."""


class ExperimentError(Exception):
    """Base class for all experiment-layer failures."""

    category = "experiment"


class WorkloadConfigError(ExperimentError, ValueError):
    """A workload/figure configuration is invalid — e.g. asking to disable
    DCA for a workload with no I/O device, or an unknown workload name."""

    category = "config"


class InsufficientEpochsError(ExperimentError, ValueError):
    """``epochs`` does not exceed ``warmup``; no measured samples remain."""

    category = "config"


class ConfigError(ExperimentError, ValueError):
    """A scenario configuration violates a platform/tenant budget — e.g.
    workload ``cores=`` sums exceed the platform's core count, or a tenant's
    workloads oversubscribe its declared core budget.  Raised at build time
    so the failure names the offender instead of surfacing mid-setup as a
    generic allocation error."""

    category = "config"


class CoreAllocationError(ExperimentError, RuntimeError):
    """The scenario requests more cores than the simulated server has."""

    category = "resources"


class SweepConfigError(ExperimentError, ValueError):
    """A multi-seed sweep was configured with no seeds."""

    category = "config"


class FigureShapeError(ExperimentError, RuntimeError):
    """A figure runner returned differently-shaped results across seeds;
    runners must be deterministic in shape for seed averaging."""

    category = "figure"


def classify(exc: BaseException) -> str:
    """Return the failure category for ``exc``.

    Typed experiment errors carry their own ``category``; anything else is
    bucketed by builtin family so pool-side tracebacks remain useful.
    RDT/PCIe apply errors get their own ``allocation`` bucket (checked
    before the ``ValueError`` family — :class:`ClosConfigError` *is* a
    ``ValueError``) so a bad mask computed from a sweep config surfaces as
    exactly that, not as a generic config failure.
    """
    from concurrent.futures.process import BrokenProcessPool

    from repro.rdt.cat import ClosConfigError
    from repro.uncore.pcie import PortConfigError

    if isinstance(exc, ExperimentError):
        return exc.category
    if isinstance(exc, BrokenProcessPool):
        return CATEGORY_POOL
    if isinstance(exc, (ClosConfigError, PortConfigError)):
        return "allocation"
    if isinstance(exc, (ValueError, TypeError)):
        return "config"
    if isinstance(exc, MemoryError):
        return "resources"
    return "runtime"
