"""Shared retry policy: bounded attempts, exponential backoff, jitter.

One policy object answers the three questions every retrying caller in
this repo has to ask — *should* this failure be retried (classification
through the :mod:`repro.experiments.errors` taxonomy), *how many* times
(bounded attempts), and *when* (exponential backoff with deterministic
jitter) — so the job supervisor, the pool-dispatch retry in
:mod:`repro.experiments.parallel`, and any future caller agree on the
failure story instead of each hand-rolling a slightly different one.

Jitter is **deterministic**: it is derived from a hash of the caller's
token (typically a job key) and the attempt number, never from a live
RNG or the clock.  Two runs of the same failing job back off on the same
schedule, which keeps service tests reproducible, while different jobs
still de-synchronize (the point of jitter).

Kept import-light on purpose — only the error taxonomy — because
``repro.experiments.parallel`` imports this module into every pool
worker.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import FrozenSet

from repro.experiments.errors import (
    CATEGORY_CORRUPT,
    FAIL_FAST_CATEGORIES,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with capped exponential backoff + jitter.

    ``fail_fast`` categories (config mistakes, shape bugs, corrupted
    specs) never retry: re-running a wrong configuration produces the
    same wrong answer, only later.  Everything else — transient pool
    deaths, killed workers, stalled heartbeats, resource pressure — is
    presumed transient and retries up to ``max_attempts`` total
    executions.
    """

    max_attempts: int = 3
    """Total executions allowed (first attempt included), not re-tries."""
    base_delay: float = 0.5
    """Backoff before the second attempt, in seconds."""
    max_delay: float = 30.0
    """Backoff cap; the exponential curve clips here."""
    jitter: float = 0.25
    """Max relative delay perturbation (0.25 = +/-25%), deterministically
    derived from (token, attempt)."""
    fail_fast: FrozenSet[str] = field(default=FAIL_FAST_CATEGORIES)
    """Failure categories that go straight to DEAD, no retry."""

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")

    def retryable(self, category: str) -> bool:
        """Whether a failure of this category is worth another attempt."""
        return category not in self.fail_fast

    def gives_up(self, attempts: int, category: str) -> bool:
        """True when a job that has run ``attempts`` times and just failed
        with ``category`` should be declared dead."""
        if not self.retryable(category):
            return True
        return attempts >= self.max_attempts

    def delay(self, attempts: int, token: str = "") -> float:
        """Seconds to wait before the attempt after ``attempts`` failures.

        ``base_delay * 2^(attempts-1)`` capped at ``max_delay``, then
        perturbed by up to ``+/- jitter`` — the perturbation is a pure
        function of ``(token, attempts)`` so schedules replay exactly.
        """
        if attempts < 1:
            return 0.0
        raw = min(self.max_delay, self.base_delay * (2 ** (attempts - 1)))
        if not self.jitter or raw == 0:
            return raw
        digest = hashlib.sha256(f"{token}\0{attempts}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)  # [0, 1)
        return raw * (1.0 + self.jitter * (2.0 * unit - 1.0))


DEFAULT_POLICY = RetryPolicy()
"""The service default: 3 total attempts, 0.5 s -> 1 s backoff."""

FAST_POLICY = RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.5)
"""Tight-loop variant for tests (same shape, short waits)."""

__all__ = [
    "CATEGORY_CORRUPT",
    "DEFAULT_POLICY",
    "FAST_POLICY",
    "RetryPolicy",
]
