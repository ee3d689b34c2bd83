"""Per-phase engine attribution: where did the wall time and cycles go.

:meth:`repro.experiments.harness.Server.run` records one window (wall
seconds, engine events, simulated cycles) per monitoring epoch into the
process-wide :data:`repro.obsv.PROFILER`, labelled with the controller's
FSM phase as the epoch began, so a profiled run answers "how much
simulation happened while A4 sat in ``expanding`` vs ``stable``".  The
figures CLI exports the attribution as ``repro_profile_*`` gauges with
``--metrics-out``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class PhaseStats:
    """Accumulated attribution for one label."""

    wall_s: float = 0.0
    events: int = 0
    cycles: float = 0.0
    windows: int = 0
    """Recorded windows (one per simulated epoch)."""


class PhaseProfiler:
    """Accumulates (wall seconds, engine events, simulated cycles) per
    label; the harness records one entry per epoch."""

    def __init__(self) -> None:
        self.phases: Dict[str, PhaseStats] = {}

    def record(
        self, label: str, wall_s: float, events: int, cycles: float
    ) -> None:
        stats = self.phases.get(label)
        if stats is None:
            stats = self.phases[label] = PhaseStats()
        stats.wall_s += wall_s
        stats.events += events
        stats.cycles += cycles
        stats.windows += 1

    def into_registry(self, registry) -> None:
        """Export attribution as labeled gauges (``phase=<label>``)."""
        for label, stats in self.phases.items():
            registry.gauge(
                "repro_profile_wall_seconds",
                help="engine wall time attributed to this phase",
                phase=label,
            ).set(stats.wall_s)
            registry.gauge(
                "repro_profile_events",
                help="engine events attributed to this phase",
                phase=label,
            ).set(stats.events)
