"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5.0, lambda s: order.append("b"))
    sim.schedule(1.0, lambda s: order.append("a"))
    sim.schedule(9.0, lambda s: order.append("c"))
    sim.run_until(9.0)
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_events_run_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.schedule(3.0, lambda s, t=tag: order.append(t))
    sim.run_until(3.0)
    assert order == ["a", "b", "c"]


def test_cannot_schedule_into_the_past():
    sim = Simulator()
    sim.schedule(10.0, lambda s: None)
    sim.run_until(10.0)
    with pytest.raises(ValueError):
        sim.schedule(5.0, lambda s: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda s: fired.append(1))
    event.cancel()
    sim.run_until(10.0)
    assert fired == []
    assert list(sim.pending()) == []


def test_run_until_stops_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda s: fired.append(10))
    sim.schedule(20.0, lambda s: fired.append(20))
    sim.run_until(15.0)
    assert fired == [10]
    assert sim.now == 15.0
    sim.run_until(25.0)
    assert fired == [10, 20]


def test_process_yields_delays():
    sim = Simulator()
    ticks = []

    def body():
        for _ in range(3):
            ticks.append(sim.now)
            yield 10.0

    sim.spawn("p", body())
    sim.run_until(100.0)
    assert ticks == [0.0, 10.0, 20.0]


def test_process_negative_delay_raises():
    sim = Simulator()

    def body():
        yield -1.0

    sim.spawn("bad", body())
    with pytest.raises(ValueError):
        sim.run_until(10.0)


def test_process_finish_callback():
    sim = Simulator()
    done = []

    def body():
        yield 1.0

    process = sim.spawn("p", body())
    process.on_finish(lambda s: done.append(s.now))
    sim.run_until(10.0)
    assert process.finished
    assert done == [1.0]


def test_call_in_is_relative():
    """An action schedules relative to the clock it fires at (what the
    retired ``call_in`` helper wrapped)."""
    sim = Simulator()
    seen = []
    sim.schedule(
        7.0, lambda s: s.schedule(s.now + 3.0, lambda s2: seen.append(s2.now))
    )
    sim.run_until(20.0)
    assert seen == [10.0]
