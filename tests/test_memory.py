"""Tests for the memory controller: accounting and contention latency."""

import random

import pytest

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.platform import SKYLAKE_SP
from repro.rdt.cat import CacheAllocation
from repro.rdt.mba import VALID_DELAYS, MemoryBandwidthAllocation
from repro.telemetry.counters import CounterBank
from repro.uncore.memory import MemoryController


def test_traffic_attribution():
    bank = CounterBank()
    mem = MemoryController(bank)
    mem.read(0.0, 3, "a")
    mem.write(0.0, 2, "b")
    assert bank.stream("a").mem_reads == 3
    assert bank.stream("b").mem_writes == 2
    assert mem.total_reads == 3 and mem.total_writes == 2


def test_idle_latency_is_base():
    mem = MemoryController(CounterBank(), base_latency=200.0)
    assert mem.access_latency() == 200.0


def test_latency_grows_under_load():
    bank = CounterBank()
    mem = MemoryController(
        bank, bandwidth_lines_per_cycle=1.0, base_latency=200.0, window_cycles=100.0
    )
    # Saturate several windows.
    for t in range(0, 2000, 10):
        mem.read(float(t), 10, "hog")
    assert mem.utilization > 0.5
    assert mem.access_latency() > 200.0


def test_utilization_decays_when_idle():
    bank = CounterBank()
    mem = MemoryController(
        bank, bandwidth_lines_per_cycle=1.0, base_latency=200.0, window_cycles=100.0
    )
    for t in range(0, 1000, 10):
        mem.read(float(t), 10, "hog")
    high = mem.utilization
    # Long quiet period, then one transfer to roll the window.
    mem.read(10_000.0, 1, "hog")
    mem.read(20_000.0, 1, "hog")
    assert mem.utilization < high


def test_bandwidth_must_be_positive():
    with pytest.raises(ValueError):
        MemoryController(CounterBank(), bandwidth_lines_per_cycle=0.0)


def test_latency_bounded_even_when_saturated():
    bank = CounterBank()
    mem = MemoryController(
        bank, bandwidth_lines_per_cycle=0.1, base_latency=200.0, window_cycles=50.0
    )
    for t in range(0, 5000, 5):
        mem.write(float(t), 50, "hog")
    # rho is clamped, so latency stays finite and sane.
    assert mem.access_latency() < 200.0 * 10


def test_cached_latency_equals_access_latency_bit_for_bit():
    """``memory.latency`` (read by the CPU miss path) must be exactly
    ``access_latency()`` after any read/write/time-shift sequence."""
    rng = random.Random(0xA4)
    for _ in range(25):
        mem = MemoryController(
            CounterBank(),
            bandwidth_lines_per_cycle=rng.choice([0.05, 0.3, 1.0, 2.5]),
            base_latency=rng.uniform(80.0, 320.0),
            window_cycles=rng.choice([50.0, 100.0, 2_000.0]),
        )
        assert mem.latency.hex() == mem.access_latency().hex()
        now = 0.0
        for _ in range(300):
            now += rng.choice([0.0, rng.uniform(0.0, 40.0), rng.uniform(0.0, 4_000.0)])
            roll = rng.random()
            if roll < 0.45:
                mem.read(now, rng.randrange(1, 80), "r")
            elif roll < 0.9:
                mem.write(now, rng.randrange(1, 80), "w")
            else:
                delta = rng.uniform(0.0, 10_000.0)
                mem.time_shift(delta)
                now += delta
            assert mem.latency.hex() == mem.access_latency().hex()


def test_inlined_mba_factor_matches_latency_factor():
    """The full-miss path inlines ``mba.latency_factor(cat.clos_of(core))``;
    its latency must equal the uninlined product for every CLOS and every
    delay step, including a core with no explicit CLOS association."""
    bank = CounterBank()
    cat = CacheAllocation()
    memory = MemoryController.for_platform(bank, SKYLAKE_SP)
    mba = MemoryBandwidthAllocation()
    hierarchy = CacheHierarchy(
        HierarchyConfig(cores=3, platform=SKYLAKE_SP), cat, memory, bank, mba=mba
    )
    addr = 1 << 20
    now = 0.0
    for clos in range(cat.num_clos):
        cat.associate(0, clos)
        for delay in VALID_DELAYS:
            mba.set_delay(clos, delay)
            for core in (0, 2):  # core 2 stays in the default CLOS 0
                now += 500.0
                addr += 1
                latency = hierarchy.cpu_access(now, core, addr, "s")
                expected = memory.access_latency() * mba.latency_factor(
                    cat.clos_of(core)
                )
                assert latency.hex() == expected.hex()
        mba.set_delay(clos, 0)
