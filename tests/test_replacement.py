"""Tests for the pluggable LLC replacement policies."""

import pickle
import random

import pytest

from repro.cache.line import LlcLine
from repro.cache.llc import LastLevelCache, LlcConfig
from repro.cache.replacement import (
    BrripPolicy,
    DeadBlockHintPolicy,
    LruPolicy,
    NruPolicy,
    SrripPolicy,
    make_policy,
)


def fill_slots(n, ways=4):
    slots = [None] * ways
    lines = []
    for i in range(n):
        line = LlcLine(addr=i, stream="s", way=i)
        slots[i] = line
        lines.append(line)
    return slots, lines


def test_factory():
    assert isinstance(make_policy("lru"), LruPolicy)
    assert isinstance(make_policy("srrip"), SrripPolicy)
    assert isinstance(make_policy("brrip"), BrripPolicy)
    assert isinstance(make_policy("nru"), NruPolicy)
    with pytest.raises(ValueError):
        make_policy("plru")


def test_empty_way_always_preferred():
    for name in ("lru", "srrip", "brrip", "nru"):
        policy = make_policy(name)
        slots, lines = fill_slots(2, ways=4)
        for line in lines:
            policy.on_fill(line)
        assert policy.victim_way(slots, allowed=range(4)) in (2, 3)


def test_victim_respects_allowed_set():
    for name in ("lru", "srrip", "brrip", "nru"):
        policy = make_policy(name)
        slots, lines = fill_slots(4, ways=4)
        for line in lines:
            policy.on_fill(line)
        assert policy.victim_way(slots, allowed=(1, 2)) in (1, 2)


def test_no_candidates_raises():
    policy = make_policy("lru")
    slots, _ = fill_slots(2)
    with pytest.raises(ValueError):
        policy.victim_way(slots, allowed=(0,), exclude=(0,))


def test_lru_evicts_least_recent():
    policy = LruPolicy()
    slots, lines = fill_slots(4)
    for line in lines:
        policy.on_fill(line)
    policy.on_hit(lines[0])
    assert policy.victim_way(slots, allowed=range(4)) == 1


def test_srrip_protects_rereferenced_lines():
    policy = SrripPolicy()
    slots, lines = fill_slots(4)
    for line in lines:
        policy.on_fill(line)
    policy.on_hit(lines[2])  # rrpv -> 0
    victim = policy.victim_way(slots, allowed=range(4))
    assert victim != 2


def test_srrip_ages_until_distant_line_exists():
    policy = SrripPolicy()
    slots, lines = fill_slots(4)
    for line in lines:
        policy.on_fill(line)
        policy.on_hit(line)  # all rrpv 0
    victim = policy.victim_way(slots, allowed=range(4))
    assert victim in range(4)
    # Ageing must have raised everyone to max rrpv.
    assert all(line.meta["rrpv"] == policy.max_rrpv for line in lines)


def test_brrip_mostly_inserts_distant():
    policy = BrripPolicy(long_interval=32)
    slots, lines = fill_slots(4)
    distant = 0
    for line in lines:
        policy.on_fill(line)
        if line.meta["rrpv"] == policy.max_rrpv:
            distant += 1
    assert distant >= 3


def test_nru_clears_bits_when_all_recent():
    policy = NruPolicy()
    slots, lines = fill_slots(4)
    for line in lines:
        policy.on_fill(line)
    victim = policy.victim_way(slots, allowed=range(4))
    assert victim == 0  # all recent -> bits cleared, first candidate
    # Bits cleared for everyone else now.
    assert all(line.meta["nru"] == 0 for line in lines)


def test_deadblock_marks_consumed_io_lines_distant():
    policy = DeadBlockHintPolicy()
    dead = LlcLine(addr=0, stream="io", way=0, io=True, consumed=True)
    live = LlcLine(addr=1, stream="app", way=1)
    policy.on_fill(dead)
    policy.on_fill(live)
    assert dead.meta["rrpv"] == policy.max_rrpv
    assert live.meta["rrpv"] == policy.max_rrpv - 1


def test_deadblock_evicts_bloat_before_live_lines():
    policy = DeadBlockHintPolicy()
    slots = [None] * 4
    live = []
    for i in range(3):
        line = LlcLine(addr=i, stream="app", way=i)
        policy.on_fill(line)
        slots[i] = line
        live.append(line)
    bloat = LlcLine(addr=9, stream="io", way=3, io=True, consumed=True)
    policy.on_fill(bloat)
    slots[3] = bloat
    assert policy.victim_way(slots, allowed=range(4)) == 3


def test_deadblock_available_from_factory():
    assert isinstance(make_policy("deadblock"), DeadBlockHintPolicy)


def test_rrip_validation():
    with pytest.raises(ValueError):
        SrripPolicy(max_rrpv=0)
    with pytest.raises(ValueError):
        BrripPolicy(long_interval=0)


def test_llc_config_selects_policy():
    llc = LastLevelCache(LlcConfig(sets=4, replacement="srrip"))
    assert isinstance(llc.policy, SrripPolicy)
    with pytest.raises(ValueError):
        LastLevelCache(LlcConfig(sets=4, replacement="bogus"))


def test_srrip_resists_streaming_better_than_lru():
    """A small reused set + a large stream: SRRIP keeps the reused lines."""

    def run(policy_name):
        llc = LastLevelCache(LlcConfig(sets=1, replacement=policy_name))
        hot = []
        for i in range(4):
            line, _ = llc.allocate(i, "hot", allowed_ways=range(11))
            hot.append(i)
        hits = 0
        stream_addr = 1000
        for round_ in range(60):
            for addr in hot:
                if llc.lookup(addr) is not None:
                    hits += 1
                else:
                    llc.allocate(addr, "hot", allowed_ways=range(11))
            for _ in range(8):  # streaming pressure, never re-referenced
                if llc.lookup(stream_addr) is None:
                    llc.allocate(stream_addr, "cold", allowed_ways=range(11))
                stream_addr += 1
        return hits

    assert run("srrip") > run("lru")


def _drive(llc, rng, steps):
    """Random lookups and fills over a small footprint; returns the
    victim address of every fill (None for an empty way)."""
    victims = []
    for _ in range(steps):
        addr = rng.randrange(40)
        if llc.lookup(addr) is None:
            io = rng.random() < 0.3
            _, victim = llc.allocate(
                addr, "s", range(11), io=io, consumed=io and rng.random() < 0.5
            )
            victims.append(None if victim is None else victim.addr)
    return victims


def _meta_state(llc):
    return sorted(
        (line.addr, line.way, line.lru, tuple(sorted(line.meta.items())))
        for line in llc.resident()
    )


def test_lru_lines_never_allocate_meta():
    assert LlcLine(addr=0, stream="s", way=0)._meta is None
    llc = LastLevelCache(LlcConfig(sets=1))
    _drive(llc, random.Random(1), 200)
    assert all(line._meta is None for line in llc.resident())


@pytest.mark.parametrize("name", ["srrip", "brrip", "nru", "deadblock"])
def test_lazy_meta_drives_policy_and_survives_checkpoint(name):
    """``LlcLine.meta`` is allocated on first use: every line the policy
    filled carries its state, and a pickled copy (checkpoints pickle the
    whole server) continues exactly like the original."""
    key = "nru" if name == "nru" else "rrpv"
    rng = random.Random(7)
    llc = LastLevelCache(LlcConfig(sets=1, replacement=name))
    _drive(llc, rng, 300)
    assert all(key in line.meta for line in llc.resident())

    clone = pickle.loads(pickle.dumps(llc, protocol=pickle.HIGHEST_PROTOCOL))
    assert _meta_state(clone) == _meta_state(llc)
    state = rng.getstate()
    original = _drive(llc, rng, 300)
    rng.setstate(state)
    restored = _drive(clone, rng, 300)
    assert restored == original
    assert _meta_state(clone) == _meta_state(llc)
    # The metadata steers the victim choice: plain LRU evicts differently.
    rng.setstate(state)
    lru = LastLevelCache(LlcConfig(sets=1))
    for line in sorted(clone.resident(), key=lambda line: line.lru):
        lru.allocate(line.addr, "s", [line.way])
    assert _drive(lru, rng, 300) != original
