"""Tests for the packet generator."""

import pytest

from repro.devices.packetgen import PacketGenConfig, PacketGenerator
from repro.platform import SKYLAKE_SP
from repro.sim.rng import DeterministicRng


def test_packet_lines_rounding():
    assert PacketGenConfig(packet_bytes=64).packet_lines == 1
    assert PacketGenConfig(packet_bytes=65).packet_lines == 2
    assert PacketGenConfig(packet_bytes=1514).packet_lines == 24


def test_mean_gap_matches_line_rate():
    cfg = PacketGenConfig(packet_bytes=1024, line_rate_lines_per_cycle=0.1)
    assert cfg.mean_gap_cycles == pytest.approx(cfg.packet_lines / 0.1)


def test_zero_jitter_is_periodic():
    cfg = PacketGenConfig(packet_bytes=512, jitter=0.0)
    gen = PacketGenerator(cfg, DeterministicRng(1).stream("g"))
    gaps = [gen.next_gap() for _ in range(10)]
    assert len(set(gaps)) == 1


def test_jitter_stays_within_band():
    cfg = PacketGenConfig(packet_bytes=512, jitter=0.25)
    gen = PacketGenerator(cfg, DeterministicRng(1).stream("g"))
    mean = cfg.mean_gap_cycles
    for _ in range(200):
        gap = gen.next_gap()
        assert 0.75 * mean - 1e-9 <= gap <= 1.25 * mean + 1e-9


def test_achieved_rate_close_to_configured():
    cfg = PacketGenConfig(packet_bytes=1024, line_rate_lines_per_cycle=0.05)
    gen = PacketGenerator(cfg, DeterministicRng(2).stream("g"))
    n = 2000
    total = sum(gen.next_gap() for _ in range(n))
    achieved = n * cfg.packet_lines / total
    assert achieved == pytest.approx(0.05, rel=0.05)


def test_config_validation():
    with pytest.raises(ValueError):
        PacketGenConfig(packet_bytes=0)
    with pytest.raises(ValueError):
        PacketGenConfig(line_rate_lines_per_cycle=0.0)
    with pytest.raises(ValueError):
        PacketGenConfig(jitter=1.0)


def test_default_rate_is_config_value():
    cfg = PacketGenConfig()
    assert (
        cfg.line_rate_lines_per_cycle
        == SKYLAKE_SP.nic_line_rate_lines_per_cycle
    )
