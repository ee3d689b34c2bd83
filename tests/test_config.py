"""Tests for the default platform's geometry and scaling (paper Table 1
equivalences)."""

from repro.platform import SKYLAKE_SP


def test_skylake_way_layout():
    assert SKYLAKE_SP.llc_ways == 11
    assert SKYLAKE_SP.dca_ways == (0, 1)
    assert SKYLAKE_SP.inclusive_ways == (9, 10)
    assert SKYLAKE_SP.standard_ways == tuple(range(2, 9))
    assert len(SKYLAKE_SP.dca_ways) + len(SKYLAKE_SP.inclusive_ways) + len(
        SKYLAKE_SP.standard_ways
    ) == SKYLAKE_SP.llc_ways


def test_extended_directory_geometry():
    # 12 extended ways, 2 of them shared with the traditional directory.
    assert SKYLAKE_SP.extended_dir_ways == 12
    assert len(SKYLAKE_SP.inclusive_ways) == 2


def test_mlc_to_llc_way_ratio_preserved():
    # Paper: 1 MiB MLC vs 2.327 MiB per LLC way (~0.43x).  Keeping the
    # simulated ratio below 1 preserves bloat/migration dynamics.
    ratio = SKYLAKE_SP.mlc_lines / SKYLAKE_SP.llc_way_lines
    assert 0.3 < ratio < 0.7


def test_lines_for_paper_bytes_minimum():
    assert SKYLAKE_SP.lines_for_paper_bytes(1) == 1
    assert SKYLAKE_SP.lines_for_paper_bytes(0, minimum=2) == 2


def test_packet_lines_unscaled():
    assert SKYLAKE_SP.packet_lines(64) == 1
    assert SKYLAKE_SP.packet_lines(1514) == 24


def test_xmem_4mb_constraint():
    # 2 MLCs < 4 MB working set < 2 LLC ways (paper §3.1 setup).
    ws = SKYLAKE_SP.lines_for_paper_bytes(4 * 1024 * 1024)
    assert 2 * SKYLAKE_SP.mlc_lines < ws < 2 * SKYLAKE_SP.llc_way_lines


def test_latency_ordering():
    spec = SKYLAKE_SP
    assert spec.mlc_hit_cycles < spec.llc_hit_cycles < spec.memory_cycles
