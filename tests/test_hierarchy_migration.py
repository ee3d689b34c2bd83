"""The paper's core microarchitectural discovery (O1): consumed DMA lines
migrate into the inclusive ways, contending with whoever lives there."""

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.llc import LlcConfig
from repro.platform import SKYLAKE_SP


def test_consumed_dca_line_migrates_to_inclusive_way(hierarchy):
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    assert hierarchy.llc.lookup(100, touch=False).way in SKYLAKE_SP.dca_ways
    hierarchy.cpu_access(1.0, 0, 100, "nic", io_read=True)
    line = hierarchy.llc.lookup(100, touch=False)
    assert line.way in SKYLAKE_SP.inclusive_ways
    assert line.holders == {0}


def test_migration_evicts_inclusive_way_occupants(hierarchy, cat, bank):
    # A bystander explicitly allocated to the inclusive ways (way[9:10]).
    cat.set_mask(1, SKYLAKE_SP.inclusive_ways)
    cat.associate(1, 1)
    sets = hierarchy.llc.cfg.sets
    base = 5000
    # Two bystander lines into the inclusive ways of set (base % sets):
    for i in (0, 1):
        addr = base + i * sets * 64  # same set, distinct tags
        hierarchy.cpu_access(0.0, 1, addr, "bystander")
        # displace from MLC so it lands in the LLC
        for j in range(1, hierarchy.cfg.mlc_ways + 1):
            hierarchy.cpu_access(0.0, 1, addr + j * hierarchy.cfg.mlc_sets, "bystander")
    occupancy = [
        line
        for line in hierarchy.llc.resident()
        if line.stream == "bystander" and line.way in SKYLAKE_SP.inclusive_ways
    ]
    assert occupancy, "bystander must occupy inclusive ways first"

    # Now DMA-write + consume I/O lines mapping to the same set.
    evictions_before = bank.stream("bystander").llc_evictions_suffered
    target_set = base % sets
    for i in range(4):
        addr = (9000 // sets + i) * sets + target_set
        assert addr % sets == target_set
        hierarchy.dma_write(1.0, addr, "nic", allocating=True)
        hierarchy.cpu_access(1.0, 0, addr, "nic", io_read=True)
    assert bank.stream("bystander").llc_evictions_suffered > evictions_before
    assert bank.stream("nic").migrations >= 1


def test_migration_ignores_cat_masks(hierarchy, cat):
    # Even when the consuming core's CLOS excludes the inclusive ways,
    # the directory constraint moves the line there.
    cat.set_mask(1, range(2, 5))
    cat.associate(0, 1)
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    hierarchy.cpu_access(1.0, 0, 100, "nic", io_read=True)
    line = hierarchy.llc.lookup(100, touch=False)
    assert line.way in SKYLAKE_SP.inclusive_ways


def test_no_migration_without_consumption(hierarchy):
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    # Untouched by any CPU: line remains in the DCA ways (DPDK-NT behaviour).
    assert hierarchy.llc.lookup(100, touch=False).way in SKYLAKE_SP.dca_ways


def test_ablation_flag_disables_migration(bank, cat, memory):
    cfg = HierarchyConfig(cores=2, llc=LlcConfig(inclusive_migration=False))
    hierarchy = CacheHierarchy(cfg, cat, memory, bank)
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    hierarchy.cpu_access(1.0, 0, 100, "nic", io_read=True)
    line = hierarchy.llc.lookup(100, touch=False)
    assert line.way in SKYLAKE_SP.dca_ways
    assert bank.stream("nic").migrations == 0


def test_dma_bloat_goes_to_cat_ways_after_mlc_eviction(hierarchy, cat, bank):
    cat.set_mask(1, range(5, 7))
    cat.associate(0, 1)
    sets = hierarchy.cfg.mlc_sets
    ways = hierarchy.cfg.mlc_ways
    # Consume an I/O line, then evict it from the MLC by conflict.
    hierarchy.dma_write(0.0, 4096, "nic", allocating=True)
    hierarchy.cpu_access(0.5, 0, 4096, "nic", io_read=True)
    # Remove its LLC (inclusive-way) copy by migrating other io lines there.
    llc_sets = hierarchy.llc.cfg.sets
    for i in range(1, 4):
        addr = 4096 + i * llc_sets
        hierarchy.dma_write(1.0, addr, "nic2", allocating=True)
        hierarchy.cpu_access(1.0, 1, addr, "nic2", io_read=True)
    assert hierarchy.llc.lookup(4096, touch=False) is None
    # Now evict from the MLC: should allocate into ways 5-6 as DMA bloat.
    before = bank.stream("nic").dma_bloats
    for j in range(1, ways + 1):
        hierarchy.cpu_access(2.0, 0, 4096 + j * sets, "nic")
    line = hierarchy.llc.lookup(4096, touch=False)
    assert line is not None and line.way in (5, 6)
    assert line.consumed and line.io
    assert bank.stream("nic").dma_bloats == before + 1


def test_inclusive_downgrade_preserves_mlc_copy(hierarchy, bank):
    # A consumed I/O line resident in MLC + inclusive way loses its LLC copy
    # when other migrations displace it; the MLC copy must survive.
    sets = hierarchy.llc.cfg.sets
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    hierarchy.cpu_access(0.5, 0, 100, "nic", io_read=True)
    assert hierarchy.llc.lookup(100, touch=False).holders == {0}
    for i in range(1, 4):
        addr = 100 + i * sets
        hierarchy.dma_write(1.0, addr, "nic2", allocating=True)
        hierarchy.cpu_access(1.0, 1, addr, "nic2", io_read=True)
    assert hierarchy.llc.lookup(100, touch=False) is None
    assert hierarchy.mlcs[0].peek(100) is not None
    assert bank.stream("nic").inclusive_downgrades >= 1
