"""DMA-side behaviour: DDIO write-allocate/update, the non-allocating flow,
DMA leak accounting, and the egress path."""

from repro.platform import SKYLAKE_SP


def test_ddio_write_allocates_into_dca_ways(hierarchy, bank):
    hierarchy.dma_write(0.0, 500, "nic", allocating=True)
    line = hierarchy.llc.lookup(500, touch=False)
    assert line is not None
    assert line.way in SKYLAKE_SP.dca_ways
    assert line.io and line.dirty and not line.consumed
    assert bank.stream("nic").ddio_allocates == 1


def test_ddio_write_update_in_place(hierarchy, bank):
    hierarchy.dma_write(0.0, 500, "nic", allocating=True)
    line = hierarchy.llc.lookup(500, touch=False)
    hierarchy.cpu_access(1.0, 0, 500, "nic", io_read=True)  # consume
    line = hierarchy.llc.lookup(500, touch=False)
    way_after_consume = line.way
    hierarchy.dma_write(2.0, 500, "nic", allocating=True)
    line = hierarchy.llc.lookup(500, touch=False)
    # Write-update: stays wherever it lives (possibly an inclusive way).
    assert line.way == way_after_consume
    assert not line.consumed and line.dirty
    assert bank.stream("nic").ddio_updates == 1


def test_non_allocating_flow_goes_to_memory(hierarchy, bank):
    hierarchy.dma_write(0.0, 600, "ssd", allocating=False)
    assert hierarchy.llc.lookup(600, touch=False) is None
    assert bank.stream("ssd").mem_writes == 1


def test_non_allocating_flow_invalidates_cached_copy(hierarchy):
    hierarchy.dma_write(0.0, 600, "ssd", allocating=True)
    hierarchy.dma_write(1.0, 600, "ssd", allocating=False)
    assert hierarchy.llc.lookup(600, touch=False) is None


def test_dma_write_invalidates_mlc_copies(hierarchy):
    hierarchy.cpu_access(0.0, 0, 700, "s")
    assert hierarchy.mlcs[0].peek(700) is not None
    hierarchy.dma_write(1.0, 700, "nic", allocating=True)
    assert hierarchy.mlcs[0].peek(700) is None


def test_dma_leak_counted_on_unconsumed_eviction(hierarchy, bank):
    # Flood the DCA ways of one set with more unconsumed lines than fit.
    sets = hierarchy.llc.cfg.sets
    for i in range(len(SKYLAKE_SP.dca_ways) + 1):
        hierarchy.dma_write(0.0, 1000 + i * sets, "nic", allocating=True)
    c = bank.stream("nic")
    assert c.dma_leaks == 1
    assert c.mem_writes == 1  # leaked line was dirty


def test_consumed_line_eviction_is_not_a_leak(hierarchy, bank):
    sets = hierarchy.llc.cfg.sets
    hierarchy.dma_write(0.0, 1000, "nic", allocating=True)
    hierarchy.cpu_access(0.5, 0, 1000, "nic", io_read=True)
    # 1000 migrated to an inclusive way; flood DCA ways of the same set.
    for i in range(1, len(SKYLAKE_SP.dca_ways) + 2):
        hierarchy.dma_write(1.0, 1000 + i * sets, "nic", allocating=True)
    assert bank.stream("nic").dma_leaks <= 1  # only unconsumed ones count


def test_io_read_miss_counts_dca_miss(hierarchy, bank):
    hierarchy.cpu_access(0.0, 0, 2000, "nic", io_read=True)  # never DMA-written
    c = bank.stream("nic")
    assert c.io_reads == 1 and c.io_read_misses == 1
    assert c.dca_miss_rate == 1.0


def test_io_read_hit_in_dca_way(hierarchy, bank):
    hierarchy.dma_write(0.0, 2000, "nic", allocating=True)
    hierarchy.cpu_access(1.0, 0, 2000, "nic", io_read=True)
    c = bank.stream("nic")
    assert c.io_reads == 1 and c.io_read_misses == 0


def test_consume_writes_back_modified_line(hierarchy, bank):
    hierarchy.dma_write(0.0, 2000, "nic", allocating=True)
    before = bank.stream("nic").mem_writes
    hierarchy.cpu_access(1.0, 0, 2000, "nic", io_read=True)
    # Modified -> shared transition writes the line back to memory.
    assert bank.stream("nic").mem_writes == before + 1
    line = hierarchy.llc.lookup(2000, touch=False)
    assert line.consumed and not line.dirty


def test_dma_read_from_llc(hierarchy, bank):
    hierarchy.dma_write(0.0, 3000, "nic", allocating=True)
    hierarchy.dma_read(1.0, 3000, "nic")
    assert bank.stream("nic").dma_reads == 1
    assert bank.stream("nic").mem_reads == 0


def test_dma_read_uncached_goes_to_memory_without_allocation(hierarchy, bank):
    hierarchy.dma_read(0.0, 3001, "nic")
    assert bank.stream("nic").mem_reads == 1
    assert hierarchy.llc.lookup(3001, touch=False) is None


def test_dma_read_of_mlc_only_line_read_allocates_inclusive(hierarchy):
    hierarchy.cpu_access(0.0, 0, 3002, "app", write=True)
    assert hierarchy.llc.lookup(3002, touch=False) is None
    hierarchy.dma_read(1.0, 3002, "nic")
    line = hierarchy.llc.lookup(3002, touch=False)
    assert line is not None
    assert line.way in SKYLAKE_SP.inclusive_ways
    assert 0 in line.holders
