"""Edge-case behaviour of the hierarchy that the main test files skip."""

from repro.platform import SKYLAKE_SP


def test_dma_write_update_of_consumed_inclusive_line(hierarchy, bank):
    """Ring-slot reuse: the slot was consumed (migrated + MLC-resident);
    a fresh DMA write must reclaim it in place and invalidate the MLC."""
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    hierarchy.cpu_access(0.5, 0, 100, "nic", io_read=True)
    line = hierarchy.llc.lookup(100, touch=False)
    assert line.way in SKYLAKE_SP.inclusive_ways and line.holders == {0}
    hierarchy.dma_write(1.0, 100, "nic", allocating=True)
    line = hierarchy.llc.lookup(100, touch=False)
    assert line.way in SKYLAKE_SP.inclusive_ways  # write-update in place
    assert not line.consumed and line.dirty
    assert line.holders == set()
    assert hierarchy.mlcs[0].peek(100) is None


def test_second_cpu_read_of_consumed_line_does_not_remigrate(hierarchy, bank):
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    hierarchy.cpu_access(0.5, 0, 100, "nic", io_read=True)
    migrations = bank.stream("nic").migrations
    # Another core reads the same (now shared) line.
    hierarchy.cpu_access(1.0, 1, 100, "nic", io_read=True)
    assert bank.stream("nic").migrations == migrations
    line = hierarchy.llc.lookup(100, touch=False)
    assert line.holders == {0, 1}


def test_rfo_on_io_line_takes_it_out_of_llc(hierarchy):
    hierarchy.dma_write(0.0, 100, "app", allocating=True)
    hierarchy.cpu_access(1.0, 0, 100, "app", write=True)
    assert hierarchy.llc.lookup(100, touch=False) is None
    mlc_line = hierarchy.mlcs[0].peek(100)
    assert mlc_line is not None and mlc_line.dirty and mlc_line.io


def test_dma_read_touch_keeps_line_resident(hierarchy):
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    for _ in range(4):
        hierarchy.dma_read(1.0, 100, "nic")
    assert hierarchy.llc.lookup(100, touch=False) is not None


def test_io_read_of_line_in_own_mlc_is_not_a_dca_miss(hierarchy, bank):
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    hierarchy.cpu_access(0.5, 0, 100, "nic", io_read=True)
    hierarchy.cpu_access(1.0, 0, 100, "nic", io_read=True)  # MLC hit
    counters = bank.stream("nic")
    assert counters.io_reads == 2
    assert counters.io_read_misses == 0


def test_non_allocating_write_back_invalidates_mlc(hierarchy):
    hierarchy.cpu_access(0.0, 0, 100, "app")
    assert hierarchy.mlcs[0].peek(100) is not None
    hierarchy.dma_write(1.0, 100, "ssd", allocating=False)
    assert hierarchy.mlcs[0].peek(100) is None


def test_stream_attribution_follows_last_dma_writer(hierarchy):
    hierarchy.dma_write(0.0, 100, "nic-a", allocating=True)
    hierarchy.dma_write(1.0, 100, "nic-b", allocating=True)
    assert hierarchy.llc.lookup(100, touch=False).stream == "nic-b"


def test_migration_counts_against_io_stream_not_reader(hierarchy, bank):
    hierarchy.dma_write(0.0, 100, "nic", allocating=True)
    hierarchy.cpu_access(1.0, 0, 100, "reader", io_read=True)
    assert bank.stream("nic").migrations == 1
    assert bank.stream("reader").migrations == 0
