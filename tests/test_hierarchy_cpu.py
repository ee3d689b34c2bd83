"""CPU-side behaviour of the cache hierarchy: non-inclusive fills, victim
cache, RFOs, and cross-MLC snoops."""

from repro.platform import SKYLAKE_SP


def test_first_access_misses_to_memory(hierarchy, bank):
    latency = hierarchy.cpu_access(0.0, 0, 100, "s")
    c = bank.stream("s")
    assert c.mlc_misses == 1 and c.llc_misses == 1
    assert c.mem_reads == 1
    assert latency >= SKYLAKE_SP.memory_cycles


def test_miss_fills_mlc_only_non_inclusive(hierarchy):
    hierarchy.cpu_access(0.0, 0, 100, "s")
    assert hierarchy.mlcs[0].peek(100) is not None
    assert hierarchy.llc.lookup(100, touch=False) is None


def test_second_access_hits_mlc(hierarchy, bank):
    hierarchy.cpu_access(0.0, 0, 100, "s")
    latency = hierarchy.cpu_access(1.0, 0, 100, "s")
    assert bank.stream("s").mlc_hits == 1
    assert latency == SKYLAKE_SP.mlc_hit_cycles


def test_mlc_eviction_allocates_into_llc(hierarchy):
    mlc_capacity = hierarchy.mlcs[0].capacity_lines
    for addr in range(mlc_capacity + 1):
        hierarchy.cpu_access(0.0, 0, addr, "s")
    # addr 0 was the LRU of its set and must now be in the LLC.
    assert hierarchy.mlcs[0].peek(0) is None
    assert hierarchy.llc.lookup(0, touch=False) is not None


def test_llc_hit_transfers_line_back_to_mlc(hierarchy, bank):
    mlc_capacity = hierarchy.mlcs[0].capacity_lines
    for addr in range(mlc_capacity + 1):
        hierarchy.cpu_access(0.0, 0, addr, "s")
    latency = hierarchy.cpu_access(1.0, 0, 0, "s")
    assert latency == SKYLAKE_SP.llc_hit_cycles
    assert bank.stream("s").llc_hits == 1
    # Non-inclusive victim-cache: the regular line's LLC copy is invalidated.
    assert hierarchy.llc.lookup(0, touch=False) is None
    assert hierarchy.mlcs[0].peek(0) is not None


def test_llc_fill_respects_cat_mask(hierarchy, cat):
    cat.set_mask(1, range(5, 7))
    cat.associate(0, 1)
    for addr in range(hierarchy.mlcs[0].capacity_lines + 64):
        hierarchy.cpu_access(0.0, 0, addr, "s")
    ways = {line.way for line in hierarchy.llc.resident() if line.stream == "s"}
    assert ways <= {5, 6}


def test_store_marks_mlc_line_dirty(hierarchy):
    hierarchy.cpu_access(0.0, 0, 100, "s", write=True)
    assert hierarchy.mlcs[0].peek(100).dirty


def test_dirty_eviction_writes_back_to_memory_eventually(hierarchy, bank):
    # Fill with dirty lines, then displace them through LLC and out.
    llc_lines = hierarchy.llc.cfg.sets * hierarchy.llc.cfg.ways
    span = hierarchy.mlcs[0].capacity_lines + 2 * llc_lines
    for addr in range(0, span, 1):
        hierarchy.cpu_access(0.0, 0, addr, "s", write=True)
    assert bank.stream("s").mem_writes > 0


def test_store_hit_invalidates_stale_llc_copy(hierarchy):
    capacity = hierarchy.mlcs[0].capacity_lines
    for addr in range(capacity + 1):
        hierarchy.cpu_access(0.0, 0, addr, "s")
    # addr 0 in LLC; re-read brings it to MLC (LLC copy dropped for regular
    # lines), then a store hit must leave no stale LLC copy.
    hierarchy.cpu_access(1.0, 0, 0, "s")
    hierarchy.cpu_access(2.0, 0, 0, "s", write=True)
    assert hierarchy.llc.lookup(0, touch=False) is None
    assert hierarchy.mlcs[0].peek(0).dirty


def test_snoop_hit_from_peer_mlc(hierarchy, bank):
    hierarchy.cpu_access(0.0, 0, 100, "a")
    latency = hierarchy.cpu_access(1.0, 1, 100, "b")
    assert latency == hierarchy.cfg.snoop_hit_cycles
    assert bank.stream("b").llc_hits == 1
    assert hierarchy.mlcs[0].peek(100) is not None
    assert hierarchy.mlcs[1].peek(100) is not None


def test_write_to_shared_line_invalidates_peers(hierarchy):
    hierarchy.cpu_access(0.0, 0, 100, "a")
    hierarchy.cpu_access(1.0, 1, 100, "b", write=True)
    assert hierarchy.mlcs[0].peek(100) is None
    assert hierarchy.mlcs[1].peek(100).dirty


def test_shared_then_evicted_copy_drops_silently(hierarchy, bank):
    hierarchy.cpu_access(0.0, 0, 100, "a")
    hierarchy.cpu_access(1.0, 1, 100, "b")
    # Evict core 1's copy by conflict; core 0 still holds it, so no LLC fill.
    sets = hierarchy.cfg.mlc_sets
    ways = hierarchy.cfg.mlc_ways
    for i in range(1, ways + 1):
        hierarchy.cpu_access(2.0, 1, 100 + i * sets, "b")
    assert hierarchy.mlcs[1].peek(100) is None
    assert hierarchy.llc.lookup(100, touch=False) is None
    assert hierarchy.mlcs[0].peek(100) is not None


def test_ipc_counters_untouched_by_hierarchy(hierarchy, bank):
    hierarchy.cpu_access(0.0, 0, 1, "s")
    assert bank.stream("s").instructions == 0
