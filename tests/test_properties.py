"""Property-based tests (hypothesis) on the core data structures and the
cache hierarchy's invariants."""

from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.llc import LastLevelCache, LlcConfig
from repro.platform import SKYLAKE_SP
from repro.rdt.cat import CacheAllocation
from repro.telemetry.counters import CounterBank
from repro.telemetry.latency import LatencyTracker, percentile
from repro.uncore.memory import MemoryController


def build_hierarchy(cores=2):
    bank = CounterBank()
    cat = CacheAllocation()
    memory = MemoryController(bank)
    cfg = HierarchyConfig(cores=cores, llc=LlcConfig(sets=16), mlc_sets=4, mlc_ways=2)
    return CacheHierarchy(cfg, cat, memory, bank), bank, cat


# An operation stream: (op, core, addr) triples over a small address space.
operations = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "dma_alloc", "dma_mem", "dma_read", "io_read"]),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=127),
    ),
    max_size=200,
)


def apply_ops(hierarchy, ops):
    now = 0.0
    for op, core, addr in ops:
        now += 1.0
        if op == "read":
            hierarchy.cpu_access(now, core, addr, "s")
        elif op == "write":
            hierarchy.cpu_access(now, core, addr, "s", write=True)
        elif op == "io_read":
            hierarchy.cpu_access(now, core, addr, "io", io_read=True)
        elif op == "dma_alloc":
            hierarchy.dma_write(now, addr, "io", allocating=True)
        elif op == "dma_mem":
            hierarchy.dma_write(now, addr, "io", allocating=False)
        elif op == "dma_read":
            hierarchy.dma_read(now, addr, "io")


@settings(max_examples=60, deadline=None)
@given(operations)
def test_hierarchy_structural_invariants(ops):
    hierarchy, bank, cat = build_hierarchy()
    apply_ops(hierarchy, ops)

    seen = set()
    for line in hierarchy.llc.resident():
        # (1) no duplicate addresses in the LLC
        assert line.addr not in seen
        seen.add(line.addr)
        # (2) every resident line is indexed where it claims to be
        wayset = hierarchy.llc.set_of(line.addr)
        assert wayset.slots[line.way] is line
        # (3) inclusive lines only in inclusive ways
        if line.holders:
            assert line.way in hierarchy.llc.cfg.inclusive_ways
            # (4) holders really hold the line
            for core in line.holders:
                assert hierarchy.mlcs[core].peek(line.addr) is not None

    # (5) snoop-filter entries match MLC contents
    for core, mlc in enumerate(hierarchy.mlcs):
        for mlc_line in mlc.resident():
            entry = hierarchy.sf.entry(mlc_line.addr)
            assert entry is not None and core in entry.holders


@settings(max_examples=60, deadline=None)
@given(operations)
def test_counters_are_consistent(ops):
    hierarchy, bank, cat = build_hierarchy()
    apply_ops(hierarchy, ops)
    for counters in bank.streams.values():
        # misses at the MLC are the only way to reach the LLC level
        assert counters.llc_hits + counters.llc_misses <= counters.mlc_misses + counters.dma_writes
        assert counters.io_read_misses <= counters.io_reads
        assert counters.dma_leaks <= counters.dma_writes
        assert 0.0 <= counters.llc_hit_rate <= 1.0
        assert 0.0 <= counters.dca_miss_rate <= 1.0


@settings(max_examples=40, deadline=None)
@given(operations, st.integers(min_value=0, max_value=10))
def test_masked_fills_stay_inside_mask_or_inclusive(ops, left):
    hierarchy, bank, cat = build_hierarchy()
    right = min(left + 2, 10)
    cat.set_mask(1, range(left, right + 1))
    cat.associate(0, 1)
    cat.associate(1, 1)
    apply_ops(hierarchy, ops)
    allowed = set(range(left, right + 1)) | set(hierarchy.llc.cfg.inclusive_ways)
    allowed |= set(hierarchy.llc.cfg.dca_ways)  # DMA allocations ignore CAT
    for line in hierarchy.llc.resident():
        assert line.way in allowed


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=300))
def test_percentile_properties(values):
    ordered = sorted(values)
    p50 = percentile(ordered, 0.5)
    p99 = percentile(ordered, 0.99)
    assert ordered[0] <= p50 <= ordered[-1]
    assert p50 <= p99 <= ordered[-1]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=100))
def test_latency_tracker_mean_bounds(values):
    tracker = LatencyTracker()
    for v in values:
        tracker.record(v)
    stats = tracker.flush()
    # One-ULP slack: float summation can round the mean of identical
    # values just below min(values).
    eps = 1e-9 * max(1.0, max(values))
    assert min(values) - eps <= stats.mean <= max(values) + eps
    assert stats.count == len(values)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
)
def test_cat_masks_always_contiguous(a, b):
    cat = CacheAllocation()
    first, last = min(a, b), max(a, b)
    cat.set_mask(1, range(first, last + 1))
    mask = cat.mask(1)
    assert mask == tuple(range(first, last + 1))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
def test_llc_occupancy_never_exceeds_geometry(addrs):
    llc = LastLevelCache(LlcConfig(sets=8))
    for addr in addrs:
        if llc.lookup(addr) is None:
            llc.allocate(addr, "s", allowed_ways=range(11))
    by_way = llc.occupancy_by_way()
    assert sum(by_way.values()) <= 8 * 11
    for line in llc.resident():
        assert 0 <= line.way < 11


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_capacity_scaling_monotonic(mb):
    smaller = SKYLAKE_SP.lines_for_paper_bytes(mb * 1024 * 1024)
    larger = SKYLAKE_SP.lines_for_paper_bytes((mb + 1) * 1024 * 1024)
    assert larger >= smaller >= 1
