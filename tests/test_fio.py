"""Tests for the FIO storage workload model."""

import pytest

from repro.experiments.harness import Server
from repro.platform import SKYLAKE_SP
from repro.workloads.fio import FioWorkload

KB = 1024
MB = 1024 * KB


def run_fio(block_bytes=128 * KB, cores=2, epochs=5, dca=True, **kwargs):
    server = Server(cores=cores + 1)
    workload = FioWorkload(name="fio", block_bytes=block_bytes, cores=cores, **kwargs)
    server.add_workload(workload)
    if not dca:
        server.pcie.port(workload.port_id).disable_dca()
    return server, workload, server.run(epochs=epochs, warmup=1)


def test_blocks_complete_and_are_scanned():
    server, workload, result = run_fio()
    counters = server.counters.stream("fio")
    assert counters.io_requests_completed > 0
    assert counters.io_reads >= counters.io_requests_completed * workload.block_lines


def test_block_lines_scaled_from_paper_bytes():
    w = FioWorkload(block_bytes=2 * MB)
    assert w.block_lines == SKYLAKE_SP.lines_for_paper_bytes(2 * MB)
    assert FioWorkload(block_bytes=4 * KB).block_lines >= 1


def test_throughput_independent_of_dca():
    # Four threads, as in the paper: enough consumer capacity that the
    # device, not the memory path, is the bottleneck either way.
    _, _, with_dca = run_fio(cores=4, dca=True)
    _, _, without = run_fio(cores=4, dca=False)
    a = with_dca.aggregate("fio").throughput
    b = without.aggregate("fio").throughput
    assert a == pytest.approx(b, rel=0.1)


def test_dca_off_doubles_memory_traffic():
    _, _, with_dca = run_fio(block_bytes=32 * KB, dca=True)
    _, _, without = run_fio(block_bytes=32 * KB, dca=False)
    assert without.mem_total_bw > 1.5 * with_dca.mem_total_bw


def test_large_blocks_leak_with_dca_on():
    _, _, result = run_fio(block_bytes=2 * MB, cores=4, epochs=5)
    agg = result.aggregate("fio")
    assert agg.dma_leaks > 0
    assert agg.dca_miss_rate > 0.4


def test_small_blocks_do_not_leak():
    _, _, result = run_fio(block_bytes=32 * KB, cores=4, epochs=5)
    agg = result.aggregate("fio")
    assert agg.dca_miss_rate < 0.05


def test_latency_recorded_per_block():
    _, _, result = run_fio()
    agg = result.aggregate("fio")
    assert agg.requests > 0 and agg.avg_latency > 0


def test_parameter_validation():
    with pytest.raises(ValueError):
        FioWorkload(block_bytes=0)
    with pytest.raises(ValueError):
        FioWorkload(io_depth=0)
    with pytest.raises(ValueError):
        FioWorkload(memory_parallelism=0.5)
