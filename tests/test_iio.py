"""Tests for the IIO agent: DMA routed per the port's DCA state."""

from repro.platform import SKYLAKE_SP
from repro.telemetry.counters import CounterBank
from repro.uncore.iio import IIOAgent
from repro.uncore.pcie import PcieComplex


def test_inbound_write_allocating(hierarchy, bank):
    iio = IIOAgent(hierarchy)
    port = PcieComplex(bank).add_port(0, "nic")
    iio.inbound_write(0.0, port, 42, "nic")
    line = hierarchy.llc.lookup(42, touch=False)
    assert line is not None and line.way in SKYLAKE_SP.dca_ways
    assert port.inbound_write_lines == 1


def test_inbound_write_non_allocating(hierarchy, bank):
    iio = IIOAgent(hierarchy)
    port = PcieComplex(bank).add_port(0, "ssd")
    port.disable_dca()
    iio.inbound_write(0.0, port, 42, "ssd")
    assert hierarchy.llc.lookup(42, touch=False) is None
    assert bank.stream("ssd").mem_writes == 1


def test_burst_writes_consecutive_lines(hierarchy, bank):
    iio = IIOAgent(hierarchy)
    port = PcieComplex(bank).add_port(0, "nic")
    iio.inbound_write_burst(0.0, port, 100, 4, "nic")
    for offset in range(4):
        assert hierarchy.llc.lookup(100 + offset, touch=False) is not None
    assert port.inbound_write_lines == 4
    assert bank.stream("nic").dma_writes == 4


def test_outbound_read(hierarchy, bank):
    iio = IIOAgent(hierarchy)
    port = PcieComplex(bank).add_port(0, "nic")
    iio.outbound_read(0.0, port, 7, "nic")
    assert port.inbound_read_lines == 1
    assert bank.stream("nic").dma_reads == 1
