"""Unit tests for the bus channel monitor."""

import pytest

from repro.axi.monitor import ChannelMonitor


class TestChannelMonitor:
    def test_full_beats_give_full_utilization(self):
        monitor = ChannelMonitor("R", 32)
        for _ in range(10):
            monitor.record_beat(32)
        assert monitor.utilization(10) == pytest.approx(1.0)
        assert monitor.occupancy(10) == pytest.approx(1.0)

    def test_narrow_beats_waste_bus(self):
        monitor = ChannelMonitor("R", 32)
        for _ in range(10):
            monitor.record_beat(4)
        assert monitor.utilization(10) == pytest.approx(0.125)

    def test_idle_cycles_reduce_utilization(self):
        monitor = ChannelMonitor("R", 32)
        monitor.record_beat(32)
        assert monitor.utilization(4) == pytest.approx(0.25)

    def test_kind_separation(self):
        monitor = ChannelMonitor("R", 32)
        monitor.record_beat(32, kind="data")
        monitor.record_beat(32, kind="index")
        assert monitor.utilization(2) == pytest.approx(1.0)
        assert monitor.utilization(2, include_kinds={"data"}) == pytest.approx(0.5)
        assert monitor.payload_beats_by_kind == {"data": 1, "index": 1}

    def test_out_of_range_useful_bytes_rejected(self):
        monitor = ChannelMonitor("R", 32)
        with pytest.raises(ValueError):
            monitor.record_beat(33)
        with pytest.raises(ValueError):
            monitor.record_beat(-1)

    def test_zero_cycles(self):
        monitor = ChannelMonitor("R", 32)
        assert monitor.utilization(0) == 0.0
        assert monitor.occupancy(0) == 0.0

    def test_reset(self):
        monitor = ChannelMonitor("R", 32)
        monitor.record_beat(32)
        monitor.reset()
        assert monitor.beats == 0
        assert monitor.useful_bytes == 0
        assert monitor.payload_beats_by_kind == {}
