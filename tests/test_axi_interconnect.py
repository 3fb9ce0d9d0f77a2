"""Tests for the address maps and the burst-level data-width converter.

The routing half of the AXI-Pack compatibility story (packed bursts pass a
demux and a mux unmodified) is tested at cycle level in
``tests/test_axi_mux_corners.py``.
"""

import pytest

from repro.axi.interconnect import (
    AddressMap,
    AddressRegion,
    DataWidthConverter,
)
from repro.axi.pack import PackMode, PackUserField
from repro.axi.transaction import BusRequest
from repro.errors import ConfigurationError, ProtocolError


def strided_request(elems=64, stride=3, bus=32, addr=0x1000):
    return BusRequest(addr=addr, is_write=False, num_elements=elems, elem_bytes=4,
                      bus_bytes=bus, pack=PackUserField.strided(stride))


def indirect_request(elems=64, bus=32, addr=0x1000, idx_base=0x9000):
    return BusRequest(addr=addr, is_write=False, num_elements=elems, elem_bytes=4,
                      bus_bytes=bus, pack=PackUserField.indirect(4, idx_base),
                      index_base=idx_base)


MAP = AddressMap([
    AddressRegion(base=0x0000, size=0x8000, target=0),
    AddressRegion(base=0x8000, size=0x8000, target=1),
])


class TestAddressMap:
    def test_route(self):
        assert MAP.route(0x10) == 0
        assert MAP.route(0x8000) == 1
        assert MAP.num_targets == 2

    def test_region_boundary_addresses(self):
        """Regions are half-open: base inclusive, end exclusive."""
        assert MAP.route(0x0000) == 0            # first byte of region 0
        assert MAP.route(0x7FFF) == 0            # last byte of region 0
        assert MAP.route(0x8000) == 1            # first byte of region 1
        assert MAP.route(0xFFFF) == 1            # last byte of region 1
        with pytest.raises(ProtocolError):
            MAP.route(0x1_0000)                  # one past the last region

    def test_adjacent_regions_are_not_overlapping(self):
        adjacent = AddressMap([
            AddressRegion(0, 0x100, 0),
            AddressRegion(0x100, 0x100, 1),
        ])
        assert adjacent.route(0xFF) == 0
        assert adjacent.route(0x100) == 1

    def test_gap_between_regions_decerr(self):
        gappy = AddressMap([
            AddressRegion(0, 0x100, 0),
            AddressRegion(0x200, 0x100, 1),
        ])
        with pytest.raises(ProtocolError):
            gappy.route(0x180)

    def test_unordered_regions_are_sorted(self):
        shuffled = AddressMap([
            AddressRegion(0x8000, 0x8000, 1),
            AddressRegion(0x0000, 0x8000, 0),
        ])
        assert [region.base for region in shuffled.regions] == [0x0000, 0x8000]
        assert shuffled.route(0x10) == 0

    def test_shared_target_counts_once(self):
        split = AddressMap([
            AddressRegion(0x0000, 0x100, 7),
            AddressRegion(0x1000, 0x100, 7),
        ])
        assert split.num_targets == 1

    def test_unmapped_address_decerr(self):
        with pytest.raises(ProtocolError):
            MAP.route(0x2_0000)

    def test_invalid_region_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressRegion(base=-1, size=0x100, target=0)
        with pytest.raises(ConfigurationError):
            AddressRegion(base=0, size=0, target=0)
        with pytest.raises(ConfigurationError):
            AddressRegion(base=0, size=0x100, target=-1)

    def test_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressMap([
                AddressRegion(0, 0x100, 0),
                AddressRegion(0x80, 0x100, 1),
            ])

    def test_empty_map_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressMap([])


class TestDataWidthConverter:
    def test_downsize_repacks_strided_burst(self):
        converter = DataWidthConverter(32, 16)
        request = strided_request(elems=64, stride=5)
        converted = converter.convert(request)
        assert len(converted) == 1
        down = converted[0]
        assert down.bus_bytes == 16
        assert down.num_beats == 16              # 4 elements per 128-bit beat
        assert down.mode is PackMode.STRIDED
        assert down.pack.stride_elems == 5
        assert down.payload_bytes == request.payload_bytes

    def test_upsize_reduces_beats(self):
        converter = DataWidthConverter(16, 32)
        request = strided_request(elems=64, bus=16)
        down = converter.convert(request)[0]
        assert down.num_beats == 8

    def test_long_burst_split_at_256_beats(self):
        converter = DataWidthConverter(32, 8)
        request = strided_request(elems=1024, stride=2)
        converted = converter.convert(request)
        assert all(r.num_beats <= 256 for r in converted)
        assert sum(r.num_elements for r in converted) == 1024
        # The split continues at the right stride offset.
        assert converted[1].addr == request.addr + converted[0].num_elements * 8

    def test_indirect_split_advances_index_base(self):
        converter = DataWidthConverter(32, 8)
        request = indirect_request(elems=1024)
        converted = converter.convert(request)
        assert converted[1].index_base == request.index_base + converted[0].num_elements * 4
        assert all(r.mode is PackMode.INDIRECT for r in converted)

    def test_contiguous_conversion(self):
        converter = DataWidthConverter(32, 16)
        request = BusRequest(addr=0, is_write=False, num_elements=64, elem_bytes=4,
                             bus_bytes=32, contiguous=True)
        down = converter.convert(request)[0]
        assert down.contiguous and down.num_beats == 16

    def test_wrong_upstream_width_rejected(self):
        converter = DataWidthConverter(16, 32)
        with pytest.raises(ProtocolError):
            converter.convert(strided_request(bus=32))

    def test_element_wider_than_downstream_rejected(self):
        converter = DataWidthConverter(32, 4)
        request = BusRequest(addr=0, is_write=False, num_elements=4, elem_bytes=8,
                             bus_bytes=32, pack=PackUserField.strided(1))
        with pytest.raises(ProtocolError):
            converter.convert(request)

    def test_beat_ratio(self):
        assert DataWidthConverter(32, 8).beat_ratio() == pytest.approx(4.0)

    def test_non_power_of_two_widths_rejected(self):
        for upstream, downstream in ((24, 8), (32, 12), (0, 8), (32, 0)):
            with pytest.raises(ConfigurationError):
                DataWidthConverter(upstream, downstream)

    def test_same_width_passthrough_geometry(self):
        converter = DataWidthConverter(32, 32)
        request = strided_request(elems=64, stride=5)
        down = converter.convert(request)[0]
        assert down.bus_bytes == 32
        assert down.num_beats == request.num_beats
        assert down.payload_bytes == request.payload_bytes
        assert down.pack.stride_elems == 5

    def test_packed_passthrough_preserves_user_semantics(self):
        """Width conversion re-packs but never reinterprets the user field:
        mode, stride and element size survive both directions."""
        for upstream, downstream in ((32, 8), (8, 32)):
            converter = DataWidthConverter(upstream, downstream)
            request = strided_request(elems=32, stride=7, bus=upstream)
            for converted in converter.convert(request):
                assert converted.mode is PackMode.STRIDED
                assert converted.pack.stride_elems == 7
                assert converted.elem_bytes == request.elem_bytes

    def test_narrow_burst_stays_element_per_beat(self):
        converter = DataWidthConverter(32, 16)
        request = BusRequest(addr=0x40, is_write=False, num_elements=8,
                             elem_bytes=4, bus_bytes=32, contiguous=False)
        converted = converter.convert(request)
        assert len(converted) == 1
        down = converted[0]
        assert down.is_narrow
        assert down.num_beats == 8               # still one element per beat
        assert down.beat_bytes == 4

    def test_narrow_burst_at_the_256_beat_limit(self):
        # A narrow burst is capped at 256 elements by AXI4 itself (one
        # element per beat), so the converter never needs to split one; the
        # maximum-length case must survive conversion as a single burst.
        converter = DataWidthConverter(32, 16)
        request = BusRequest(addr=0x40, is_write=False, num_elements=256,
                             elem_bytes=4, bus_bytes=32, contiguous=False)
        converted = converter.convert(request)
        assert len(converted) == 1
        assert converted[0].num_beats == 256

    def test_strided_split_exactly_at_boundary(self):
        # 1024 elements at 4 elems/beat on the downstream bus = exactly
        # 256 beats: no split may happen.
        converter = DataWidthConverter(32, 16)
        request = strided_request(elems=1024, stride=2)
        converted = converter.convert(request)
        assert len(converted) == 1
        assert converted[0].num_beats == 256
