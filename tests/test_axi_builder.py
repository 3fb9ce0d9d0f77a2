"""Unit tests for stream-to-burst lowering (the VLSU's request builder)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.axi.builder import BuilderConfig, RequestBuilder
from repro.axi.pack import PackMode
from repro.axi.stream import ContiguousStream, IndirectStream, StridedStream
from repro.axi.types import check_incr_burst_legal
from repro.errors import ConfigurationError


@pytest.fixture
def builder():
    return RequestBuilder(BuilderConfig(bus_bytes=32))


class TestBuilderConfig:
    def test_rejects_non_power_of_two_bus(self):
        with pytest.raises(ConfigurationError):
            BuilderConfig(bus_bytes=24)

    def test_rejects_over_long_bursts(self):
        with pytest.raises(ConfigurationError):
            BuilderConfig(max_burst_beats=512)


class TestContiguousLowering:
    def test_single_burst(self, builder):
        stream = ContiguousStream(base=0, num_elements=256, elem_bytes=4)
        requests = builder.contiguous(stream, is_write=False)
        assert len(requests) == 1
        assert requests[0].num_beats == 32
        assert requests[0].contiguous

    def test_split_at_256_beats(self, builder):
        stream = ContiguousStream(base=0, num_elements=3000, elem_bytes=4)
        requests = builder.contiguous(stream, is_write=False)
        assert all(r.num_beats <= 256 for r in requests)
        assert sum(r.num_elements for r in requests) == 3000

    def test_split_at_4k_boundary(self, builder):
        stream = ContiguousStream(base=4096 - 64, num_elements=64, elem_bytes=4)
        requests = builder.contiguous(stream, is_write=False)
        assert len(requests) == 2
        assert requests[0].num_elements == 16
        boundary = 4096
        for request in requests:
            last = request.addr + request.payload_bytes - 1
            assert request.addr // boundary == last // boundary
            # The protocol checker is the oracle: every emitted INCR burst
            # is AXI4-legal (<= 256 beats, no 4 KiB crossing).
            assert request.contiguous
            check_incr_burst_legal(request.addr, request.num_beats,
                                   request.beat_bytes)

    def test_write_flag_propagates(self, builder):
        stream = ContiguousStream(base=0, num_elements=8, elem_bytes=4)
        assert all(r.is_write for r in builder.contiguous(stream, is_write=True))


class TestBaseLowering:
    def test_strided_becomes_narrow_per_element(self, builder):
        stream = StridedStream(base=0, num_elements=10, elem_bytes=4, stride_elems=7)
        requests = builder.base_strided(stream, is_write=False)
        assert len(requests) == 10
        assert all(r.is_narrow and r.num_beats == 1 for r in requests)
        assert [r.addr for r in requests] == list(stream.element_addresses())

    def test_unit_stride_falls_back_to_contiguous(self, builder):
        stream = StridedStream(base=0, num_elements=64, elem_bytes=4, stride_elems=1)
        requests = builder.base_strided(stream, is_write=False)
        assert len(requests) == 1
        assert requests[0].contiguous

    def test_indexed_uses_resolved_addresses(self, builder):
        stream = IndirectStream(base=0x1000, num_elements=4, elem_bytes=4, index_base=0)
        indices = np.asarray([3, 0, 9, 1])
        requests = builder.base_indexed(stream, indices, is_write=False)
        assert [r.addr for r in requests] == [0x100C, 0x1000, 0x1024, 0x1004]

    def test_index_fetch_is_contiguous(self, builder):
        stream = IndirectStream(base=0, num_elements=100, elem_bytes=4, index_base=0x4000)
        requests = builder.index_fetch(stream)
        assert all(r.contiguous for r in requests)
        assert sum(r.payload_bytes for r in requests) == 400

    def test_lower_indexed_without_indices_rejected(self, builder):
        stream = IndirectStream(base=0, num_elements=4, elem_bytes=4, index_base=0)
        with pytest.raises(ConfigurationError):
            builder.lower(stream, is_write=False, packed=False)


class TestPackLowering:
    def test_strided_single_burst(self, builder):
        stream = StridedStream(base=0, num_elements=100, elem_bytes=4, stride_elems=5)
        requests = builder.pack_strided(stream, is_write=False)
        assert len(requests) == 1
        assert requests[0].mode is PackMode.STRIDED
        assert requests[0].num_beats == 13
        assert requests[0].pack.stride_elems == 5

    def test_strided_split_preserves_addresses(self, builder):
        stream = StridedStream(base=0x100, num_elements=5000, elem_bytes=4, stride_elems=3)
        requests = builder.pack_strided(stream, is_write=False)
        assert all(r.num_beats <= 256 for r in requests)
        assert sum(r.num_elements for r in requests) == 5000
        # The second burst must continue exactly where the first stopped.
        first = requests[0]
        expected = 0x100 + first.num_elements * stream.stride_bytes
        assert requests[1].addr == expected

    def test_indirect_split_advances_index_base(self, builder):
        stream = IndirectStream(base=0, num_elements=5000, elem_bytes=4,
                                index_base=0x8000, index_bytes=4)
        requests = builder.pack_indirect(stream, is_write=False)
        assert all(r.mode is PackMode.INDIRECT for r in requests)
        assert requests[1].index_base == 0x8000 + requests[0].num_elements * 4
        assert sum(r.num_elements for r in requests) == 5000

    def test_lower_dispatch(self, builder):
        strided = StridedStream(base=0, num_elements=8, elem_bytes=4, stride_elems=2)
        indirect = IndirectStream(base=0, num_elements=8, elem_bytes=4, index_base=0x40)
        assert builder.lower(strided, False, packed=True)[0].mode is PackMode.STRIDED
        assert builder.lower(indirect, False, packed=True)[0].mode is PackMode.INDIRECT
        contiguous = ContiguousStream(base=0, num_elements=8, elem_bytes=4)
        assert builder.lower(contiguous, False, packed=True)[0].contiguous


class TestProperties:
    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=4000),
           st.integers(min_value=0, max_value=40),
           st.sampled_from([4, 8, 16]))
    def test_pack_strided_conserves_elements_and_beats(self, elems, stride, elem_bytes):
        builder = RequestBuilder(BuilderConfig(bus_bytes=32))
        stream = StridedStream(base=0, num_elements=elems, elem_bytes=elem_bytes,
                               stride_elems=stride)
        requests = builder.pack_strided(stream, is_write=False)
        assert sum(r.num_elements for r in requests) == elems
        total_beats = sum(r.num_beats for r in requests)
        elems_per_beat = 32 // elem_bytes
        assert total_beats >= elems // elems_per_beat
        assert all(r.num_beats <= 256 for r in requests)

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=1 << 14))
    def test_contiguous_covers_stream_exactly(self, elems, base_words):
        builder = RequestBuilder(BuilderConfig(bus_bytes=32))
        stream = ContiguousStream(base=base_words * 4, num_elements=elems, elem_bytes=4)
        requests = builder.contiguous(stream, is_write=False)
        assert sum(r.num_elements for r in requests) == elems
        # Requests tile the stream without gaps or overlaps.
        cursor = stream.base
        for request in requests:
            assert request.addr == cursor
            cursor += request.payload_bytes
        assert cursor == stream.base + stream.total_bytes
