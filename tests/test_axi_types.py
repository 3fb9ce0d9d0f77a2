"""Unit tests for basic AXI4 types and legality rules."""

import pytest

from repro.axi.types import (
    AXI4_MAX_BURST_LEN,
    BurstType,
    Resp,
    check_burst_len_legal,
    check_incr_burst_legal,
)
from repro.axi.pack import PackUserField
from repro.axi.transaction import BusRequest
from repro.errors import ProtocolError


class TestBurstLegality:
    def test_max_length_is_256(self):
        assert AXI4_MAX_BURST_LEN == 256
        check_burst_len_legal(256)
        with pytest.raises(ProtocolError):
            check_burst_len_legal(257)

    def test_zero_beats_rejected(self):
        with pytest.raises(ProtocolError):
            check_burst_len_legal(0)

    def test_incr_inside_page_ok(self):
        check_incr_burst_legal(addr=0x0, num_beats=128, beat_bytes=32)

    def test_incr_crossing_4k_rejected(self):
        with pytest.raises(ProtocolError):
            check_incr_burst_legal(addr=0xF80, num_beats=8, beat_bytes=32)

    def test_incr_up_to_boundary_ok(self):
        check_incr_burst_legal(addr=0xF00, num_beats=8, beat_bytes=32)


class TestIncrBurstLegalityTable:
    """``check_incr_burst_legal`` is the oracle the 4 KiB split test of the
    request builder relies on, so its edges are pinned case by case."""

    @pytest.mark.parametrize("addr,num_beats,beat_bytes", [
        (0x0000, 128, 32),      # exactly one page, from its first byte
        (0x0FFF, 1, 1),         # the last byte of a page
        (0x1000, 256, 16),      # 256 beats filling the second page exactly
        (0x0F00, 8, 32),        # ends on the page's last byte
        (0x1_2340, 1, 4),       # one beat inside a high page
    ])
    def test_legal(self, addr, num_beats, beat_bytes):
        check_incr_burst_legal(addr, num_beats, beat_bytes)

    @pytest.mark.parametrize("addr,num_beats,beat_bytes,reason", [
        (0x0FFF, 1, 2, "4KiB boundary"),     # one byte into the next page
        (0x1F00, 9, 32, "4KiB boundary"),    # one beat too many
        (0x0000, 256, 32, "4KiB boundary"),  # legal length, 8 KiB long
        (0x0000, 257, 1, "256-beat limit"),
        (0x0000, 0, 4, "at least one beat"),
    ])
    def test_illegal(self, addr, num_beats, beat_bytes, reason):
        with pytest.raises(ProtocolError, match=reason):
            check_incr_burst_legal(addr, num_beats, beat_bytes)


class TestBeatSize:
    """``BusRequest.beat_bytes`` is the AxSIZE granularity: the element for
    narrow transfers, the whole bus for full-width and packed bursts."""

    @pytest.mark.parametrize("elem_bytes", [1, 2, 4, 8])
    def test_beat_size_by_transfer_kind(self, elem_bytes):
        common = dict(addr=0, is_write=False, num_elements=4,
                      elem_bytes=elem_bytes, bus_bytes=32)
        narrow = BusRequest(**common)
        full = BusRequest(contiguous=True, **common)
        packed = BusRequest(pack=PackUserField.strided(3), **common)
        assert narrow.beat_bytes == elem_bytes
        assert full.beat_bytes == packed.beat_bytes == 32
        assert narrow.num_beats == 4
        assert full.num_beats == packed.num_beats == -(-4 * elem_bytes // 32)


class TestEnums:
    def test_burst_encoding(self):
        assert BurstType.FIXED.encoding == 0
        assert BurstType.INCR.encoding == 1
        assert BurstType.WRAP.encoding == 2

    def test_resp_values(self):
        assert Resp.OKAY.value == 0
        assert Resp.SLVERR.value == 2
