"""Unit tests for the request regulator and the generic read/write pipes."""

import pytest

from repro.axi.pack import PackUserField
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.controller.context import AdapterConfig
from repro.controller.pipes import ReadPipe, WritePipe
from repro.controller.planners import plan_strided_beats
from repro.errors import SimulationError
from repro.sim.stats import StatsRegistry


def _strided_request(elems=16, stride=2):
    return BusRequest(addr=0, is_write=False, num_elements=elems, elem_bytes=4,
                      bus_bytes=32, pack=PackUserField.strided(stride))


def _config(queue_depth=4):
    return AdapterConfig(bus_bytes=32, queue_depth=queue_depth)


class TestRegulator:
    """The per-lane in-flight limit, as the pipes check it inline."""

    @staticmethod
    def _blocked_pipe():
        # Depth 1: one word in flight per lane, so the first issue fills
        # every lane and the second beat waits.
        pipe = ReadPipe("p", _config(queue_depth=1), StatsRegistry())
        request = _strided_request(16)
        pipe.accept(request, plan_strided_beats(request, 4, 8, 0))
        out = []
        pipe.issue(set(range(8)), out)
        assert len(out) == 8
        return pipe, out

    def test_full_lanes_block_further_issue(self):
        pipe, _ = self._blocked_pipe()
        more = []
        pipe.issue(set(range(8)), more)
        assert more == []

    def test_retire_frees_the_lane(self):
        pipe, out = self._blocked_pipe()
        _, state, slot = out[0].tag
        pipe.take_response(state, slot, bytes(4))
        more = []
        pipe.issue(set(range(8)), more)
        assert [word.port for word in more] == [slot.port]

    def test_underflow_raises(self):
        pipe, out = self._blocked_pipe()
        _, state, slot = out[0].tag
        pipe.take_response(state, slot, bytes(4))
        with pytest.raises(SimulationError):
            pipe.take_response(state, slot, bytes(4))

    def test_reset_clears_in_flight_counts(self):
        pipe, _ = self._blocked_pipe()
        pipe.reset()
        request = _strided_request(8)
        pipe.accept(request, plan_strided_beats(request, 4, 8, 0))
        out = []
        pipe.issue(set(range(8)), out)
        assert len(out) == 8


class TestReadPipe:
    def test_issue_respects_free_ports(self):
        pipe = ReadPipe("p", _config(), StatsRegistry())
        request = _strided_request(8)
        pipe.accept(request, plan_strided_beats(request, 4, 8, 0))
        out = []
        pipe.issue({0, 1, 2}, out)
        # In-order issue stops at the first unavailable port (port 3).
        assert len(out) == 3
        assert [r.port for r in out] == [0, 1, 2]

    def test_issue_respects_regulator(self):
        pipe = ReadPipe("p", _config(queue_depth=1), StatsRegistry())
        request = _strided_request(16)
        pipe.accept(request, plan_strided_beats(request, 4, 8, 0))
        out = []
        pipe.issue(set(range(8)), out)
        assert len(out) == 8  # one per lane
        out2 = []
        pipe.issue(set(range(8)), out2)
        assert out2 == []  # regulator full until responses retire

    def test_beat_completion_and_packing(self):
        pipe = ReadPipe("p", _config(), StatsRegistry())
        request = _strided_request(8)
        pipe.accept(request, plan_strided_beats(request, 4, 8, 0))
        out = []
        pipe.issue(set(range(8)), out)
        assert pipe.pop_ready_beat() is None
        for word in out:
            _, state, slot = word.tag
            pipe.take_response(state, slot, bytes([slot.port] * 4))
        plan, data, req, resp = pipe.pop_ready_beat()
        assert req is request
        assert plan.useful_bytes == 32
        assert data == bytes(sum([[p] * 4 for p in range(8)], []))
        assert resp is Resp.OKAY

    def test_beats_emitted_in_order(self):
        pipe = ReadPipe("p", _config(queue_depth=8), StatsRegistry())
        request = _strided_request(16)
        pipe.accept(request, plan_strided_beats(request, 4, 8, 0))
        out = []
        pipe.issue(set(range(8)), out)
        pipe.issue(set(range(8)), out)
        assert len(out) == 16
        # Answer the second beat's words first: nothing can be emitted yet.
        for word in out[8:]:
            _, state, slot = word.tag
            pipe.take_response(state, slot, b"\x00" * 4)
        assert pipe.pop_ready_beat() is None
        for word in out[:8]:
            _, state, slot = word.tag
            pipe.take_response(state, slot, b"\x00" * 4)
        first = pipe.pop_ready_beat()
        second = pipe.pop_ready_beat()
        assert first[0].beat_index == 0 and second[0].beat_index == 1

    def test_r_beat_wrapper(self):
        pipe = ReadPipe("p", _config(), StatsRegistry())
        request = _strided_request(4)
        pipe.accept(request, plan_strided_beats(request, 4, 8, 0))
        out = []
        pipe.issue(set(range(8)), out)
        for word in out:
            _, state, slot = word.tag
            pipe.take_response(state, slot, b"\xAA" * 4)
        beat = pipe.pop_ready_r_beat()
        assert beat.txn_id == request.txn_id
        assert beat.useful_bytes == 16
        assert beat.last

    def test_busy_tracking(self):
        pipe = ReadPipe("p", _config(), StatsRegistry())
        assert not pipe.busy()
        request = _strided_request(8)
        pipe.accept(request, plan_strided_beats(request, 4, 8, 0))
        assert pipe.busy()
        pipe.reset()
        assert not pipe.busy()


class TestWritePipe:
    def test_write_flow_and_b_response(self):
        config = _config()
        pipe = WritePipe("w", config, StatsRegistry())
        request = BusRequest(addr=0, is_write=True, num_elements=8, elem_bytes=4,
                             bus_bytes=32, pack=PackUserField.strided(2))
        pipe.accept(request, iter(plan_strided_beats(request, 4, 8, 0)))
        pipe.take_w_beat(bytes(range(32)))
        out = []
        pipe.issue(set(range(8)), out)
        assert len(out) == 8
        assert all(word.is_write and word.data is not None for word in out)
        assert pipe.pop_ready_b_beat() is None
        for word in out:
            _, state, slot = word.tag
            pipe.take_ack(state, slot)
        beat = pipe.pop_ready_b_beat()
        assert beat is not None and beat.txn_id == request.txn_id
        assert not pipe.busy()

    def test_word_write_data_matches_payload_slots(self):
        pipe = WritePipe("w", _config(), StatsRegistry())
        request = BusRequest(addr=0, is_write=True, num_elements=8, elem_bytes=4,
                             bus_bytes=32, pack=PackUserField.strided(1))
        pipe.accept(request, iter(plan_strided_beats(request, 4, 8, 0)))
        payload = bytes(range(32))
        pipe.take_w_beat(payload)
        out = []
        pipe.issue(set(range(8)), out)
        for word in out:
            _, _, slot = word.tag
            assert word.data == payload[slot.offset:slot.offset + 4]
