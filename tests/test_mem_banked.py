"""Unit tests for the cycle-level banked memory (the controller's bank stage)."""

from collections import deque

import numpy as np
import pytest

from repro.axi.builder import BuilderConfig, RequestBuilder
from repro.axi.stream import StridedStream
from repro.controller.testbench import ControllerTestbench
from repro.errors import DeadlockError
from repro.mem.banked import BankedMemory, BankedMemoryConfig
from repro.mem.storage import MemoryStorage
from repro.mem.words import BankAddressMap, WordRequest
from repro.sim.component import IDLE
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry


def make_memory(num_banks=17, num_ports=8, latency=1, conflict_free=False):
    storage = MemoryStorage(1 << 16)
    config = BankedMemoryConfig(num_ports=num_ports, num_banks=num_banks,
                                latency=latency, conflict_free=conflict_free)
    stats = StatsRegistry()
    memory = BankedMemory("mem", config, storage, stats)
    return memory, storage, stats


def run_requests(bank_stage, memory, requests, max_cycles=1000):
    """Issue ``requests`` through a harness until every response is routed."""
    harness = bank_stage(memory, requests)
    engine = Engine()
    engine.add_component(harness)
    cycles = engine.run_until(lambda: not harness.busy(), max_cycles=max_cycles)
    return harness.responses, cycles, engine


class TestFunctional:
    def test_read_returns_stored_word(self, bank_stage):
        memory, storage, _ = make_memory()
        storage.write_array(0x40, np.asarray([0xDEADBEEF], dtype=np.uint32))
        responses, _, _ = run_requests(bank_stage, memory, [
            WordRequest(port=0, word_addr=0x10, is_write=False, tag="t")
        ])
        # Read responses carry the word payload as raw bytes.
        data = np.frombuffer(responses[0][0].data, dtype=np.uint32)[0]
        assert data == 0xDEADBEEF
        assert responses[0][0].tag == "t"

    def test_write_updates_storage(self, bank_stage):
        memory, storage, _ = make_memory()
        word = np.asarray([1234], dtype=np.uint32).view(np.uint8)
        run_requests(bank_stage, memory, [
            WordRequest(port=3, word_addr=5, is_write=True, data=word, tag=None)
        ])
        assert storage.read_array(20, 1, np.uint32)[0] == 1234

    def test_write_without_data_rejected(self, bank_stage):
        memory, _, _ = make_memory()
        with pytest.raises(Exception):
            run_requests(bank_stage, memory, [
                WordRequest(port=0, word_addr=0, is_write=True, data=None)
            ])


class TestTimingAndConflicts:
    def test_parallel_ports_no_conflict(self, bank_stage):
        memory, _, stats = make_memory(num_banks=17)
        requests = [WordRequest(port=p, word_addr=p, is_write=False) for p in range(8)]
        _, cycles, _ = run_requests(bank_stage, memory, requests)
        assert stats.get("mem.bank_conflicts") == 0
        assert cycles <= 6  # one access cycle + latency + FIFO hops

    def test_same_bank_conflicts_serialize(self, bank_stage):
        memory, _, stats = make_memory(num_banks=16)
        # All eight ports target bank 0 in the same cycle.
        requests = [WordRequest(port=p, word_addr=16 * p, is_write=False) for p in range(8)]
        _, cycles, _ = run_requests(bank_stage, memory, requests)
        assert stats.get("mem.bank_conflicts") > 0
        assert cycles >= 8

    @pytest.mark.parametrize("num_banks", [11, 16, 17])
    @pytest.mark.parametrize("words", [(0, 1), (3, 19), (5, 37), (16, 32), (8, 25)])
    def test_conflicts_follow_the_bank_address_map(self, bank_stage, num_banks, words):
        # Two ports access one word each in the same cycle: they conflict
        # exactly when the address map puts both words in one bank.
        memory, _, stats = make_memory(num_banks=num_banks)
        amap = BankAddressMap(num_banks=num_banks, word_bytes=memory.config.word_bytes)
        same_bank = len({amap.decompose(w * amap.word_bytes)[0] for w in words}) == 1
        requests = [WordRequest(port=p, word_addr=w, is_write=False)
                    for p, w in enumerate(words)]
        run_requests(bank_stage, memory, requests)
        assert (stats.get("mem.bank_conflicts") > 0) is same_bank

    def test_conflict_free_mode_ignores_conflicts(self, bank_stage):
        memory, _, stats = make_memory(num_banks=16, conflict_free=True)
        requests = [WordRequest(port=p, word_addr=16 * p, is_write=False) for p in range(8)]
        _, cycles, _ = run_requests(bank_stage, memory, requests)
        assert stats.get("mem.bank_conflicts") == 0
        assert cycles <= 6

    def test_per_port_responses_in_order(self, bank_stage):
        memory, _, _ = make_memory(num_banks=17)
        requests = [
            WordRequest(port=0, word_addr=addr, is_write=False, tag=addr)
            for addr in (5, 22, 39, 1)
        ]
        responses, _, _ = run_requests(bank_stage, memory, requests)
        assert [r.tag for r in responses[0]] == [5, 22, 39, 1]

    def test_latency_is_respected(self, bank_stage):
        memory, _, _ = make_memory(latency=5)
        responses, cycles, _ = run_requests(bank_stage, memory, [
            WordRequest(port=0, word_addr=0, is_write=False)
        ])
        assert len(responses[0]) == 1
        assert cycles >= 6

    def test_access_counters(self, bank_stage):
        memory, _, stats = make_memory()
        word = np.zeros(4, dtype=np.uint8)
        run_requests(bank_stage, memory, [
            WordRequest(port=0, word_addr=0, is_write=False),
            WordRequest(port=1, word_addr=1, is_write=True, data=word),
        ])
        assert stats.get("mem.word_reads") == 1
        assert stats.get("mem.word_writes") == 1
        assert stats.get("mem.bank_accesses") == 2

    def test_reset_clears_state(self):
        memory, _, _ = make_memory()
        memory.issued.append(WordRequest(port=0, word_addr=0, is_write=False))
        memory.tick(0)
        assert memory.busy()
        memory.reset()
        assert not memory.busy()
        assert memory.fifos()[0].is_empty()


class TestWordFifoContract:
    """The visibility, capacity and wake rules of the private word FIFOs."""

    def test_issued_word_is_granted_from_the_next_cycle(self):
        memory, _, stats = make_memory()
        memory.issued.append(WordRequest(port=2, word_addr=3, is_write=False))
        assert memory.tick(0) == 1  # the append into the request FIFO
        assert stats.get("mem.bank_accesses") == 0
        assert memory.request_fifos[2].occupancy == 1
        assert memory.tick(1) == 1  # the grant
        assert stats.get("mem.bank_accesses") == 1
        assert memory.next_ready == 2

    def test_delivered_response_waits_for_the_route(self):
        memory, _, _ = make_memory(latency=3)
        request = WordRequest(port=0, word_addr=1, is_write=False)
        memory.issued.append(request)
        memory.tick(0)
        memory.tick(1)
        # Nothing matures before cycle 4: delivery is skipped, and the
        # earliest maturity is what the controller sleeps until.
        assert memory.tick(2) == 0
        assert memory.next_ready == 4
        assert memory.tick(4) == 1
        assert memory.waiting == 1
        assert list(memory.response_fifos[0].items) == [request]
        assert memory.next_ready == IDLE

    def test_full_request_fifo_is_counted_until_a_pop_frees_it(self):
        memory, _, _ = make_memory(num_ports=2)
        depth = memory.config.request_queue_depth
        # Saturate port 1's in-flight path so arbitration holds its words.
        limit = 4 * memory.config.response_queue_depth
        memory._in_flight[1].extend((10**9, None) for _ in range(limit))
        memory.next_ready = 10**9
        for cycle in range(depth):
            memory.issued.append(WordRequest(port=1, word_addr=cycle,
                                             is_write=False))
            memory.tick(cycle)
        assert memory.full_ports == 1
        assert memory.request_fifos[1].occupancy == depth
        memory._in_flight[1].clear()
        memory.next_ready = IDLE
        memory.tick(depth)  # one grant frees the port at once
        assert memory.full_ports == 0
        assert memory.request_fifos[1].occupancy == depth - 1

    def test_in_flight_accesses_per_port_are_bounded(self, bank_stage):
        memory, _, _ = make_memory(latency=200)
        requests = [
            WordRequest(port=0, word_addr=17 * index, is_write=False)
            for index in range(40)
        ]
        harness = bank_stage(memory, requests, route=False)
        for cycle in range(60):
            harness.tick(cycle)
            assert len(memory._in_flight[0]) <= 4 * memory.config.response_queue_depth
        assert len(memory._in_flight[0]) == 4 * memory.config.response_queue_depth

    def test_every_push_and_pop_counts_as_engine_activity(self, bank_stage):
        memory, _, _ = make_memory()
        requests = [WordRequest(port=p % 8, word_addr=p, is_write=False)
                    for p in range(20)]
        _, _, engine = run_requests(bank_stage, memory, requests)
        # Issue push, grant pop, delivery push and route pop per word.
        assert engine._activity == 4 * len(requests)


class TestHangDiagnosis:
    def test_wedged_port_is_named_in_the_deadlock_diagnosis(self):
        bench = ControllerTestbench()
        # Wedge word port 3: the adapter's route phase never sees its
        # response FIFO, so nothing ever pops it.
        bench.adapter._responses[3] = deque()
        builder = RequestBuilder(BuilderConfig(bus_bytes=32))
        stream = StridedStream(base=0, num_elements=64, elem_bytes=4,
                               stride_elems=1)
        with pytest.raises(DeadlockError) as excinfo:
            bench.run(builder.pack_strided(stream, is_write=False))
        diagnosis = excinfo.value.diagnosis
        assert "adapter" in diagnosis.busy_components
        stuck = {queue.name: queue for queue in diagnosis.queues}
        depth = bench.memory_config.response_queue_depth
        assert stuck["mem.rsp[3]"].occupancy == depth
        assert stuck["mem.rsp[3]"].depth == depth
        assert stuck["mem.rsp[3]"].waiters == ("adapter",)
        assert "mem.rsp[3]" in diagnosis.render()
