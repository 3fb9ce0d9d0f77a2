"""Shared fixtures for the test suite."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.axi.builder import BuilderConfig, RequestBuilder
from repro.controller.context import AdapterConfig
from repro.controller.testbench import ControllerTestbench
from repro.mem.banked import BankedMemory, BankedMemoryConfig
from repro.mem.storage import MemoryStorage
from repro.sim.component import Component
from repro.system.config import SystemConfig


@pytest.fixture
def storage() -> MemoryStorage:
    """A 1 MiB memory image."""
    return MemoryStorage(1 << 20)


@pytest.fixture
def builder() -> RequestBuilder:
    """Request builder for the default 256-bit bus."""
    return RequestBuilder(BuilderConfig(bus_bytes=32))


@pytest.fixture
def small_system_config() -> SystemConfig:
    """Paper-like system configuration with a small memory."""
    return SystemConfig(memory_bytes=1 << 22)


def make_testbench(num_banks: int = 17, queue_depth: int = 4,
                   bus_bytes: int = 32, conflict_free: bool = False,
                   memory_bytes: int = 1 << 21) -> ControllerTestbench:
    """Controller testbench helper used across controller tests."""
    adapter = AdapterConfig(bus_bytes=bus_bytes, queue_depth=queue_depth)
    memory = BankedMemoryConfig(
        num_ports=adapter.bus_words,
        num_banks=num_banks,
        request_queue_depth=queue_depth,
        response_queue_depth=queue_depth,
        conflict_free=conflict_free,
    )
    return ControllerTestbench(adapter, memory, memory_bytes=memory_bytes)


@pytest.fixture
def testbench() -> ControllerTestbench:
    """Default 17-bank controller testbench."""
    return make_testbench()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for test data."""
    return np.random.default_rng(1234)


class BankStageHarness(Component):
    """Drives a :class:`BankedMemory` bank stage the way the adapter does.

    Per cycle: pop one response per port (unless ``route`` is False, which
    wedges every port), issue the next pending request on every port whose
    request FIFO has room, then run the bank stage.  Word moves count as
    engine activity and re-wake the harness, exactly like the controller.
    """

    def __init__(self, memory: BankedMemory, requests=(), route: bool = True):
        super().__init__("harness")
        self.memory = memory
        self.route = route
        self.pending = [deque() for _ in range(memory.config.num_ports)]
        for request in requests:
            self.pending[request.port].append(request)
        self.responses = {port: [] for port in range(memory.config.num_ports)}

    def tick(self, cycle: int):
        memory = self.memory
        moved = 0
        if self.route:
            for port, fifo in enumerate(memory.response_fifos):
                if fifo.items:
                    self.responses[port].append(fifo.items.popleft())
                    memory.waiting -= 1
                    moved += 1
        for port, pending in enumerate(self.pending):
            fifo = memory.request_fifos[port]
            if pending and len(fifo.items) < fifo.depth:
                memory.issued.append(pending.popleft())
        moved += memory.tick(cycle)
        if moved:
            if self._engine is not None:
                self._engine._activity += moved
            return cycle + 1
        return memory.next_ready if memory.next_ready > cycle else cycle + 1

    def busy(self) -> bool:
        return any(self.pending) or self.memory.busy()


@pytest.fixture
def bank_stage():
    """Factory for :class:`BankStageHarness` (a bank stage without adapter)."""
    return BankStageHarness
