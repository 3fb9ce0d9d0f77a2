"""Stand-alone controller testbench with an ideal requestor.

This is the setup of the paper's parameter-sensitivity study (§III-E): the
AXI-Pack controller and banked memory driven by an *ideal requestor* that
issues a stream of burst requests back to back and consumes one R beat per
cycle.  The same harness backs most controller unit/integration tests, so
everything measured in Fig. 5 is measured with the same code path the tests
verify.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from repro.axi.monitor import ChannelMonitor
from repro.axi.port import AxiPort, AxiPortConfig
from repro.axi.signals import WBeat
from repro.axi.transaction import BusRequest
from repro.controller.adapter import AxiPackAdapter
from repro.controller.context import AdapterConfig
from repro.errors import SimulationError
from repro.mem.banked import BankedMemory, BankedMemoryConfig
from repro.mem.storage import MemoryStorage
from repro.sim.component import IDLE, Component, WakeHint
from repro.sim.datapath import DatapathMode
from repro.sim.engine import Engine
from repro.sim.policy import DataPolicy
from repro.sim.stats import StatsRegistry


@dataclass
class RequestOutcome:
    """What the requestor observed for one burst."""

    request: BusRequest
    issue_cycle: int = -1
    complete_cycle: int = -1
    beats_received: int = 0
    payload: bytes = b""

    @property
    def latency(self) -> int:
        """Cycles from issue to completion."""
        return self.complete_cycle - self.issue_cycle


class IdealRequestor(Component):
    """Issues a fixed list of bursts as fast as the port allows.

    Reads: one AR per cycle (as long as the outstanding limit allows), one R
    beat consumed per cycle.  Writes: one AW per cycle, then one W beat per
    cycle with the payload provided in ``write_payloads``.
    """

    def __init__(
        self,
        name: str,
        port: AxiPort,
        requests: Sequence[BusRequest],
        write_payloads: Optional[Dict[int, bytes]] = None,
        max_outstanding: int = 8,
    ) -> None:
        super().__init__(name)
        self.port = port
        self.pending: Deque[BusRequest] = deque(requests)
        self.write_payloads = write_payloads or {}
        self.max_outstanding = max_outstanding
        self.outcomes: Dict[int, RequestOutcome] = {
            request.txn_id: RequestOutcome(request) for request in requests
        }
        self._outstanding_reads: Deque[int] = deque()
        self._outstanding_writes: Deque[int] = deque()
        self._w_backlog: Deque[tuple] = deque()  # (txn_id, beat_index)
        self._read_payload_chunks: Dict[int, List[bytes]] = {}
        self.r_monitor = ChannelMonitor("R", port.bus_bytes)

    # ------------------------------------------------------------------ tick
    def tick(self, cycle: int) -> WakeHint:
        self._consume_r(cycle)
        self._consume_b(cycle)
        self._send_w()
        self._issue(cycle)
        # Everything the requestor does is gated on the port queues (its own
        # pushes included), so queue subscriptions cover every wake-up.
        return IDLE

    def wake_queues(self):
        return self.port.all_queues()

    def _issue(self, cycle: int) -> None:
        if not self.pending:
            return
        outstanding = len(self._outstanding_reads) + len(self._outstanding_writes)
        if outstanding >= self.max_outstanding:
            return
        request = self.pending[0]
        if request.is_write:
            if not self.port.aw.can_push():
                return
            self.port.aw.push(request)
            self._outstanding_writes.append(request.txn_id)
            for beat in range(request.num_beats):
                self._w_backlog.append((request, beat))
        else:
            if not self.port.ar.can_push():
                return
            self.port.ar.push(request)
            self._outstanding_reads.append(request.txn_id)
            self._read_payload_chunks[request.txn_id] = []
        self.pending.popleft()
        self.outcomes[request.txn_id].issue_cycle = cycle

    def _send_w(self) -> None:
        if not self._w_backlog or not self.port.w.can_push():
            return
        request, beat = self._w_backlog[0]
        payload = self.write_payloads.get(request.txn_id)
        if payload is None:
            raise SimulationError(
                f"no write payload registered for transaction {request.txn_id}"
            )
        start = beat * request.bus_bytes
        chunk = payload[start : start + request.bus_bytes]
        useful = request.beat_useful_bytes(beat)
        self.port.w.push(
            WBeat(data=bytes(chunk), useful_bytes=useful, last=beat == request.num_beats - 1)
        )
        self._w_backlog.popleft()

    def _consume_r(self, cycle: int) -> None:
        if not self.port.r.can_pop():
            return
        beat = self.port.r.pop()
        self.r_monitor.record_beat(beat.useful_bytes)
        outcome = self.outcomes[beat.txn_id]
        outcome.beats_received += 1
        self._read_payload_chunks[beat.txn_id].append(bytes(beat.data))
        if beat.last:
            outcome.complete_cycle = cycle
            outcome.payload = b"".join(self._read_payload_chunks.pop(beat.txn_id))
            if self._outstanding_reads and self._outstanding_reads[0] == beat.txn_id:
                self._outstanding_reads.popleft()
            else:
                self._outstanding_reads.remove(beat.txn_id)

    def _consume_b(self, cycle: int) -> None:
        if not self.port.b.can_pop():
            return
        beat = self.port.b.pop()
        outcome = self.outcomes[beat.txn_id]
        outcome.complete_cycle = cycle
        if self._outstanding_writes and self._outstanding_writes[0] == beat.txn_id:
            self._outstanding_writes.popleft()
        else:
            self._outstanding_writes.remove(beat.txn_id)

    # ----------------------------------------------------------------- state
    def busy(self) -> bool:
        return bool(
            self.pending
            or self._outstanding_reads
            or self._outstanding_writes
            or self._w_backlog
        )

    def done(self) -> bool:
        """True once every request has been issued and completed."""
        return not self.busy()


@dataclass
class TestbenchResult:
    """Aggregate measurements of one testbench run."""

    cycles: int
    r_beats: int
    r_useful_bytes: int
    r_utilization: float
    bank_conflicts: float
    outcomes: Dict[int, RequestOutcome] = field(default_factory=dict)


class ControllerTestbench:
    """Wires storage, banked memory, adapter and an ideal requestor together."""

    def __init__(
        self,
        adapter_config: Optional[AdapterConfig] = None,
        memory_config: Optional[BankedMemoryConfig] = None,
        memory_bytes: int = 1 << 22,
        port_config: Optional[AxiPortConfig] = None,
        data_policy: DataPolicy = DataPolicy.FULL,
        datapath: Optional[DatapathMode] = None,
    ) -> None:
        self.adapter_config = adapter_config or AdapterConfig()
        self.memory_config = memory_config or BankedMemoryConfig(
            num_ports=self.adapter_config.bus_words
        )
        self.storage = MemoryStorage(memory_bytes)
        self.stats = StatsRegistry()
        self.data_policy = data_policy
        self.port = AxiPort("tb", self.adapter_config.bus_bytes, port_config)
        self.memory = BankedMemory(
            "mem", self.memory_config, self.storage, self.stats,
            data_policy=data_policy,
        )
        self.adapter = AxiPackAdapter(
            "adapter", self.port, self.memory, self.adapter_config, self.stats,
            data_policy=data_policy, datapath=datapath,
        )

    def run(
        self,
        requests: Sequence[BusRequest],
        write_payloads: Optional[Dict[int, bytes]] = None,
        max_outstanding: int = 8,
        max_cycles: int = 5_000_000,
        event_driven: Optional[bool] = None,
    ) -> TestbenchResult:
        """Drive the given requests to completion and return measurements.

        ``event_driven`` selects the engine mode (None = the
        ``REPRO_SIM_ENGINE`` environment default); both modes produce
        identical measurements.
        """
        engine = Engine(event_driven=event_driven)
        requestor = IdealRequestor(
            "requestor", self.port, requests, write_payloads, max_outstanding
        )
        engine.add_component(requestor)
        engine.add_component(self.adapter)
        for queue in self.port.all_queues():
            engine.add_queue(queue)
        cycles = engine.run_until(requestor.done, max_cycles=max_cycles)
        # Drain a few extra cycles so late statistics settle.
        return TestbenchResult(
            cycles=cycles,
            r_beats=requestor.r_monitor.beats,
            r_useful_bytes=requestor.r_monitor.useful_bytes,
            r_utilization=requestor.r_monitor.utilization(cycles),
            bank_conflicts=self.stats.get("mem.bank_conflicts"),
            outcomes=requestor.outcomes,
        )
