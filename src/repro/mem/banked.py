"""Cycle-level multi-banked SRAM: the bank stage of the AXI-Pack controller.

This models the memory the AXI-Pack controller sits in front of (paper
§II-C): ``num_ports`` word-wide request ports connected through an
``n x m`` crossbar to ``num_banks`` single-ported SRAM banks.  Each bank
serves one word access per cycle; when several ports target the same bank in
the same cycle, all but one stall — those stalls are the bank conflicts that
limit the utilization curves of Fig. 5.

The memory is not an engine component of its own.  Like the hardware, where
the converters issue word accesses straight onto the bank crossbar, it is
the *bank stage* of :class:`~repro.controller.adapter.AxiPackAdapter`: the
adapter's tick ends by calling :meth:`BankedMemory.tick` for the same
cycle.  Adapter and banks talk through per-port :class:`WordFifo` pairs that
only the adapter's issue/route phases and the bank stage touch, so no word
passes through the engine's dirty list, commits or waiter wakes.  The timing
is that of two registered FIFOs:

* a word the adapter issues at cycle *c* lands in :attr:`BankedMemory.issued`
  and is appended to its request FIFO after the grant phase of *c*, so it
  can be granted from *c + 1*;
* a response the bank delivers at *c* can be routed from *c + 1*, because
  the adapter routes before the bank stage runs;
* a FIFO's depth counts every word in it, and a pop frees space at once.

Arbitration is *batched*: every cycle the head-of-line requests of all ports
are gathered into claim lists and winners picked per bank.  The grants are
exactly those of the scalar reference arbiter: per bank, the claimant with
the smallest ``(port - last_grant - 1) % num_ports`` wins (all claimants win
under ``conflict_free``).  Each port contributes at most one request per
cycle, so per-port state is independent of the order banks are resolved in;
a cycle whose claimants all hit distinct banks grants them all without
building per-bank claim lists.  The property test in
``tests/test_data_policy.py`` pins the equivalence.  Granted requests double
as their own responses (FULL reads deposit the word into the request's
``data`` field).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.axi.faults import BusFaultPlan
from repro.axi.types import Resp, worst_resp
from repro.errors import ConfigurationError
from repro.mem.storage import MemoryStorage
from repro.mem.words import BankAddressMap, WordRequest
from repro.sim.component import IDLE
from repro.sim.policy import DataPolicy
from repro.sim.stats import StatsRegistry
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class BankedMemoryConfig:
    """Static parameters of the banked memory.

    The paper's evaluation systems use eight 32-bit word ports backed by 17
    banks with single-cycle access latency.
    """

    num_ports: int = 8
    num_banks: int = 17
    word_bytes: int = 4
    latency: int = 1
    request_queue_depth: int = 4
    response_queue_depth: int = 4
    conflict_free: bool = False  #: True models the "ideal" memory of Fig. 5

    def __post_init__(self) -> None:
        check_positive("num_ports", self.num_ports)
        check_positive("num_banks", self.num_banks)
        check_positive("word_bytes", self.word_bytes)
        check_positive("latency", self.latency)

    @property
    def address_map(self) -> BankAddressMap:
        """The word-to-bank mapping implied by this configuration."""
        return BankAddressMap(num_banks=self.num_banks, word_bytes=self.word_bytes)


class WordFifo:
    """One direction of one word port: a bounded FIFO of word records.

    ``items`` holds :class:`~repro.mem.words.WordRequest` records oldest
    first (a granted request doubles as its own response).  ``depth`` bounds
    ``len(items)``; the writer checks for room before appending.  The FIFO is
    private to the controller and never registered with the engine; ``name``,
    :attr:`occupancy` and :meth:`is_empty` let
    :meth:`~repro.sim.engine.Engine.diagnose` report it like an engine queue.
    """

    __slots__ = ("name", "depth", "items")

    def __init__(self, name: str, depth: int) -> None:
        self.name = name
        self.depth = check_positive("queue depth", depth)
        self.items: Deque[WordRequest] = deque()

    @property
    def occupancy(self) -> int:
        """Number of words in the FIFO."""
        return len(self.items)

    def is_empty(self) -> bool:
        """Return True if the FIFO holds no word."""
        return not self.items


class BankedMemory:
    """The banked SRAM behind one adapter, stepped as its bank stage.

    The adapter appends the :class:`~repro.mem.words.WordRequest` items it
    issues at a cycle to :attr:`issued` (at most one per port, and only on a
    port whose request FIFO has room) and pops responses from
    ``response_fifos[port]``.  Responses on one port always return in request
    order (fixed bank latency plus in-order issue per port).

    Under ``DataPolicy.ELIDE`` the banks never touch the backing
    :class:`MemoryStorage`: accesses are granted, counted and timed exactly
    as in FULL mode, but read responses carry no bytes and writes discard
    their (absent) payloads.
    """

    def __init__(
        self,
        name: str,
        config: BankedMemoryConfig,
        storage: MemoryStorage,
        stats: Optional[StatsRegistry] = None,
        data_policy: DataPolicy = DataPolicy.FULL,
        bus_faults: Optional[BusFaultPlan] = None,
    ) -> None:
        self.name = name
        self.config = config
        self.storage = storage
        self.stats = stats if stats is not None else StatsRegistry()
        self.data_policy = data_policy
        self._elide = data_policy.elides_data
        # Fault-injection choke point: prefiltered by port name so the plan
        # is consulted per *granted word* only when it could ever fire here.
        self._fault_plan = (
            bus_faults if bus_faults is not None
            and bus_faults.touches_port(name) else None
        )
        self.address_map = config.address_map
        self.request_fifos = [
            WordFifo(f"{name}.req[{port}]", config.request_queue_depth)
            for port in range(config.num_ports)
        ]
        self.response_fifos = [
            WordFifo(f"{name}.rsp[{port}]", config.response_queue_depth)
            for port in range(config.num_ports)
        ]
        #: words the adapter issued this cycle; :meth:`tick` moves them into
        #: their request FIFOs after the grant phase
        self.issued: List[WordRequest] = []
        #: words in the request FIFOs
        self.queued = 0
        #: request FIFOs holding ``request_queue_depth`` words
        self.full_ports = 0
        #: words in the response FIFOs, not yet routed by the adapter
        self.waiting = 0
        #: earliest cycle at which a head-of-line in-flight access matures
        #: (IDLE when nothing is in flight); at or before the current cycle
        #: only while a full response FIFO holds a matured access back
        self.next_ready: float = IDLE
        # Prebound per-port containers (stable across reset).
        self._requests = [fifo.items for fifo in self.request_fifos]
        self._responses = [fifo.items for fifo in self.response_fifos]
        # In-flight accesses: (ready_cycle, request) kept in issue order per port.
        self._in_flight: List[Deque[Tuple[int, WordRequest]]] = [
            deque() for _ in range(config.num_ports)
        ]
        self._bank_last_grant: List[int] = [config.num_ports - 1] * config.num_banks
        #: writable view of the memory image for single-word accesses — the
        #: FULL-policy word read/write fast path (aliases storage._data)
        self._mem_view = storage._data.data
        #: number of whole words in the image — the word-granular range
        #: check is two integer compares, policy-independent by design
        self._num_words = storage.size_bytes // config.word_bytes
        # Prebound hot-path counters (see repro.sim.stats).
        self._c_conflicts = self.stats.counter("mem.bank_conflicts")
        self._c_accesses = self.stats.counter("mem.bank_accesses")
        self._c_writes = self.stats.counter("mem.word_writes")
        self._c_reads = self.stats.counter("mem.word_reads")

    # ------------------------------------------------------------------ tick
    def tick(self, cycle: int) -> int:
        """Run the bank stage for ``cycle``; return the words it moved.

        Delivers matured accesses into the response FIFOs, grants the
        request-FIFO heads, then appends this cycle's :attr:`issued` words
        to their request FIFOs.  The count (deliveries + grants + appends) is
        the number of FIFO pushes and pops, which the caller adds to the
        engine's activity counter.
        """
        moved = 0
        if cycle >= self.next_ready:
            moved = self._deliver_responses(cycle)
        if self.queued:
            moved += self._accept_requests(cycle)
        issued = self.issued
        if issued:
            requests = self._requests
            depth = self.config.request_queue_depth
            for request in issued:
                fifo = requests[request.port]
                fifo.append(request)
                if len(fifo) == depth:
                    self.full_ports += 1
            count = len(issued)
            self.queued += count
            moved += count
            del issued[:]
        return moved

    def _deliver_responses(self, cycle: int) -> int:
        delivered = 0
        next_ready = IDLE
        responses = self._responses
        depth = self.config.response_queue_depth
        for port, in_flight in enumerate(self._in_flight):
            if not in_flight:
                continue
            fifo = responses[port]
            room = depth - len(fifo)
            while room and in_flight[0][0] <= cycle:
                fifo.append(in_flight.popleft()[1])
                delivered += 1
                room -= 1
                if not in_flight:
                    break
            else:
                # Stopped at a full FIFO or an unmatured head, which now
                # bounds the next delivery.
                ready = in_flight[0][0]
                if ready < next_ready:
                    next_ready = ready
        self.next_ready = next_ready
        self.waiting += delivered
        return delivered

    def _accept_requests(self, cycle: int) -> int:
        """Arbitrate the request-FIFO heads and grant the winners; return
        how many were granted."""
        config = self.config
        in_flight_limit = 4 * config.response_queue_depth
        requests = self._requests
        all_in_flight = self._in_flight
        # Gather this cycle's head-of-line claimants: every port with a
        # request whose response path is not saturated (holding issue there
        # bounds the in-flight state).
        ports = []
        words = []
        for port, fifo in enumerate(requests):
            if fifo and len(all_in_flight[port]) < in_flight_limit:
                ports.append(port)
                words.append(fifo[0].word_addr)
        if not ports:
            return 0
        if not config.conflict_free:
            num_banks = config.num_banks
            last_grant = self._bank_last_grant
            banks = [word % num_banks for word in words]
            if len(banks) == len(set(banks)):
                # Distinct banks: every claimant wins its bank uncontested.
                for bank, port in zip(banks, ports):
                    last_grant[bank] = port
            else:
                ports = self._arbitrate(ports, banks)
        # Grant phase: pop each winner's request and start the bank access.
        # Per-port state is independent, so grant order cannot affect
        # simulated behaviour.  Single-word storage accesses go straight
        # through a cached writable view of the memory image — the same bytes
        # `storage.read_bytes`/`storage.write` would touch, minus the
        # per-call layers.
        elide = self._elide
        word_bytes = config.word_bytes
        num_words = self._num_words
        fault_plan = self._fault_plan
        name = self.name
        view = self._mem_view
        depth = config.request_queue_depth
        writes = 0
        ready = cycle + config.latency
        next_ready = self.next_ready
        for port in ports:
            fifo = requests[port]
            if len(fifo) == depth:
                self.full_ports -= 1
            request = fifo.popleft()
            # Word-granular range check in *both* policies (two integer
            # compares): a bad address completes with SLVERR in-band and
            # never touches the storage, so FULL and ELIDE stay bit-equal
            # on faulting programs too.
            serve = 0 <= request.word_addr < num_words
            if not serve:
                request.resp = Resp.SLVERR
            port_ready = ready
            if fault_plan is not None:
                # Injection choke point (consulted before the storage
                # access: an injected error means the bank did *not*
                # perform the access).  Word accesses carry no txn serial,
                # so plans targeting this path key by address range.
                fault = fault_plan.first_match(
                    name, None, request.word_addr * word_bytes
                )
                if fault is not None:
                    kind = fault.kind
                    if kind == "lost":
                        if request.is_write:
                            writes += 1
                        continue  # the response simply never comes back
                    if kind == "stall":
                        port_ready = ready + fault.stall_cycles
                    else:
                        request.resp = worst_resp(request.resp, fault.resp)
                        serve = False
            if elide:
                # Timing-only fast path: no storage access at all.
                if request.is_write:
                    writes += 1
            else:
                if request.is_write:
                    data = request.data
                    if data is None:
                        raise ConfigurationError("write word request without data")
                    if serve:
                        byte_addr = request.word_addr * word_bytes
                        end = byte_addr + word_bytes
                        if isinstance(data, (bytes, bytearray, memoryview)):
                            view[byte_addr:end] = data
                        else:
                            self.storage.write(byte_addr, data)
                    writes += 1
                elif serve:
                    byte_addr = request.word_addr * word_bytes
                    request.data = view[byte_addr : byte_addr + word_bytes].tobytes()
            in_flight = all_in_flight[port]
            if not in_flight and port_ready < next_ready:
                next_ready = port_ready
            in_flight.append((port_ready, request))
        self.next_ready = next_ready
        granted = len(ports)
        self.queued -= granted
        self._c_accesses.value += granted
        self._c_writes.value += writes
        self._c_reads.value += granted - writes
        return granted

    def _arbitrate(self, ports: List[int], banks: List[int]) -> List[int]:
        """Round-robin winners of a cycle in which some banks are contested."""
        claims: dict = {}
        for index, bank in enumerate(banks):
            claims.setdefault(bank, []).append(ports[index])
        last_grant = self._bank_last_grant
        num_ports = self.config.num_ports
        granted = []
        # Bank keys are unique and per-port state is independent, so any
        # grant order is behaviour-identical — but walk banks in sorted
        # order so the walk is deterministic by construction, not by
        # insertion-order accident.
        for bank, claimants in sorted(claims.items()):
            if len(claimants) == 1:
                port = claimants[0]
            else:
                # The claimant round-robin-closest after the bank's last
                # grant wins (distinct keys, so the minimum is unique).
                last = last_grant[bank]
                port = min(
                    claimants,
                    key=lambda p, _last=last: (p - _last - 1) % num_ports,
                )
                self._c_conflicts.value += len(claimants) - 1
            last_grant[bank] = port
            granted.append(port)
        return granted

    # ------------------------------------------------------------------ state
    def fifos(self) -> List[WordFifo]:
        """Every word FIFO, request side first (for hang diagnosis)."""
        return [*self.request_fifos, *self.response_fifos]

    def busy(self) -> bool:
        """True while any word is issued, queued, in flight or unrouted."""
        return bool(
            self.issued or self.queued or self.waiting
            or any(self._in_flight)
        )

    def reset(self) -> None:
        for flight in self._in_flight:
            flight.clear()
        for items in self._requests:
            items.clear()
        for items in self._responses:
            items.clear()
        del self.issued[:]
        self.queued = 0
        self.full_ports = 0
        self.waiting = 0
        self.next_ready = IDLE
        self._bank_last_grant = [self.config.num_ports - 1] * self.config.num_banks
