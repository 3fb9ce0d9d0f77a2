"""Generic read/write word-access pipelines shared by all converters.

A converter is, structurally, the combination of

* a *planner* that turns a burst into per-beat word-access plans
  (:mod:`repro.controller.planners`),
* a :class:`ReadPipe` or :class:`WritePipe` that issues those word accesses
  to the banks in order, subject to the request regulator, collects the
  responses, and re-packs (reads) or unpacks (writes) beats, and
* converter-specific glue (the index stage of the indirect converters).

Keeping the pipes generic means the strided, indirect and base converters
share one well-tested engine and differ only in their planners — mirroring
how the RTL converters share the beat packer / info queue structure.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Iterator, List, Optional, Set, Tuple

from repro.axi.signals import BBeat, RBeat
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.controller.context import AdapterConfig
from repro.controller.plans import BeatPlan, ReadBeatState, WordSlot, WriteBeatState
from repro.controller.regulator import RequestRegulator
from repro.errors import SimulationError
from repro.mem.words import WordRequest
from repro.sim.policy import DataPolicy
from repro.sim.stats import StatsRegistry

#: Prebound default: checked once per word response on the hot path.
_RESP_OKAY = Resp.OKAY


class ReadPipe:
    """Issues word reads beat by beat and re-packs the returned words.

    Beats are issued and completed strictly in order, which keeps the R
    channel ordering rules trivially satisfied and matches the info-queue
    discipline of the RTL beat packer.

    Under ``DataPolicy.ELIDE`` no payload buffers exist: word responses only
    decrement the beat's completion count, and completed beats emit empty
    payloads with their geometry (``useful_bytes``) intact.
    """

    def __init__(
        self,
        name: str,
        config: AdapterConfig,
        stats: StatsRegistry,
        data_policy: DataPolicy = DataPolicy.FULL,
    ) -> None:
        self.name = name
        self.config = config
        self.stats = stats
        self._elide = data_policy.elides_data
        #: beat-state factory bound once: payload-carrying or timing-only
        self._make_state = (
            ReadBeatState.from_plan_elided if self._elide else ReadBeatState.from_plan
        )
        self.regulator = RequestRegulator(config.bus_words, config.queue_depth)
        self._beats: Deque[Tuple[ReadBeatState, BusRequest]] = deque()
        #: beats with unissued slots, oldest first: [state, next_slot_index]
        self._unissued: Deque[List] = deque()
        self._accepted_bursts = 0

    # -------------------------------------------------------------- planning
    def add_plans(
        self,
        request: BusRequest,
        plans: Iterable[BeatPlan],
        resp: Resp = _RESP_OKAY,
    ) -> None:
        """Queue pre-computed beat plans belonging to ``request``.

        ``resp`` pre-poisons every queued beat: the indirect converters use
        it to taint element beats planned from a poisoned index fetch.
        """
        make_state = self._make_state
        for plan in plans:
            state = make_state(plan)
            if resp is not _RESP_OKAY:
                state.resp = resp
            self._beats.append((state, request))
            if plan.slots:
                self._unissued.append([state, 0])

    def accept(self, request: BusRequest, plans: Iterable[BeatPlan]) -> None:
        """Accept a burst whose beats are fully described by ``plans``."""
        self._accepted_bursts += 1
        self.add_plans(request, plans)

    # --------------------------------------------------------------- issuing
    def issue(self, free_ports: Set[int], out: List[WordRequest]) -> None:
        """Issue word reads in order, using only ``free_ports``.

        Ports used are removed from ``free_ports`` so other pipes sharing the
        memory ports this cycle cannot double-book them.  Issue stops at the
        first slot whose port is unavailable or regulator-blocked, preserving
        the in-order request discipline of the RTL request generator.
        """
        unissued = self._unissued
        regulator = self.regulator
        in_flight = regulator._in_flight
        limit = regulator.limit
        while unissued:
            entry = unissued[0]
            state = entry[0]
            slots = state.plan.slots
            next_slot = entry[1]
            while next_slot < len(slots):
                slot = slots[next_slot]
                port = slot.port
                if port not in free_ports or in_flight[port] >= limit:
                    entry[1] = next_slot
                    return
                free_ports.discard(port)
                in_flight[port] += 1
                out.append(
                    WordRequest(
                        port=port,
                        word_addr=slot.word_addr,
                        is_write=False,
                        tag=(self, state, slot),
                    )
                )
                next_slot += 1
            unissued.popleft()

    # ------------------------------------------------------------- responses
    def take_response(self, state: ReadBeatState, slot: WordSlot, data: bytes) -> None:
        """Deliver one returned word to its beat."""
        # Inlined ReadBeatState.fill + RequestRegulator.note_retire: this runs
        # once per word access, the hottest path in the controller model.
        if state.data is not None:
            shift = slot.byte_shift
            offset = slot.offset
            nbytes = slot.nbytes
            state.data[offset : offset + nbytes] = data[shift : shift + nbytes]
        state.remaining -= 1
        in_flight = self.regulator._in_flight
        port = slot.port
        if in_flight[port] <= 0:
            raise SimulationError(f"regulator underflow on port {port}")
        in_flight[port] -= 1

    def take_error_response(
        self, state: ReadBeatState, slot: WordSlot, resp: Resp
    ) -> None:
        """Deliver one errored word: no data, the beat is poisoned instead."""
        if resp.value > state.resp.value:
            state.resp = resp
        state.remaining -= 1
        in_flight = self.regulator._in_flight
        port = slot.port
        if in_flight[port] <= 0:
            raise SimulationError(f"regulator underflow on port {port}")
        in_flight[port] -= 1

    # --------------------------------------------------------------- packing
    def pop_ready_beat(self) -> Optional[Tuple[BeatPlan, bytes, BusRequest, Resp]]:
        """Return the oldest beat if it is complete, removing it from the pipe."""
        if not self._beats:
            return None
        state, request = self._beats[0]
        if state.remaining:
            return None
        self._beats.popleft()
        if self._unissued and self._unissued[0][0] is state:
            # A beat with word accesses cannot complete before they were issued.
            raise SimulationError(
                f"{self.name}: beat completed before all slots were issued"
            )
        data = b"" if state.data is None else bytes(state.data)
        return state.plan, data, request, state.resp

    def pop_ready_r_beat(self) -> Optional[RBeat]:
        """Like :meth:`pop_ready_beat` but wrapped as an R-channel beat."""
        ready = self.pop_ready_beat()
        if ready is None:
            return None
        plan, data, _request, resp = ready
        return RBeat(
            txn_id=plan.txn_id,
            data=data,
            useful_bytes=plan.useful_bytes,
            last=plan.last,
            resp=resp,
        )

    # ------------------------------------------------------------------ state
    def busy(self) -> bool:
        """True while any beat is pending issue, in flight or awaiting packing."""
        return bool(self._beats)

    def pending_beats(self) -> int:
        """Number of beats currently tracked by the pipe."""
        return len(self._beats)

    def reset(self) -> None:
        """Drop all state (component reset)."""
        self._beats.clear()
        self._unissued.clear()
        self.regulator.reset()


class _ActiveWriteBurst:
    """Book-keeping for one write burst travelling through a WritePipe.

    ``resp`` accumulates the worst response of the burst's retired beats
    and becomes the B response when the burst completes.
    """

    def __init__(self, request: BusRequest, planner: Optional[Iterator[BeatPlan]]) -> None:
        self.request = request
        self.planner = planner
        self.w_beats_received = 0
        self.beats_completed = 0
        self.resp = _RESP_OKAY

    @property
    def all_w_received(self) -> bool:
        return self.w_beats_received >= self.request.num_beats

    @property
    def complete(self) -> bool:
        return self.beats_completed >= self.request.num_beats


class WritePipe:
    """Unpacks W beats into word writes and tracks their acknowledgements."""

    def __init__(
        self,
        name: str,
        config: AdapterConfig,
        stats: StatsRegistry,
        data_policy: DataPolicy = DataPolicy.FULL,
    ) -> None:
        self.name = name
        self.config = config
        self.stats = stats
        self._elide = data_policy.elides_data
        self.regulator = RequestRegulator(config.bus_words, config.queue_depth)
        self._bursts: Deque[_ActiveWriteBurst] = deque()
        self._beats: Deque[Tuple[WriteBeatState, _ActiveWriteBurst]] = deque()
        #: beat states with unissued slots, oldest first
        self._unissued: Deque[WriteBeatState] = deque()

    # -------------------------------------------------------------- planning
    def accept(
        self, request: BusRequest, planner: Optional[Iterator[BeatPlan]]
    ) -> _ActiveWriteBurst:
        """Accept a write burst and return its tracking record.

        ``planner`` yields one plan per W beat as the data arrives; indirect
        converters pass ``None`` and add beats explicitly once the indices
        are known (see :meth:`add_beat`).
        """
        burst = _ActiveWriteBurst(request, planner)
        self._bursts.append(burst)
        return burst

    def take_w_beat(self, payload: bytes) -> Optional[_ActiveWriteBurst]:
        """Deliver one W data beat to the oldest burst still expecting data.

        For planner-driven bursts the beat plan is materialized immediately;
        bursts without a planner (indirect) record the payload via the caller,
        which must call :meth:`add_beat` itself.  Returns the burst the beat
        belongs to, or None if no burst expected data.
        """
        for burst in self._bursts:
            if not burst.all_w_received:
                burst.w_beats_received += 1
                if burst.planner is not None:
                    plan = next(burst.planner)
                    self.add_beat(plan, payload, burst)
                return burst
        return None

    def add_beat(
        self,
        plan: BeatPlan,
        payload: bytes,
        burst: _ActiveWriteBurst,
        resp: Resp = _RESP_OKAY,
    ) -> None:
        """Queue one fully planned write beat with its payload.

        ``resp`` pre-poisons the beat (indirect writes whose index fetch
        errored taint the element beats planned from substituted indices).
        """
        state = WriteBeatState(
            plan=plan, payload=None if self._elide else bytes(payload)
        )
        if resp is not _RESP_OKAY:
            state.resp = resp
        self._beats.append((state, burst))
        if plan.slots:
            self._unissued.append(state)

    # --------------------------------------------------------------- issuing
    def issue(self, free_ports: Set[int], out: List[WordRequest]) -> None:
        """Issue word writes in order, using only ``free_ports``."""
        unissued = self._unissued
        regulator = self.regulator
        in_flight = regulator._in_flight
        limit = regulator.limit
        while unissued:
            state = unissued[0]
            slots = state.plan.slots
            while state.next_slot < len(slots):
                slot = slots[state.next_slot]
                port = slot.port
                if port not in free_ports or in_flight[port] >= limit:
                    return
                free_ports.discard(port)
                in_flight[port] += 1
                out.append(
                    WordRequest(
                        port=port,
                        word_addr=slot.word_addr,
                        is_write=True,
                        data=self._word_write_data(state, slot),
                        tag=(self, state, slot),
                    )
                )
                state.next_slot += 1
                state.acks_pending += 1
            unissued.popleft()

    def _word_write_data(self, state: WriteBeatState, slot: WordSlot):
        """Full word of write data for one slot (partial words are rejected)."""
        if slot.nbytes != self.config.word_bytes or slot.byte_shift != 0:
            # Geometry-only check: kept under ELIDE too, so both policies
            # reject the same malformed plans at the same point.
            raise SimulationError(
                f"{self.name}: partial-word write at word {slot.word_addr:#x} — "
                "the model requires word-aligned write payloads"
            )
        if state.payload is None:
            return None
        return state.slot_data(slot)

    # ------------------------------------------------------------- responses
    def take_ack(self, state: WriteBeatState, slot: WordSlot) -> None:
        """Deliver one word-write acknowledgement."""
        state.acks_pending -= 1
        in_flight = self.regulator._in_flight
        port = slot.port
        if in_flight[port] <= 0:
            raise SimulationError(f"regulator underflow on port {port}")
        in_flight[port] -= 1

    def take_error_ack(
        self, state: WriteBeatState, slot: WordSlot, resp: Resp
    ) -> None:
        """Deliver one errored word-write acknowledgement (poisons the beat)."""
        if resp.value > state.resp.value:
            state.resp = resp
        state.acks_pending -= 1
        in_flight = self.regulator._in_flight
        port = slot.port
        if in_flight[port] <= 0:
            raise SimulationError(f"regulator underflow on port {port}")
        in_flight[port] -= 1

    # -------------------------------------------------------------- emission
    def pop_ready_b_beat(self) -> Optional[BBeat]:
        """Return a B beat once the oldest burst's writes are all complete."""
        self._retire_completed_beats()
        if not self._bursts:
            return None
        burst = self._bursts[0]
        if burst.all_w_received and burst.complete:
            self._bursts.popleft()
            return BBeat(txn_id=burst.request.txn_id, resp=burst.resp)
        return None

    def _retire_completed_beats(self) -> None:
        while self._beats:
            state, burst = self._beats[0]
            if not state.complete:
                break
            self._beats.popleft()
            burst.beats_completed += 1
            resp = state.resp
            if resp is not _RESP_OKAY and resp.value > burst.resp.value:
                burst.resp = resp

    # ------------------------------------------------------------------ state
    def busy(self) -> bool:
        """True while any burst or beat is still in progress."""
        return bool(self._bursts) or bool(self._beats)

    def reset(self) -> None:
        """Drop all state (component reset)."""
        self._bursts.clear()
        self._beats.clear()
        self._unissued.clear()
        self.regulator.reset()
