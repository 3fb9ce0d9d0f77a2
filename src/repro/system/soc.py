"""SoC assembly: wires the vector engine(s) to the right memory system(s).

Topologies
----------
With ``num_engines == 1, num_channels == 1`` (the paper's evaluation
systems) the vector engine's AXI port connects *directly* to the adapter /
ideal endpoint — byte-identical wiring, cycle counts and statistics to the
single-requestor model this repo always had.

With ``num_engines == N > 1`` and one channel the SoC instantiates N vector
engines, each with a private AXI port, merged onto one shared endpoint port
by a cycle-level :class:`~repro.axi.mux.CycleAxiMux` (round-robin or QoS
arbitration on AR/AW, transaction-id routed R/B returns, W beats in AW
order).  The adapter and banked memory are shared, which is what makes the
contention/fairness scenario family measurable: N requestors fighting over
one packed bus and one bank crossbar.

With ``num_channels == M > 1`` the SoC becomes a full M×N crossbar: each
engine fans out through a private :class:`~repro.axi.mux.CycleAxiDemux`
over an N×M grid of link ports, and each memory channel merges its N links
through a private :class:`~repro.axi.mux.CycleAxiMux` into its own adapter
+ :class:`~repro.mem.banked.BankedMemory` stack (or ideal endpoint).
Channels are selected by stripe-interleaved address decode
(:class:`~repro.axi.interconnect.InterleavedAddressMap`): consecutive
``channel_stripe_bytes`` stripes rotate across channels, so every channel
carries a share of every workload.  All channel stacks share ONE functional
:class:`~repro.mem.storage.MemoryStorage` image — channels split *timing*,
not data — and each channel keeps a private stats registry so
:meth:`Soc.stats_snapshot` can report both per-channel (``chan{j}.``) and
summed counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.axi.mux import CycleAxiDemux, CycleAxiMux
from repro.axi.port import AxiPort, AxiPortConfig
from repro.controller.adapter import AxiPackAdapter
from repro.errors import ConfigurationError, SimulationError
from repro.mem.banked import BankedMemory
from repro.mem.ideal import IdealMemoryEndpoint
from repro.mem.storage import MemoryStorage
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry
from repro.system.config import SystemConfig, SystemKind
from repro.vector.builder import Program
from repro.vector.engine import EngineResult, VectorEngine


class Soc:
    """One instantiated evaluation system.

    A :class:`Soc` owns the memory image (so workloads can initialize their
    data before running and inspect it afterwards) and builds a fresh
    simulation engine for every program executed on it.  Component state
    and statistics are reset at the start of every run, so back-to-back
    ``run_program`` calls on one :class:`Soc` report identical measurements
    (the memory image is deliberately *not* reset — workloads own it).

    Attribute conventions: ``endpoints`` / ``memories`` always list every
    channel stack; the historical single-channel aliases ``endpoint`` /
    ``memory`` point at the one stack when ``num_channels == 1`` and are
    ``None`` on multi-channel SoCs.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.data_policy = config.data_policy
        self.num_engines = config.num_engines
        self.num_channels = config.num_channels
        self.storage = MemoryStorage(config.memory_bytes)
        self.stats = StatsRegistry()
        #: Vector engines from the most recent ``run_programs`` call, kept so
        #: harnesses can inspect final register-file state.  Empty until the
        #: first run.
        self.last_engines: List[VectorEngine] = []
        #: JSON-serializable fault report of the most recent run, or ``None``
        #: when the run completed fault-free (always ``None`` until the first
        #: run).  See :meth:`run_programs`.
        self.last_fault_report: Optional[Dict] = None
        #: crossbar pieces; all empty on single-channel SoCs
        self.demuxes: List[CycleAxiDemux] = []
        self.channel_muxes: List[CycleAxiMux] = []
        self.channel_ports: List[AxiPort] = []
        self.link_ports: List[List[AxiPort]] = []
        self.channel_stats: List[StatsRegistry] = []
        if config.num_engines == 1:
            # Direct wiring: the seed topology, bit-identical to the
            # single-requestor model (no mux hop on any channel).
            self.port = AxiPort("cpu", config.bus_bytes, AxiPortConfig())
            self.ports: List[AxiPort] = [self.port]
            self.mux: Optional[CycleAxiMux] = None
        else:
            self.ports = [
                AxiPort(f"cpu{index}", config.bus_bytes, AxiPortConfig())
                for index in range(config.num_engines)
            ]
            self.mux = None
        if config.num_channels == 1:
            if config.num_engines > 1:
                #: the shared endpoint-side port behind the mux
                self.port = AxiPort("shared", config.bus_bytes, AxiPortConfig())
                self.mux = CycleAxiMux(
                    "mux", self.ports, self.port,
                    arbitration=config.arbitration, stats=self.stats,
                )
            memory, endpoint = self._build_channel_stack("", self.port, self.stats)
            self.memory = memory
            self.endpoint = endpoint
            self.memories: List[BankedMemory] = [] if memory is None else [memory]
            self.endpoints: List = [endpoint]
        else:
            address_map = config.channel_address_map()
            self.channel_ports = [
                AxiPort(f"chan{index}", config.bus_bytes, AxiPortConfig())
                for index in range(config.num_channels)
            ]
            self.link_ports = [
                [
                    AxiPort(f"xb{row}_{col}", config.bus_bytes, AxiPortConfig())
                    for col in range(config.num_channels)
                ]
                for row in range(config.num_engines)
            ]
            # One demux per engine; check_straddle=False because interleaved
            # routing deliberately uses stripe-ownership semantics (route by
            # start address; the owning channel serves the whole burst).
            self.demuxes = [
                CycleAxiDemux(
                    f"xdemux{index}", self.ports[index], self.link_ports[index],
                    address_map, stats=self.stats, check_straddle=False,
                    bus_faults=config.bus_faults,
                )
                for index in range(config.num_engines)
            ]
            self.channel_stats = [
                StatsRegistry() for _ in range(config.num_channels)
            ]
            self.channel_muxes = [
                CycleAxiMux(
                    f"xmux{col}",
                    [self.link_ports[row][col]
                     for row in range(config.num_engines)],
                    self.channel_ports[col],
                    arbitration=config.arbitration,
                    stats=self.channel_stats[col],
                )
                for col in range(config.num_channels)
            ]
            self.memories = []
            self.endpoints = []
            for col in range(config.num_channels):
                memory, endpoint = self._build_channel_stack(
                    str(col), self.channel_ports[col], self.channel_stats[col]
                )
                if memory is not None:
                    self.memories.append(memory)
                self.endpoints.append(endpoint)
            self.memory = None
            self.endpoint = None

    def _build_channel_stack(
        self, suffix: str, port: AxiPort, stats: StatsRegistry
    ) -> Tuple[Optional[BankedMemory], Union[AxiPackAdapter, IdealMemoryEndpoint]]:
        """One memory channel: adapter + banked memory, or ideal endpoint.

        Every stack serves the shared ``self.storage`` image; ``stats`` is
        the registry the stack's components count into (the SoC-wide one for
        single-channel SoCs, a private per-channel one on the crossbar).
        """
        config = self.config
        if config.kind is SystemKind.IDEAL:
            endpoint = IdealMemoryEndpoint(
                f"ideal_mem{suffix}", port, self.storage,
                latency=config.ideal_latency, stats=stats,
                data_policy=self.data_policy, bus_faults=config.bus_faults,
            )
            return None, endpoint
        memory = BankedMemory(
            f"banked_mem{suffix}", config.memory_config(), self.storage, stats,
            data_policy=self.data_policy, bus_faults=config.bus_faults,
        )
        endpoint = AxiPackAdapter(
            f"adapter{suffix}", port, memory, config.adapter_config(),
            stats, data_policy=self.data_policy,
        )
        return memory, endpoint

    @property
    def kind(self) -> SystemKind:
        """Which of the three evaluation systems this is."""
        return self.config.kind

    # ------------------------------------------------------------------ stats
    def stats_snapshot(self) -> Dict[str, int]:
        """Flat statistics for the most recent run.

        Single-channel SoCs return the registry's counters unchanged — the
        exact mapping every pre-crossbar consumer saw.  Multi-channel SoCs
        merge the per-channel registries: each counter appears summed across
        channels under its bare name (so topology-agnostic consumers keep
        working) *and* per channel under a ``chan{j}.`` prefix (so analyses
        can measure channel balance).
        """
        merged: Dict[str, int] = dict(self.stats.as_dict())
        for index, stats in enumerate(self.channel_stats):
            for name, value in stats.as_dict().items():
                merged[name] = merged.get(name, 0) + value
                merged[f"chan{index}.{name}"] = value
        return merged

    # ------------------------------------------------------------------ runs
    def _all_ports(self) -> List[AxiPort]:
        """Every AXI port in the topology (engine, shared, link, channel)."""
        ports = list(self.ports)
        if self.mux is not None:
            ports.append(self.port)
        for row in self.link_ports:
            ports.extend(row)
        ports.extend(self.channel_ports)
        return ports

    def _reset_for_run(self) -> None:
        """Restore every reusable piece of the SoC to its post-build state.

        Statistics, component state (adapter converters, channel monitors,
        arbitration pointers, bank round-robin state) and the AXI channel
        queues are all owned by the :class:`Soc` and survive across runs;
        without this reset a second ``run_program`` on the same SoC would
        accumulate stats across runs and could observe stale queue state.
        A run that completed normally leaves every queue drained — anything
        else means the previous run was aborted mid-flight, which the reset
        recovers from by clearing the queues (the memory image is left
        untouched either way).
        """
        self.stats.reset()
        for stats in self.channel_stats:
            stats.reset()
        for endpoint in self.endpoints:
            endpoint.reset()
        if self.mux is not None:
            self.mux.reset()
        for demux in self.demuxes:
            demux.reset()
        for mux in self.channel_muxes:
            mux.reset()
        for port in self._all_ports():
            for queue in port.all_queues():
                if not queue.is_empty():
                    queue.clear()

    def _check_drained(self) -> None:
        """Assert the per-run queue contract: every channel ends empty."""
        stuck = [
            queue.name
            for port in self._all_ports()
            for queue in port.all_queues()
            if not queue.is_empty()
        ]
        if stuck:
            raise SimulationError(
                f"run completed with undrained AXI channel queues: {stuck}"
            )

    def run_program(
        self,
        program: Union[Program, Sequence[Program]],
        max_cycles: int = 50_000_000,
        event_driven: Optional[bool] = None,
    ) -> Tuple[int, Union[EngineResult, List[EngineResult]]]:
        """Execute vector program(s) to completion; return (cycles, result).

        ``program`` is either a single :class:`Program` (single-engine SoCs;
        the result is one :class:`EngineResult`, exactly the historical API)
        or a sequence of per-engine programs, one per vector engine (the
        result is a list of per-engine :class:`EngineResult` in engine
        order).  ``event_driven`` selects the engine mode (None = the
        ``REPRO_SIM_ENGINE`` environment default); both modes produce
        identical cycle counts and statistics.
        """
        if isinstance(program, Program):
            if self.num_engines != 1:
                raise ConfigurationError(
                    f"this SoC has {self.num_engines} engines; pass one "
                    "program per engine (see Workload.build_sharded_programs)"
                )
            cycles, results = self.run_programs([program], max_cycles, event_driven)
            return cycles, results[0]
        return self.run_programs(list(program), max_cycles, event_driven)

    def run_programs(
        self,
        programs: Sequence[Program],
        max_cycles: int = 50_000_000,
        event_driven: Optional[bool] = None,
    ) -> Tuple[int, List[EngineResult]]:
        """Execute one program per vector engine; return (cycles, results).

        Whatever the topology — direct wiring, N engines muxed onto one
        shared channel, or the full N×M demux/mux crossbar — this registers
        every component and AXI queue of the instantiated system with a
        fresh simulation engine and runs until all vector engines retire
        their programs.  Per-run statistics land in the SoC-wide registry
        plus, on multi-channel SoCs, one private registry per channel; read
        them through :meth:`stats_snapshot`.
        """
        if len(programs) != self.num_engines:
            raise ConfigurationError(
                f"got {len(programs)} programs for {self.num_engines} engines"
            )
        for program in programs:
            if program.mode is not self.config.lowering:
                raise ConfigurationError(
                    f"program was built for the {program.mode.value.upper()} "
                    f"system but this SoC is {self.kind.value.upper()}"
                )
        self._reset_for_run()
        engine = Engine(event_driven=event_driven)
        vector_config = self.config.vector_config()
        if self.num_engines == 1:
            names = ["ara"]
        else:
            names = [f"ara{index}" for index in range(self.num_engines)]
        # The per-transaction watchdog exists only while a fault plan is
        # attached; fault-free runs carry zero watchdog state.
        bus_faults = self.config.bus_faults
        watchdog = 0 if bus_faults is None else bus_faults.watchdog_cycles
        vectors = [
            VectorEngine(
                name, program, port, vector_config,
                self.config.lowering, data_policy=self.data_policy,
                storage=self.storage, watchdog_cycles=watchdog,
            )
            for name, program, port in zip(names, programs, self.ports)
        ]
        # Kept for post-run inspection (the fuzz harness compares register
        # files against the functional oracle after the run completes).
        self.last_engines: List[VectorEngine] = vectors
        # Registration wires the wake machinery: each component subscribes to
        # the queues named by its ``wake_queues`` (the AXI port channels), and
        # registered queues act as the engine's dirty/wake lists.  A banked
        # memory is its adapter's bank stage, not a component: its word FIFOs
        # stay private to the adapter.
        for vector in vectors:
            engine.add_component(vector)
        if self.mux is not None:
            engine.add_component(self.mux)
        for demux in self.demuxes:
            engine.add_component(demux)
        for mux in self.channel_muxes:
            engine.add_component(mux)
        for endpoint in self.endpoints:
            engine.add_component(endpoint)
        for port in self.ports:
            for queue in port.all_queues():
                engine.add_queue(queue)
        if self.mux is not None:
            for queue in self.port.all_queues():
                engine.add_queue(queue)
        for row in self.link_ports:
            for port in row:
                for queue in port.all_queues():
                    engine.add_queue(queue)
        for port in self.channel_ports:
            for queue in port.all_queues():
                engine.add_queue(queue)
        if len(vectors) == 1:
            done = vectors[0].done
        else:
            def done() -> bool:
                return all(vector.done() for vector in vectors)
        cycles = engine.run_until(done, max_cycles=max_cycles)
        faults = [
            fault.to_dict() for vector in vectors for fault in vector.faults
        ]
        if faults:
            # Aborted run: the engines quiesced (their own in-flight bursts
            # drained) but interconnect/endpoint components may hold residual
            # state for abandoned transactions; ``_reset_for_run`` clears it
            # before the next run, so the SoC stays reusable.
            self.last_fault_report = {"faults": faults}
        else:
            self.last_fault_report = None
            self._check_drained()
        return cycles, [vector.result(cycles) for vector in vectors]


def build_system(config: SystemConfig) -> Soc:
    """Instantiate the SoC described by ``config``."""
    return Soc(config)
