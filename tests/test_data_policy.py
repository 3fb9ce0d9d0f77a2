"""FULL/ELIDE data-policy parity and the policy plumbing around it.

The core invariant of ``DataPolicy.ELIDE`` (see ``repro.sim.policy``): cycle
counts, every ``StatsRegistry`` counter and every engine measurement are
bit-identical to ``DataPolicy.FULL`` — only the data plane (payload bytes,
register contents, memory image) disappears.  These tests pin that across
the fig3a workload grid, both engine modes, error behaviour (max_cycles,
deadlock), the orchestrator cache, and the CLI surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.axi.transaction import reset_txn_ids
from repro.errors import ConfigurationError, DeadlockError, SimulationError
from repro.mem.banked import BankedMemory, BankedMemoryConfig
from repro.mem.storage import MemoryStorage
from repro.mem.words import WordRequest
from repro.orchestrate.cache import MISS, MemoryCache, ResultCache
from repro.orchestrate.spec import RunSpec, WorkloadSpec
from repro.sim.engine import Engine
from repro.sim.policy import DataPolicy, default_data_policy, resolve_data_policy
from repro.system.config import SystemConfig, SystemKind
from repro.system.runner import run_workload
from repro.workloads.registry import WORKLOAD_ORDER

ALL_KINDS = (SystemKind.BASE, SystemKind.PACK, SystemKind.IDEAL)


def _fig3a_spec(name: str) -> WorkloadSpec:
    """Tiny-scale fig3a workload spec (mirrors analysis.fig3 at scale=tiny)."""
    if name in ("ismt", "gemv", "trmv"):
        return WorkloadSpec.create(name, size=16)
    return WorkloadSpec.create(name, size=16, avg_nnz_per_row=8.0)


def _run(name: str, kind: SystemKind, policy: DataPolicy, event_driven: bool,
         verify: bool = False):
    reset_txn_ids()
    workload = _fig3a_spec(name).build()
    config = SystemConfig(
        memory_bytes=1 << 22, data_policy=policy
    ).with_kind(kind)
    from repro.system.soc import build_system

    soc = build_system(config)
    workload.initialize(soc.storage)
    program = workload.build_program(config.lowering, config.vector_config())
    cycles, result = soc.run_program(program, event_driven=event_driven)
    verified = workload.verify(soc.storage) if verify and not policy.elides_data else None
    return cycles, dict(soc.stats.as_dict()), result, verified


class TestPolicyParity:
    @pytest.mark.parametrize("name", WORKLOAD_ORDER)
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_event_driven_parity(self, name, kind):
        """ELIDE matches FULL bit for bit on the event-driven engine."""
        f_cycles, f_stats, f_result, verified = _run(
            name, kind, DataPolicy.FULL, True, verify=True
        )
        e_cycles, e_stats, e_result, _ = _run(name, kind, DataPolicy.ELIDE, True)
        assert e_cycles == f_cycles
        assert e_stats == f_stats
        assert e_result == f_result
        # FULL mode still moves real data end to end.
        assert verified is True

    @pytest.mark.parametrize("name", ["ismt", "spmv"])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_naive_engine_parity(self, name, kind):
        """The parity holds on the tick-every-cycle compatibility engine too."""
        f = _run(name, kind, DataPolicy.FULL, False)
        e = _run(name, kind, DataPolicy.ELIDE, False)
        assert e[:3] == f[:3]

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_engine_modes_agree_under_elide(self, kind):
        """Event-driven and naive engines agree within ELIDE as well."""
        event = _run("spmv", kind, DataPolicy.ELIDE, True)
        naive = _run("spmv", kind, DataPolicy.ELIDE, False)
        assert event[:3] == naive[:3]

    def test_elide_results_marked_unverified(self):
        """ELIDE runs are explicitly marked verified=False, never None."""
        workload = _fig3a_spec("gemv").build()
        config = SystemConfig(
            memory_bytes=1 << 22, data_policy=DataPolicy.ELIDE
        )
        result = run_workload(workload, config, verify=True)
        assert result.verified is False

    def test_elide_never_touches_storage(self):
        """The datapath leaves the memory image byte-identical under ELIDE."""
        reset_txn_ids()
        workload = _fig3a_spec("gemv").build()
        config = SystemConfig(
            memory_bytes=1 << 22, data_policy=DataPolicy.ELIDE
        ).with_kind(SystemKind.PACK)
        from repro.system.soc import build_system

        soc = build_system(config)
        workload.initialize(soc.storage)
        image_before = soc.storage.snapshot()
        program = workload.build_program(config.lowering, config.vector_config())
        soc.run_program(program)
        assert np.array_equal(soc.storage.snapshot(), image_before)


class TestErrorBehaviourParity:
    @pytest.mark.parametrize("policy", [DataPolicy.FULL, DataPolicy.ELIDE],
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("event_driven", [True, False],
                             ids=["event", "naive"])
    def test_max_cycles_exceeded(self, policy, event_driven):
        """A too-small cycle budget raises identically under both policies."""
        reset_txn_ids()
        workload = _fig3a_spec("gemv").build()
        config = SystemConfig(memory_bytes=1 << 22, data_policy=policy)
        from repro.system.soc import build_system

        soc = build_system(config)
        workload.initialize(soc.storage)
        program = workload.build_program(config.lowering, config.vector_config())
        with pytest.raises(SimulationError):
            soc.run_program(program, max_cycles=10, event_driven=event_driven)

    @pytest.mark.parametrize("policy", [DataPolicy.FULL, DataPolicy.ELIDE],
                             ids=lambda p: p.value)
    def test_deadlock_detection_cycle(self, policy, bank_stage):
        """An undrained memory deadlocks at the same cycle under both policies."""
        storage = MemoryStorage(1 << 16)
        config = BankedMemoryConfig(num_ports=2, num_banks=3,
                                    response_queue_depth=1)
        memory = BankedMemory("mem", config, storage, data_policy=policy)
        engine = Engine(deadlock_window=50)
        data = None if policy.elides_data else b"\x01\x02\x03\x04"
        requests = [
            WordRequest(port=0, word_addr=i, is_write=True, data=data)
            for i in range(2)
        ]
        engine.add_component(bank_stage(memory, requests, route=False))
        with pytest.raises(DeadlockError):
            # Nobody pops the response queue: progress stops once responses
            # back up, at a cycle independent of the data policy.
            engine.run_until(lambda: False, max_cycles=10_000)
        # Record the deadlock cycle for cross-policy comparison via state.
        if not hasattr(TestErrorBehaviourParity, "_deadlock_cycles"):
            TestErrorBehaviourParity._deadlock_cycles = {}
        TestErrorBehaviourParity._deadlock_cycles[policy] = engine.cycle
        cycles = TestErrorBehaviourParity._deadlock_cycles
        if len(cycles) == 2:
            assert cycles[DataPolicy.FULL] == cycles[DataPolicy.ELIDE]


class TestVectorizedArbitration:
    """The batched arbiter grants exactly what the scalar reference would."""

    @staticmethod
    def _reference_grants(ports_words, last_grant, num_ports, num_banks,
                          conflict_free):
        """Seed-tree scalar arbiter: claims dict + per-bank round-robin."""
        claims = {}
        for port, word in ports_words:
            bank = word % num_banks
            claims.setdefault(bank, []).append(port)
        granted = []
        conflicts = 0
        for bank, ports in claims.items():
            if conflict_free:
                granted.extend(ports)
                continue
            if len(ports) == 1:
                winner = ports[0]
            else:
                last = last_grant[bank]
                winner = min(ports, key=lambda p: (p - last - 1) % num_ports)
                conflicts += len(ports) - 1
            last_grant[bank] = winner
            granted.append(winner)
        return sorted(granted), conflicts

    @pytest.mark.parametrize("conflict_free", [False, True],
                             ids=["round-robin", "conflict-free"])
    def test_matches_scalar_reference(self, conflict_free):
        rng = np.random.default_rng(7)
        storage = MemoryStorage(1 << 16)
        config = BankedMemoryConfig(num_ports=8, num_banks=17,
                                    conflict_free=conflict_free)
        memory = BankedMemory("mem", config, storage,
                              data_policy=DataPolicy.ELIDE)
        distinct_trials = contended_trials = 0
        for trial in range(200):
            memory.reset()
            # Randomize the round-robin history.
            memory._bank_last_grant = [
                int(rng.integers(0, config.num_ports))
                for _ in range(config.num_banks)
            ]
            last_copy = list(memory._bank_last_grant)
            num_claimants = int(rng.integers(1, config.num_ports + 1))
            ports = sorted(rng.choice(config.num_ports, size=num_claimants,
                                      replace=False).tolist())
            words = [int(rng.integers(0, 64)) for _ in ports]
            banks = [word % config.num_banks for word in words]
            if len(set(banks)) == len(banks):
                distinct_trials += 1
            else:
                contended_trials += 1
            # Issue every head at cycle 2*trial; the bank stage arbitrates
            # them one cycle later.
            for port, word in zip(ports, words):
                memory.issued.append(
                    WordRequest(port=port, word_addr=word, is_write=False)
                )
            memory.tick(2 * trial)
            before_conflicts = memory.stats.get("mem.bank_conflicts")
            memory.tick(2 * trial + 1)
            granted = sorted(
                port for port, flight in enumerate(memory._in_flight) if flight
            )
            conflicts = memory.stats.get("mem.bank_conflicts") - before_conflicts
            expected, expected_conflicts = self._reference_grants(
                list(zip(ports, words)), last_copy,
                config.num_ports, config.num_banks, conflict_free,
            )
            assert granted == expected, f"trial {trial}"
            if not conflict_free:
                assert conflicts == expected_conflicts
                assert memory._bank_last_grant == last_copy
        # Both arbitration branches (all banks distinct, some contended) ran.
        assert distinct_trials > 20 and contended_trials > 20

    def test_elide_reuses_request_as_response(self):
        """The timing-only bank path never allocates responses or data."""
        storage = MemoryStorage(1 << 16)
        memory = BankedMemory(
            "mem", BankedMemoryConfig(num_ports=2, num_banks=3), storage,
            data_policy=DataPolicy.ELIDE,
        )
        request = WordRequest(port=0, word_addr=5, is_write=False, tag="t")
        memory.issued.append(request)
        for cycle in range(3):  # issue, grant, deliver
            memory.tick(cycle)
        response = memory.response_fifos[0].items[0]
        assert response is request
        assert response.data is None
        # Storage untouched: still all zeros.
        assert not storage.snapshot().any()


class TestControllerTestbenchPolicy:
    def test_strided_read_parity(self):
        """The fig5 testbench harness honours the policy with identical timing."""
        from repro.axi.builder import BuilderConfig, RequestBuilder
        from repro.axi.stream import StridedStream
        from repro.controller.testbench import ControllerTestbench

        outcomes = {}
        for policy in (DataPolicy.FULL, DataPolicy.ELIDE):
            reset_txn_ids()
            bench = ControllerTestbench(data_policy=policy)
            builder = RequestBuilder(BuilderConfig(bus_bytes=32))
            stream = StridedStream(base=0, num_elements=64, elem_bytes=4,
                                   stride_elems=3)
            requests = builder.pack_strided(stream, is_write=False)
            result = bench.run(requests)
            outcomes[policy] = (
                result.cycles, result.r_beats, result.r_useful_bytes,
                result.bank_conflicts,
            )
        assert outcomes[DataPolicy.FULL] == outcomes[DataPolicy.ELIDE]


class TestPolicyPlumbing:
    def test_resolve_and_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_DATA_POLICY", raising=False)
        assert resolve_data_policy(None) is DataPolicy.FULL
        assert resolve_data_policy("ELIDE") is DataPolicy.ELIDE
        assert resolve_data_policy(DataPolicy.FULL) is DataPolicy.FULL
        with pytest.raises(ValueError):
            resolve_data_policy("bogus")
        monkeypatch.setenv("REPRO_DATA_POLICY", "elide")
        assert default_data_policy() is DataPolicy.ELIDE
        assert SystemConfig().data_policy is DataPolicy.ELIDE
        monkeypatch.setenv("REPRO_DATA_POLICY", "nonsense")
        with pytest.raises(ValueError):
            default_data_policy()

    def test_config_coerces_strings_and_rejects_junk(self):
        assert SystemConfig(data_policy="elide").elides_data
        assert not SystemConfig(data_policy="full").elides_data
        with pytest.raises(ConfigurationError):
            SystemConfig(data_policy="half")


class TestCachePolicyIsolation:
    def _spec(self, policy: DataPolicy, verify: bool = False) -> RunSpec:
        return RunSpec(
            workload=_fig3a_spec("gemv"),
            config=SystemConfig(memory_bytes=1 << 22, data_policy=policy),
            kind=SystemKind.PACK,
            verify=verify,
        )

    def test_policies_have_distinct_cache_keys(self):
        full = self._spec(DataPolicy.FULL)
        elide = self._spec(DataPolicy.ELIDE)
        assert full.cache_key() != elide.cache_key()
        assert full.fingerprint()["config"]["data_policy"] == "full"
        assert elide.fingerprint()["config"]["data_policy"] == "elide"

    def test_memory_cache_never_cross_serves(self):
        cache = MemoryCache()
        full = self._spec(DataPolicy.FULL)
        elide = self._spec(DataPolicy.ELIDE)
        full_result = full.execute()
        cache.put(full, full_result)
        assert cache.get(elide) is MISS
        elide_result = elide.execute()
        cache.put(elide, elide_result)
        assert cache.get(full) is full_result
        assert cache.get(elide) is elide_result
        assert cache.get(elide).verified is False
        # Identical measurements, different provenance.
        assert cache.get(full).cycles == cache.get(elide).cycles

    def test_result_cache_never_cross_serves(self, tmp_path):
        cache = ResultCache(tmp_path)
        full = self._spec(DataPolicy.FULL)
        elide = self._spec(DataPolicy.ELIDE)
        cache.put(full, full.execute())
        assert cache.get(elide) is MISS
        assert cache.get(full) is not MISS

    def test_elide_cached_result_serves_verify_requests(self):
        """Within ELIDE, verify=True is satisfiable by verified=False entries
        (verification is impossible by construction, not missing)."""
        cache = MemoryCache()
        spec = self._spec(DataPolicy.ELIDE)
        cache.put(spec, spec.execute())
        verifying = self._spec(DataPolicy.ELIDE, verify=True)
        assert cache.get(verifying) is not MISS

    def test_run_spec_label_names_policy(self):
        assert self._spec(DataPolicy.ELIDE).label() == "gemv/pack/elide"
        assert self._spec(DataPolicy.FULL).label() == "gemv/pack"

    def test_utilization_specs_distinguish_policies(self):
        """fig5 testbench measurements cache per policy too."""
        from repro.orchestrate.spec import UtilizationSpec

        full = UtilizationSpec.indirect(elem_bits=32, index_bits=16, num_banks=17)
        elide = UtilizationSpec.indirect(elem_bits=32, index_bits=16,
                                         num_banks=17, data_policy="elide")
        assert full.cache_key() != elide.cache_key()
        assert dict(elide.params)["data_policy"] == "elide"

    def test_fig5_measurements_policy_parity(self):
        """The fig5 utilization numbers are identical under both policies."""
        from repro.analysis.fig5 import (
            measure_indirect_utilization,
            measure_strided_utilization,
        )

        kwargs = dict(elem_bits=32, index_bits=16, num_banks=17,
                      num_beats=8, num_bursts=2)
        assert measure_indirect_utilization(**kwargs) == \
            measure_indirect_utilization(**kwargs, data_policy="elide")
        skwargs = dict(elem_bits=32, stride_elems=3, num_banks=17, num_beats=8)
        assert measure_strided_utilization(**skwargs) == \
            measure_strided_utilization(**skwargs, data_policy="elide")


class TestCliTimingOnly:
    def test_workloads_timing_only(self, capsys):
        from repro.cli import main

        assert main(["workloads", "--size", "12", "--timing-only",
                     "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "[timing-only]" in out
