"""Integration tests for the vector engine on all three system flavours."""

import numpy as np
import pytest

from repro.system.config import SystemConfig, SystemKind
from repro.system.soc import build_system
from repro.vector.builder import AraProgramBuilder


def run_program(kind, build_fn, init_fn=None, config=None):
    """Build a SoC, assemble a program against its mode, and run it."""
    config = config or SystemConfig(kind=kind, memory_bytes=1 << 20)
    config = config.with_kind(kind)
    soc = build_system(config)
    if init_fn is not None:
        init_fn(soc.storage)
    builder = AraProgramBuilder("test", config.lowering, config.vector_config())
    build_fn(builder)
    cycles, result = soc.run_program(builder.build())
    return soc, cycles, result


ALL_KINDS = (SystemKind.BASE, SystemKind.PACK, SystemKind.IDEAL)


class TestFunctionalExecution:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_load_compute_store(self, kind):
        data = np.arange(32, dtype=np.float32)

        def init(storage):
            storage.write_array(0x100, data)

        def build(builder):
            builder.vle32("v1", 0x100, 32)
            builder.vfmul("v2", "v1", "v1", 32)
            builder.vse32("v2", 0x800, 32)

        soc, cycles, _ = run_program(kind, build, init)
        out = soc.storage.read_array(0x800, 32, np.float32)
        assert np.array_equal(out, data * data)
        assert cycles > 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_strided_load_store(self, kind):
        data = np.arange(256, dtype=np.float32)

        def init(storage):
            storage.write_array(0, data)

        def build(builder):
            builder.vlse32("v1", 0, 16, stride_elems=8)
            builder.vsse32("v1", 0x4000, 16, stride_elems=3)

        soc, _, _ = run_program(kind, build, init)
        back = soc.storage.read_array(0x4000, 16 * 3, np.float32)[::3]
        assert np.array_equal(back, data[::8][:16])

    def test_in_memory_indexed_gather_on_pack(self):
        data = np.arange(512, dtype=np.float32)
        indices = np.asarray([5, 99, 0, 255, 17, 3, 400, 2], dtype=np.uint32)

        def init(storage):
            storage.write_array(0, data)
            storage.write_array(0x8000, indices)

        def build(builder):
            builder.vlimxei32("v1", 0, 0x8000, 8)
            builder.vse32("v1", 0xC000, 8)

        soc, _, result = run_program(SystemKind.PACK, build, init)
        out = soc.storage.read_array(0xC000, 8, np.float32)
        assert np.array_equal(out, data[indices])
        # No index traffic crosses the bus with in-memory indexing.
        assert result.r_index_bytes == 0

    def test_register_indexed_gather_on_base(self):
        data = np.arange(512, dtype=np.float32)
        indices = np.asarray([7, 1, 300, 2], dtype=np.uint32)

        def init(storage):
            storage.write_array(0, data)
            storage.write_array(0x8000, indices)

        def build(builder):
            builder.vle32("v9", 0x8000, 4, kind="index", dtype="uint32")
            builder.vluxei32("v1", 0, "v9", 4, index_base=0x8000)
            builder.vse32("v1", 0xC000, 4)

        soc, _, result = run_program(SystemKind.BASE, build, init)
        out = soc.storage.read_array(0xC000, 4, np.float32)
        assert np.array_equal(out, data[indices])
        # The index fetch is visible as index traffic on the R channel.
        assert result.r_index_bytes == 16

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_reduction(self, kind):
        data = np.arange(64, dtype=np.float32)

        def init(storage):
            storage.write_array(0, data)

        def build(builder):
            builder.vle32("v1", 0, 64)
            builder.vfredsum("v2", "v1", 64)
            builder.vse32("v2", 0x1000, 1)

        soc, _, _ = run_program(kind, build, init)
        out = soc.storage.read_array(0x1000, 1, np.float32)[0]
        assert out == pytest.approx(float(np.sum(data)), rel=1e-5)


class TestTimingBehaviour:
    def _strided_kernel(self, kind, elems=256, stride=5):
        def init(storage):
            storage.write_array(0, np.zeros(elems * stride + 8, dtype=np.float32))

        def build(builder):
            builder.vlse32("v1", 0, elems, stride_elems=stride)

        return run_program(kind, build, init)

    def test_pack_much_faster_than_base_on_strided(self):
        _, base_cycles, base_result = self._strided_kernel(SystemKind.BASE)
        _, pack_cycles, pack_result = self._strided_kernel(SystemKind.PACK)
        assert pack_cycles * 3 < base_cycles
        assert pack_result.r_utilization > 3 * base_result.r_utilization

    def test_ideal_at_least_as_fast_as_pack_on_strided(self):
        _, pack_cycles, _ = self._strided_kernel(SystemKind.PACK)
        _, ideal_cycles, _ = self._strided_kernel(SystemKind.IDEAL)
        assert ideal_cycles <= pack_cycles * 1.1

    def test_contiguous_loads_similar_on_base_and_pack(self):
        def init(storage):
            storage.write_array(0, np.zeros(1024, dtype=np.float32))

        def build(builder):
            builder.vle32("v1", 0, 1024)

        _, base_cycles, _ = run_program(SystemKind.BASE, build, init)
        _, pack_cycles, _ = run_program(SystemKind.PACK, build, init)
        assert abs(base_cycles - pack_cycles) / base_cycles < 0.05

    def test_chaining_overlaps_compute_with_loads(self):
        """With chaining, compute time hides behind the second load."""
        def init(storage):
            storage.write_array(0, np.zeros(2048, dtype=np.float32))

        def build_with_compute(builder):
            builder.vle32("v1", 0, 512)
            builder.vfmul("v3", "v1", "v1", 512)
            builder.vle32("v2", 4096, 512)
            builder.vfmul("v4", "v2", "v2", 512)

        def build_loads_only(builder):
            builder.vle32("v1", 0, 512)
            builder.vle32("v2", 4096, 512)

        _, with_compute, _ = run_program(SystemKind.PACK, build_with_compute, init)
        _, loads_only, _ = run_program(SystemKind.PACK, build_loads_only, init)
        # The chained multiplies should add only a small tail.
        assert with_compute < loads_only + 40

    def test_ordered_store_fences_later_loads(self):
        def init(storage):
            storage.write_array(0, np.zeros(4096, dtype=np.float32))

        def build_fenced(builder):
            builder.vle32("v1", 0, 256)
            builder.vse32("v1", 0x2000, 256, ordered=True)
            builder.vle32("v2", 0x4000, 256)

        def build_unfenced(builder):
            builder.vle32("v1", 0, 256)
            builder.vse32("v1", 0x2000, 256)
            builder.vle32("v2", 0x4000, 256)

        _, fenced, _ = run_program(SystemKind.PACK, build_fenced, init)
        _, unfenced, _ = run_program(SystemKind.PACK, build_unfenced, init)
        assert fenced > unfenced

    @pytest.mark.parametrize("ordered", [False, True], ids=["limit", "fence"])
    def test_blocked_memory_op_is_retried_only_after_a_completion(
        self, monkeypatch, ordered
    ):
        """A memory op held by the outstanding-load limit or a fence is not
        re-checked on every tick: only an op leaving the active set can
        unblock it, so each blocked op fails its dispatch attempt once."""
        from repro.vector.engine import VectorEngine

        attempts = {"failed": 0, "dispatched": 0}
        original = VectorEngine._try_dispatch_memory

        def counting(self, op, cycle):
            dispatched = original(self, op, cycle)
            attempts["dispatched" if dispatched else "failed"] += 1
            return dispatched

        monkeypatch.setattr(VectorEngine, "_try_dispatch_memory", counting)

        def build(builder):
            for index in range(8):
                builder.vlse32(f"v{index + 1}", 0x1000 * index, 64, stride_elems=3)
            if ordered:
                builder.vse32("v1", 0x9000, 64, ordered=True)

        config = SystemConfig(memory_bytes=1 << 20, memory_latency=100)
        run_program(SystemKind.PACK, build, config=config)
        limit = config.vector_config().max_outstanding_loads
        assert attempts["dispatched"] == 8 + ordered
        # Loads 3..8 each wait once for the limit; the fenced store waits
        # once per load still active when it reaches the head.
        assert attempts["failed"] <= 8 - limit + ordered * limit

    def test_scalar_work_costs_cycles(self):
        def init(storage):
            storage.write_array(0, np.zeros(64, dtype=np.float32))

        def build_with_scalar(builder):
            for _ in range(20):
                builder.scalar(10)
            builder.vle32("v1", 0, 8)

        def build_without_scalar(builder):
            builder.vle32("v1", 0, 8)

        _, slow, _ = run_program(SystemKind.PACK, build_with_scalar, init)
        _, fast, _ = run_program(SystemKind.PACK, build_without_scalar, init)
        assert slow >= fast + 190


class TestResultAccounting:
    def test_utilization_accounting_matches_beats(self):
        def init(storage):
            storage.write_array(0, np.zeros(2048, dtype=np.float32))

        def build(builder):
            builder.vle32("v1", 0, 1024)

        _, cycles, result = run_program(SystemKind.PACK, build, init)
        assert result.r_beats == 128
        assert result.r_useful_bytes == 4096
        assert 0 < result.r_utilization <= 1.0
        assert result.r_utilization == pytest.approx(4096 / (32 * cycles))
        assert result.instructions == 1
