"""Assembler-style program builder used by the workload kernels.

The builder plays the role of the compiler + decoder: workloads call methods
named after the vector instructions they would emit, and the builder records
both the instruction listing and the micro-operations the engine executes,
wiring up register data dependencies automatically.

A key design point mirrors the paper: on the PACK system a kernel gathers
through :meth:`AraProgramBuilder.vlimxei32` (indices stay in memory), while
on BASE/IDEAL the same kernel must first :meth:`vle32` the indices into a
vector register and then :meth:`vluxei32` — the builder refuses to assemble
``vlimxei``/``vsimxei`` unless the target has the AXI-Pack extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.axi.stream import ContiguousStream, IndirectStream, StridedStream
from repro.errors import WorkloadError
from repro.vector.config import LoweringMode, VectorEngineConfig
from repro.vector.isa import Instruction, Mnemonic, check_supported
from repro.vector.ops import ScalarWork, VectorCompute, VectorLoad, VectorOp, VectorStore


@dataclass
class Program:
    """A fully assembled kernel: micro-ops plus the assembled instructions."""

    name: str
    mode: LoweringMode
    ops: List[VectorOp] = field(default_factory=list)
    instructions: List[Instruction] = field(default_factory=list)

    @property
    def num_instructions(self) -> int:
        """Number of assembled instructions (scalar work included)."""
        return len(self.instructions)

    def validate(self, config: Optional[VectorEngineConfig] = None) -> None:
        """Check the program is a legal kernel for its lowering mode.

        Raises :class:`~repro.errors.WorkloadError` on the first violation.
        The checks mirror what the engine enforces at dispatch/lowering time
        (ISA support for the mode, vector lengths within the register group,
        dependency ids referring to earlier ops, register-indexed ops naming
        an index register on systems without AXI-Pack) plus data-flow rules
        that would otherwise only surface mid-simulation (reading a vector
        register no earlier op has written).  Programs assembled through
        :class:`AraProgramBuilder` should always pass; the fuzzer calls this
        on every generated program before running it.
        """
        config = config or VectorEngineConfig()
        if not self.ops:
            raise WorkloadError(f"program {self.name!r} contains no instructions")
        if len(self.ops) != len(self.instructions):
            raise WorkloadError(
                f"program {self.name!r} has {len(self.ops)} ops but "
                f"{len(self.instructions)} instructions"
            )
        written: set = set()
        for index, (op, instr) in enumerate(zip(self.ops, self.instructions)):
            where = f"{self.name!r} op {index} ({instr.mnemonic.value})"
            check_supported(instr.mnemonic, self.mode)
            if op.op_id != index:
                raise WorkloadError(f"{where}: op_id {op.op_id} != position {index}")
            for dep in op.deps:
                if not 0 <= dep < index:
                    raise WorkloadError(
                        f"{where}: dependency {dep} does not precede the op"
                    )
            reads: List[str] = []
            if isinstance(op, (VectorLoad, VectorStore)):
                if op.stream is None:
                    raise WorkloadError(f"{where}: memory op has no stream")
                if op.stream.num_elements != instr.vl:
                    raise WorkloadError(
                        f"{where}: stream covers {op.stream.num_elements} "
                        f"elements but vl is {instr.vl}"
                    )
                max_vl = config.max_vl(op.stream.elem_bytes)
                if instr.vl > max_vl:
                    raise WorkloadError(
                        f"{where}: vl {instr.vl} exceeds max_vl {max_vl}"
                    )
                if op.uses_in_memory_indices and not self.mode.has_axi_pack:
                    raise WorkloadError(
                        f"{where}: in-memory indices need the AXI-Pack extension"
                    )
                if (isinstance(op.stream, IndirectStream)
                        and not op.uses_in_memory_indices
                        and op.index_values_reg is None):
                    raise WorkloadError(
                        f"{where}: register-indexed op names no index register"
                    )
                if op.index_values_reg is not None:
                    reads.append(op.index_values_reg)
            elif isinstance(op, VectorCompute):
                if instr.vl > config.max_vl(config.elem_bytes):
                    raise WorkloadError(
                        f"{where}: vl {instr.vl} exceeds max_vl "
                        f"{config.max_vl(config.elem_bytes)}"
                    )
                if op.fn is not None:
                    reads.extend(op.srcs)
            if isinstance(op, VectorStore):
                reads.append(op.src)
            for reg in reads:
                if reg not in written:
                    raise WorkloadError(
                        f"{where}: reads register {reg!r} before any op writes it"
                    )
            if isinstance(op, VectorLoad):
                written.add(op.dest)
            elif isinstance(op, VectorCompute) and op.dest is not None:
                written.add(op.dest)


class AraProgramBuilder:
    """Builds :class:`Program` objects instruction by instruction."""

    def __init__(
        self,
        name: str,
        mode: LoweringMode,
        config: Optional[VectorEngineConfig] = None,
        elem_bytes: int = 4,
    ) -> None:
        self.name = name
        self.mode = mode
        self.config = config or VectorEngineConfig()
        self.elem_bytes = elem_bytes
        self.program = Program(name=name, mode=mode)
        self._writers: Dict[str, int] = {}
        self._readers: Dict[str, List[int]] = {}
        self._last_ordered_mem: Optional[int] = None

    # ------------------------------------------------------------- utilities
    @property
    def max_vl(self) -> int:
        """Largest vector length a single register holds for this element size."""
        return self.config.max_vl(self.elem_bytes)

    def strip_mine(self, total: int) -> List[int]:
        """Split ``total`` elements into chunks of at most ``max_vl``."""
        if total <= 0:
            raise WorkloadError("strip_mine needs a positive element count")
        chunks = []
        remaining = total
        while remaining > 0:
            take = min(self.max_vl, remaining)
            chunks.append(take)
            remaining -= take
        return chunks

    def _next_id(self) -> int:
        return len(self.program.ops)

    def _deps_for(self, reads: Sequence[str], writes: Sequence[str]) -> List[int]:
        deps = []
        for reg in reads:
            if reg in self._writers:
                deps.append(self._writers[reg])
        for reg in writes:
            # Write-after-write and write-after-read ordering keep register
            # reuse well defined (the engine relaxes WAR hazards the way
            # element-granular chaining does, but the dependency must exist).
            if reg in self._writers:
                deps.append(self._writers[reg])
            deps.extend(self._readers.get(reg, ()))
        if self._last_ordered_mem is not None:
            deps.append(self._last_ordered_mem)
        return sorted(set(deps))

    def _add(self, op: VectorOp, instruction: Instruction, writes: Sequence[str],
             reads: Sequence[str] = ()) -> int:
        self.program.ops.append(op)
        self.program.instructions.append(instruction)
        for reg in writes:
            self._writers[reg] = op.op_id
            self._readers[reg] = []
        for reg in reads:
            self._readers.setdefault(reg, []).append(op.op_id)
        return op.op_id

    # ------------------------------------------------------------ scalar side
    def scalar(self, cycles: int, label: str = "loop bookkeeping",
               after: Sequence[int] = ()) -> int:
        """Account for scalar-core work (loop control, pointer arithmetic)."""
        op_id = self._next_id()
        op = ScalarWork(op_id=op_id, deps=sorted(set(after)), cycles=cycles, label=label)
        instr = Instruction(Mnemonic.SCALAR, vl=0, operands={"cycles": cycles}, comment=label)
        return self._add(op, instr, writes=())

    # ----------------------------------------------------------------- loads
    def vle32(self, dest: str, base: int, count: int, kind: str = "data",
              dtype: str = "float32", label: str = "") -> int:
        """Unit-stride load of ``count`` 32-bit elements.

        ``dtype`` selects how the loaded bytes are interpreted in the
        register file (``"uint32"`` for index arrays, ``"float32"`` for
        data); the bus traffic is identical either way.
        """
        check_supported(Mnemonic.VLE32, self.mode)
        op_id = self._next_id()
        stream = ContiguousStream(base=base, num_elements=count, elem_bytes=4)
        op = VectorLoad(op_id=op_id, deps=self._deps_for((), (dest,)), label=label,
                        stream=stream, dest=dest, dtype=dtype, kind=kind)
        instr = Instruction(Mnemonic.VLE32, vl=count,
                            operands={"vd": dest, "base": hex(base)}, comment=label)
        return self._add(op, instr, writes=(dest,))

    def vlse32(self, dest: str, base: int, count: int, stride_elems: int,
               label: str = "") -> int:
        """Strided load of ``count`` 32-bit elements."""
        check_supported(Mnemonic.VLSE32, self.mode)
        op_id = self._next_id()
        stream = StridedStream(base=base, num_elements=count, elem_bytes=4,
                               stride_elems=stride_elems)
        op = VectorLoad(op_id=op_id, deps=self._deps_for((), (dest,)), label=label,
                        stream=stream, dest=dest, dtype="float32")
        instr = Instruction(Mnemonic.VLSE32, vl=count,
                            operands={"vd": dest, "base": hex(base),
                                      "stride": stride_elems}, comment=label)
        return self._add(op, instr, writes=(dest,))

    def vluxei32(self, dest: str, base: int, index_reg: str, count: int,
                 index_base: int, label: str = "") -> int:
        """Register-indexed gather (indices already loaded into ``index_reg``).

        ``index_base`` records where the indices came from so the IDEAL
        system can model perfectly packed gathers; the BASE system resolves
        the register values into narrow per-element transactions.
        """
        check_supported(Mnemonic.VLUXEI32, self.mode)
        op_id = self._next_id()
        stream = IndirectStream(base=base, num_elements=count, elem_bytes=4,
                                index_base=index_base, index_bytes=4)
        op = VectorLoad(op_id=op_id, deps=self._deps_for((index_reg,), (dest,)),
                        label=label, stream=stream, dest=dest, dtype="float32",
                        index_values_reg=index_reg)
        instr = Instruction(Mnemonic.VLUXEI32, vl=count,
                            operands={"vd": dest, "base": hex(base), "vs2": index_reg},
                            comment=label)
        return self._add(op, instr, writes=(dest,), reads=(index_reg,))

    def vlimxei32(self, dest: str, base: int, index_base: int, count: int,
                  index_bytes: int = 4, label: str = "") -> int:
        """In-memory-indexed gather (AXI-Pack extension): indices stay in memory."""
        check_supported(Mnemonic.VLIMXEI32, self.mode)
        op_id = self._next_id()
        stream = IndirectStream(base=base, num_elements=count, elem_bytes=4,
                                index_base=index_base, index_bytes=index_bytes)
        op = VectorLoad(op_id=op_id, deps=self._deps_for((), (dest,)), label=label,
                        stream=stream, dest=dest, dtype="float32",
                        uses_in_memory_indices=True)
        instr = Instruction(Mnemonic.VLIMXEI32, vl=count,
                            operands={"vd": dest, "base": hex(base),
                                      "idx_base": hex(index_base)}, comment=label)
        return self._add(op, instr, writes=(dest,))

    # ---------------------------------------------------------------- stores
    def vse32(self, src: str, base: int, count: int, ordered: bool = False,
              label: str = "") -> int:
        """Unit-stride store of ``count`` 32-bit elements."""
        check_supported(Mnemonic.VSE32, self.mode)
        op_id = self._next_id()
        stream = ContiguousStream(base=base, num_elements=count, elem_bytes=4)
        op = VectorStore(op_id=op_id, deps=self._deps_for((src,), ()), label=label,
                         stream=stream, src=src, dtype="float32", ordered=ordered)
        instr = Instruction(Mnemonic.VSE32, vl=count,
                            operands={"vs": src, "base": hex(base)}, comment=label)
        op_id = self._add(op, instr, writes=(), reads=(src,))
        if ordered:
            self._last_ordered_mem = op_id
        return op_id

    def vsse32(self, src: str, base: int, count: int, stride_elems: int,
               ordered: bool = False, label: str = "") -> int:
        """Strided store of ``count`` 32-bit elements."""
        check_supported(Mnemonic.VSSE32, self.mode)
        op_id = self._next_id()
        stream = StridedStream(base=base, num_elements=count, elem_bytes=4,
                               stride_elems=stride_elems)
        op = VectorStore(op_id=op_id, deps=self._deps_for((src,), ()), label=label,
                         stream=stream, src=src, dtype="float32", ordered=ordered)
        instr = Instruction(Mnemonic.VSSE32, vl=count,
                            operands={"vs": src, "base": hex(base),
                                      "stride": stride_elems}, comment=label)
        op_id = self._add(op, instr, writes=(), reads=(src,))
        if ordered:
            self._last_ordered_mem = op_id
        return op_id

    def vsuxei32(self, src: str, base: int, index_reg: str, count: int,
                 index_base: int, ordered: bool = False, label: str = "") -> int:
        """Register-indexed scatter."""
        check_supported(Mnemonic.VSUXEI32, self.mode)
        op_id = self._next_id()
        stream = IndirectStream(base=base, num_elements=count, elem_bytes=4,
                                index_base=index_base, index_bytes=4)
        op = VectorStore(op_id=op_id, deps=self._deps_for((src, index_reg), ()),
                         label=label, stream=stream, src=src, dtype="float32",
                         ordered=ordered, index_values_reg=index_reg)
        instr = Instruction(Mnemonic.VSUXEI32, vl=count,
                            operands={"vs": src, "base": hex(base), "vs2": index_reg},
                            comment=label)
        op_id = self._add(op, instr, writes=(), reads=(src, index_reg))
        if ordered:
            self._last_ordered_mem = op_id
        return op_id

    def vsimxei32(self, src: str, base: int, index_base: int, count: int,
                  index_bytes: int = 4, ordered: bool = False, label: str = "") -> int:
        """In-memory-indexed scatter (AXI-Pack extension)."""
        check_supported(Mnemonic.VSIMXEI32, self.mode)
        op_id = self._next_id()
        stream = IndirectStream(base=base, num_elements=count, elem_bytes=4,
                                index_base=index_base, index_bytes=index_bytes)
        op = VectorStore(op_id=op_id, deps=self._deps_for((src,), ()), label=label,
                         stream=stream, src=src, dtype="float32", ordered=ordered,
                         uses_in_memory_indices=True)
        instr = Instruction(Mnemonic.VSIMXEI32, vl=count,
                            operands={"vs": src, "base": hex(base),
                                      "idx_base": hex(index_base)}, comment=label)
        op_id = self._add(op, instr, writes=(), reads=(src,))
        if ordered:
            self._last_ordered_mem = op_id
        return op_id

    # ------------------------------------------------------------ arithmetic
    def _compute(self, mnemonic: Mnemonic, dest: Optional[str], srcs: Sequence[str],
                 count: int, fn: Optional[Callable], is_reduction: bool = False,
                 label: str = "", dest_is_src: bool = False) -> int:
        check_supported(mnemonic, self.mode)
        op_id = self._next_id()
        reads = list(srcs) + ([dest] if dest_is_src and dest else [])
        writes = (dest,) if dest else ()
        op = VectorCompute(op_id=op_id, deps=self._deps_for(reads, writes), label=label,
                           num_elements=count, srcs=tuple(reads), dest=dest,
                           is_reduction=is_reduction, fn=fn)
        instr = Instruction(mnemonic, vl=count,
                            operands={"vd": dest, "srcs": ",".join(srcs)}, comment=label)
        return self._add(op, instr, writes=writes, reads=tuple(reads))

    def compute(self, mnemonic: Mnemonic, dest: Optional[str], srcs: Sequence[str],
                count: int, fn: Optional[Callable] = None, is_reduction: bool = False,
                dest_is_src: bool = False, label: str = "") -> int:
        """Assemble an arithmetic instruction with a custom functional body.

        Workloads use this for operations whose numpy semantics need extra
        context baked in (e.g. the variable-length accumulations of the
        column-wise triangular kernel or PageRank's damping update).
        """
        return self._compute(mnemonic, dest, srcs, count, fn=fn,
                             is_reduction=is_reduction, label=label,
                             dest_is_src=dest_is_src)

    def vfadd(self, dest: str, a: str, b: str, count: int, label: str = "") -> int:
        """Element-wise addition."""
        return self._compute(Mnemonic.VFADD, dest, (a, b), count,
                             fn=lambda x, y: x + y, label=label)

    def vfmul(self, dest: str, a: str, b: str, count: int, label: str = "") -> int:
        """Element-wise multiplication."""
        return self._compute(Mnemonic.VFMUL, dest, (a, b), count,
                             fn=lambda x, y: x * y, label=label)

    def vfmacc(self, dest: str, a: str, b: str, count: int, label: str = "") -> int:
        """Fused multiply-accumulate: ``dest += a * b``."""
        return self._compute(Mnemonic.VFMACC, dest, (a, b), count,
                             fn=lambda x, y, acc: (acc + x * y).astype(np.float32),
                             label=label, dest_is_src=True)

    def vfmacc_vf(self, dest: str, a: str, scalar: float, count: int, label: str = "") -> int:
        """Vector-scalar multiply-accumulate: ``dest += a * scalar``."""
        return self._compute(Mnemonic.VFMACC_VF, dest, (a,), count,
                             fn=lambda x, acc: (acc + x * np.float32(scalar)).astype(np.float32),
                             label=label, dest_is_src=True)

    def vfmin(self, dest: str, a: str, b: str, count: int, label: str = "") -> int:
        """Element-wise minimum (used by sssp relaxations)."""
        return self._compute(Mnemonic.VFMIN, dest, (a, b), count,
                             fn=lambda x, y: np.minimum(x, y), label=label)

    def vfredsum(self, dest: str, src: str, count: int, label: str = "") -> int:
        """Sum reduction of ``src`` into the single-element register ``dest``."""
        return self._compute(Mnemonic.VFREDSUM, dest, (src,), count,
                             fn=lambda x: np.asarray([np.float32(np.sum(x, dtype=np.float32))]),
                             is_reduction=True, label=label)

    def vfredmin(self, dest: str, src: str, count: int, label: str = "") -> int:
        """Minimum reduction of ``src`` into ``dest``."""
        return self._compute(Mnemonic.VFREDMIN, dest, (src,), count,
                             fn=lambda x: np.asarray([np.float32(np.min(x))]),
                             is_reduction=True, label=label)

    def vmv_vx(self, dest: str, value: float, count: int, label: str = "") -> int:
        """Broadcast a scalar into a vector register."""
        return self._compute(Mnemonic.VMV_VX, dest, (), count,
                             fn=lambda: np.full(count, np.float32(value), dtype=np.float32),
                             label=label)

    # ----------------------------------------------------------------- fences
    def fence(self) -> None:
        """Order all subsequent memory operations after all previous ones."""
        mem_ops = [op.op_id for op in self.program.ops if op.is_memory]
        if mem_ops:
            self._last_ordered_mem = mem_ops[-1]

    # ----------------------------------------------------------------- result
    def build(self) -> Program:
        """Return the assembled program."""
        if not self.program.ops:
            raise WorkloadError(f"program {self.name!r} contains no instructions")
        return self.program
