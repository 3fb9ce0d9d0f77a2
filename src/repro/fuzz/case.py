"""Fuzz-case description, normalization, and lowering to builder programs.

A :class:`FuzzCase` is a compact, JSON-serializable recipe for a random but
*legal* vector kernel: a target system kind, a data seed, and one or more
*segments* of abstract op specs.  Segments are the sharding unit — a
two-engine run splits the segments across engines the same way
``Workload.shard_rows`` splits rows — so a segment must lower to the exact
same instruction sequence whether it lands in a shared or a private program.
That is why all normalization (clamping counts, resolving addresses,
repairing reads of cold registers) happens per segment, never globally.

The address map keeps the differential harness deterministic by
construction:

* a read-only input region that loads/gathers source from,
* per-op index arrays (written once at initialization, never stored to),
* per-store-op disjoint output regions.

Because no two store ops ever alias and inputs are never written, the final
memory image is independent of how ops interleave across engines — the
functional oracle's program-order answer is exact for every cube point.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import WorkloadError
from repro.mem.storage import MemoryStorage
from repro.vector.builder import AraProgramBuilder, Program
from repro.vector.config import LoweringMode, VectorEngineConfig
from repro.workloads.base import idle_program, shard_ranges

#: Read-only float32 input region all loads/gathers source from.
INPUT_BASE = 0x1000
INPUT_ELEMS = 2048
#: Index arrays for gathers/scatters are bump-allocated from here.
INDEX_BASE = 0x40000
#: Per-store-op output regions are bump-allocated from here.
OUTPUT_BASE = 0x100000
#: Upper bound on vector length per op (well under max_vl = 1024).
MAX_COUNT = 256
#: Scatters use a permutation, so cap them lower to bound index-array size.
MAX_SCATTER = 128
#: Size of the per-segment data register pool (r0..r5).
NUM_REGS = 6

#: Abstract op kinds a segment may contain.
OP_KINDS = (
    "vle",            # unit-stride load from the input region
    "vlse",           # strided load from the input region
    "gather",         # indexed load (vlimxei32 on PACK, vle32+vluxei32 else)
    "vse",            # unit-stride store to a private output region
    "vsse",           # strided store to a private output region
    "scatter",        # indexed store through a permutation (no duplicates)
    "add",            # vfadd dest = src + src2
    "mul",            # vfmul dest = src * src2
    "macc",           # vfmacc dest += src * src2
    "redsum",         # vfredsum dest = sum(src)
    "broadcast",      # vmv_vx dest = value
    "scalar",         # scalar-core bookkeeping cycles
    "fence_readback", # ordered store + fence + load back from the same region
)


@dataclass(frozen=True)
class OpSpec:
    """One abstract op. Unused fields are ignored by the op's kind."""

    kind: str
    dest: int = 0
    src: int = 0
    src2: int = 0
    count: int = 1
    offset: int = 0
    stride: int = 1
    value: float = 1.0
    indices: Tuple[int, ...] = ()
    cycles: int = 1


@dataclass(frozen=True)
class FuzzCase:
    """A complete fuzz input: system kind, data seed, and op segments.

    ``bus_fault`` is the optional fault-injection axis: ``(kind, ordinal)``
    where ``kind`` is a :data:`repro.axi.faults.BUS_FAULT_KINDS` entry and
    ``ordinal`` selects one of the case's *store* ops (modulo the store
    count, in (segment, position) order).  The runner turns it into a
    :class:`~repro.axi.faults.BusFaultPlan` keyed on the chosen store's
    output byte-address region — topology-stable by construction, so the
    same case faults the same access on every cube topology.  Cases with no
    store ops run fault-free regardless.
    """

    kind: str = "pack"
    seed: int = 0
    segments: Tuple[Tuple[OpSpec, ...], ...] = ((OpSpec("vle"),),)
    bus_fault: Optional[Tuple[str, int]] = None

    @property
    def mode(self) -> LoweringMode:
        return LoweringMode(self.kind)

    def describe(self) -> str:
        ops = sum(len(segment) for segment in self.segments)
        fault = f", bus_fault={self.bus_fault[0]}@store{self.bus_fault[1]}" \
            if self.bus_fault else ""
        return (f"FuzzCase(kind={self.kind}, seed={self.seed}, "
                f"{len(self.segments)} segment(s), {ops} op(s){fault})")


# --------------------------------------------------------------- planning
@dataclass(frozen=True)
class PlannedOp:
    """An :class:`OpSpec` with every field clamped legal and addresses fixed."""

    kind: str
    dest: int = 0
    src: int = 0
    src2: int = 0
    count: int = 1
    base: int = 0
    stride: int = 1
    value: float = 1.0
    index_addr: int = 0
    indices: Optional[np.ndarray] = None
    cycles: int = 1


@dataclass
class CasePlan:
    """A normalized case: resolved ops plus the index arrays to pre-load."""

    case: FuzzCase
    segments: List[List[PlannedOp]] = field(default_factory=list)
    index_arrays: List[Tuple[int, np.ndarray]] = field(default_factory=list)


def _clamp_count(count: int, limit: int = MAX_COUNT) -> int:
    return max(1, min(int(count), limit))


def _as_permutation(indices: Sequence[int], n: int) -> np.ndarray:
    """Coerce arbitrary ints into a permutation of ``range(n)``.

    Values are taken mod ``n``; collisions advance to the next free slot.
    Scatters must not carry duplicate indices: the cycle-level model issues
    element writes in whatever order the datapath lowers them, so duplicate
    targets would make the final byte depend on timing.
    """
    taken = np.zeros(n, dtype=bool)
    out = np.empty(n, dtype=np.uint32)
    for pos in range(n):
        value = int(indices[pos]) % n if pos < len(indices) else pos
        while taken[value]:
            value = (value + 1) % n
        taken[value] = True
        out[pos] = value
    return out


def plan_case(case: FuzzCase) -> CasePlan:
    """Normalize a case: clamp every field legal and allocate all addresses.

    Allocation walks ops in (segment, position) order with shared bump
    cursors, so the plan is identical no matter how segments are later
    sharded across engines.
    """
    plan = CasePlan(case=case)
    out_cursor = OUTPUT_BASE
    idx_cursor = INDEX_BASE

    def alloc_out(nbytes: int) -> int:
        nonlocal out_cursor
        base = out_cursor
        # Keep regions 64-byte aligned and pad so neighbouring bursts never
        # share a bus beat (data disjointness must hold at byte level).
        out_cursor += (nbytes + 63) // 64 * 64
        return base

    def alloc_index(values: np.ndarray) -> int:
        nonlocal idx_cursor
        base = idx_cursor
        idx_cursor += (values.nbytes + 63) // 64 * 64
        if idx_cursor > OUTPUT_BASE:
            raise WorkloadError("fuzz case exhausted the index region")
        plan.index_arrays.append((base, values))
        return base

    for segment in case.segments:
        planned: List[PlannedOp] = []
        for spec in segment:
            kind = spec.kind
            dest = spec.dest % NUM_REGS
            src = spec.src % NUM_REGS
            src2 = spec.src2 % NUM_REGS
            if kind == "vle":
                offset = spec.offset % INPUT_ELEMS
                count = _clamp_count(spec.count, min(MAX_COUNT, INPUT_ELEMS - offset))
                planned.append(PlannedOp("vle", dest=dest, count=count,
                                         base=INPUT_BASE + 4 * offset))
            elif kind == "vlse":
                offset = spec.offset % INPUT_ELEMS
                stride = 1 + abs(int(spec.stride)) % 32
                span = (INPUT_ELEMS - 1 - offset) // stride + 1
                count = _clamp_count(spec.count, min(MAX_COUNT, span))
                planned.append(PlannedOp("vlse", dest=dest, count=count,
                                         base=INPUT_BASE + 4 * offset,
                                         stride=stride))
            elif kind == "gather":
                raw = spec.indices or (0,)
                values = np.asarray([int(i) % INPUT_ELEMS
                                     for i in raw[:MAX_COUNT]], dtype=np.uint32)
                planned.append(PlannedOp("gather", dest=dest,
                                         count=len(values), base=INPUT_BASE,
                                         index_addr=alloc_index(values),
                                         indices=values))
            elif kind == "vse":
                count = _clamp_count(spec.count)
                planned.append(PlannedOp("vse", src=src, count=count,
                                         base=alloc_out(count * 4)))
            elif kind == "vsse":
                stride = 1 + abs(int(spec.stride)) % 8
                count = _clamp_count(spec.count)
                nbytes = ((count - 1) * stride + 1) * 4
                planned.append(PlannedOp("vsse", src=src, count=count,
                                         stride=stride, base=alloc_out(nbytes)))
            elif kind == "scatter":
                n = _clamp_count(len(spec.indices) or 1, MAX_SCATTER)
                values = _as_permutation(spec.indices, n)
                planned.append(PlannedOp("scatter", src=src, count=n,
                                         base=alloc_out(n * 4),
                                         index_addr=alloc_index(values),
                                         indices=values))
            elif kind in ("add", "mul", "macc"):
                count = _clamp_count(spec.count)
                planned.append(PlannedOp(kind, dest=dest, src=src, src2=src2,
                                         count=count))
            elif kind == "redsum":
                count = _clamp_count(spec.count)
                planned.append(PlannedOp("redsum", dest=dest, src=src,
                                         count=count))
            elif kind == "broadcast":
                count = _clamp_count(spec.count)
                value = float(np.float32(spec.value))
                if not np.isfinite(value):
                    value = 1.0
                planned.append(PlannedOp("broadcast", dest=dest, count=count,
                                         value=value))
            elif kind == "scalar":
                planned.append(PlannedOp("scalar",
                                         cycles=max(1, min(int(spec.cycles), 8))))
            elif kind == "fence_readback":
                count = _clamp_count(spec.count)
                planned.append(PlannedOp("fence_readback", dest=dest, src=src,
                                         count=count,
                                         base=alloc_out(count * 4)))
            else:
                raise WorkloadError(f"unknown fuzz op kind {kind!r}")
        plan.segments.append(planned)
    return plan


# ----------------------------------------------------------- initialization
def initialize_image(storage: MemoryStorage, plan: CasePlan) -> None:
    """Write the input data and every index array into a fresh memory image."""
    rng = np.random.default_rng(plan.case.seed)
    data = rng.standard_normal(INPUT_ELEMS).astype(np.float32)
    storage.write_array(INPUT_BASE, data)
    for base, values in plan.index_arrays:
        storage.write_array(base, values)


# ------------------------------------------------------------------ emission
def _emit_segment(builder: AraProgramBuilder, seg_id: int,
                  planned: Sequence[PlannedOp], mode: LoweringMode) -> None:
    """Lower one segment's planned ops through the program builder.

    ``warm`` tracks the exact element length of each pool register some
    earlier op in *this segment* produced; reading an unsuitable register
    first broadcasts a deterministic fill (the legality repair that makes
    every random sequence a valid program).  Stores only need the register
    to hold at least ``count`` elements, but elementwise arithmetic applies
    its ``fn`` to the *whole* registers, so those sources must match the op
    length exactly.  The repair is segment-local on purpose: the emitted
    instruction stream must not change when neighbouring segments move to a
    different engine.
    """
    warm: Dict[int, int] = {}

    def reg(index: int) -> str:
        return f"s{seg_id}r{index}"

    def fill(index: int, count: int) -> None:
        builder.vmv_vx(reg(index), 0.5 * (index + 1), count,
                       label=f"warm r{index}")
        warm[index] = count

    def ensure_min(index: int, count: int) -> None:
        if warm.get(index, 0) < count:
            fill(index, count)

    def ensure_exact(index: int, count: int) -> None:
        if warm.get(index, 0) != count:
            fill(index, count)

    for pos, op in enumerate(planned):
        idx_reg = f"s{seg_id}x{pos}"
        if op.kind == "vle":
            builder.vle32(reg(op.dest), op.base, op.count)
            warm[op.dest] = op.count
        elif op.kind == "vlse":
            builder.vlse32(reg(op.dest), op.base, op.count, op.stride)
            warm[op.dest] = op.count
        elif op.kind == "gather":
            if mode.has_axi_pack:
                builder.vlimxei32(reg(op.dest), op.base, op.index_addr, op.count)
            else:
                builder.vle32(idx_reg, op.index_addr, op.count,
                              kind="index", dtype="uint32")
                builder.vluxei32(reg(op.dest), op.base, idx_reg, op.count,
                                 index_base=op.index_addr)
            warm[op.dest] = op.count
        elif op.kind == "vse":
            ensure_min(op.src, op.count)
            builder.vse32(reg(op.src), op.base, op.count)
        elif op.kind == "vsse":
            ensure_min(op.src, op.count)
            builder.vsse32(reg(op.src), op.base, op.count, op.stride)
        elif op.kind == "scatter":
            ensure_min(op.src, op.count)
            if mode.has_axi_pack:
                builder.vsimxei32(reg(op.src), op.base, op.index_addr, op.count)
            else:
                builder.vle32(idx_reg, op.index_addr, op.count,
                              kind="index", dtype="uint32")
                builder.vsuxei32(reg(op.src), op.base, idx_reg, op.count,
                                 index_base=op.index_addr)
        elif op.kind in ("add", "mul"):
            ensure_exact(op.src, op.count)
            ensure_exact(op.src2, op.count)
            emit = builder.vfadd if op.kind == "add" else builder.vfmul
            emit(reg(op.dest), reg(op.src), reg(op.src2), op.count)
            warm[op.dest] = op.count
        elif op.kind == "macc":
            ensure_exact(op.src, op.count)
            ensure_exact(op.src2, op.count)
            ensure_exact(op.dest, op.count)
            builder.vfmacc(reg(op.dest), reg(op.src), reg(op.src2), op.count)
            warm[op.dest] = op.count
        elif op.kind == "redsum":
            ensure_min(op.src, op.count)
            builder.vfredsum(reg(op.dest), reg(op.src), op.count)
            warm[op.dest] = 1
        elif op.kind == "broadcast":
            builder.vmv_vx(reg(op.dest), op.value, op.count)
            warm[op.dest] = op.count
        elif op.kind == "scalar":
            builder.scalar(op.cycles, label="fuzz scalar work")
        elif op.kind == "fence_readback":
            ensure_min(op.src, op.count)
            builder.vse32(reg(op.src), op.base, op.count, ordered=True,
                          label="fenced store")
            builder.fence()
            builder.vle32(reg(op.dest), op.base, op.count, label="readback")
            warm[op.dest] = op.count


def build_case_programs(
    plan_or_case: Union[CasePlan, FuzzCase],
    num_engines: int = 1,
    config: Optional[VectorEngineConfig] = None,
) -> List[Program]:
    """Lower a case into one validated program per engine.

    Segments are split across engines exactly like ``Workload.shard_rows``
    splits rows (balanced contiguous ranges); an engine left without
    segments receives the standard idle program.
    """
    plan = plan_or_case if isinstance(plan_or_case, CasePlan) else plan_case(plan_or_case)
    case = plan.case
    mode = case.mode
    config = config or VectorEngineConfig()
    programs: List[Program] = []
    for engine, (lo, hi) in enumerate(shard_ranges(len(plan.segments), num_engines)):
        name = f"fuzz-{case.kind}-s{case.seed}-e{engine}"
        if lo == hi:
            programs.append(idle_program(name, mode, config))
            continue
        builder = AraProgramBuilder(name, mode, config)
        for seg_id in range(lo, hi):
            _emit_segment(builder, seg_id, plan.segments[seg_id], mode)
        program = builder.build()
        program.validate(config)
        programs.append(program)
    return programs


# -------------------------------------------------------------- persistence
def case_to_dict(case: FuzzCase) -> dict:
    """JSON-ready dict; inverse of :func:`case_from_dict`.

    ``bus_fault`` is emitted only when set, so fault-free cases keep the
    digests (and corpus file names) they had before the axis existed.
    """
    payload = {
        "kind": case.kind,
        "seed": case.seed,
        "segments": [
            [{key: (list(value) if isinstance(value, tuple) else value)
              for key, value in dataclasses.asdict(spec).items()}
             for spec in segment]
            for segment in case.segments
        ],
    }
    if case.bus_fault is not None:
        payload["bus_fault"] = list(case.bus_fault)
    return payload


def case_from_dict(payload: dict) -> FuzzCase:
    """Rebuild a case from :func:`case_to_dict` output."""
    segments = tuple(
        tuple(OpSpec(**{key: (tuple(value) if key == "indices" else value)
                        for key, value in spec.items()})
              for spec in segment)
        for segment in payload["segments"]
    )
    bus_fault = payload.get("bus_fault")
    return FuzzCase(kind=payload["kind"], seed=payload["seed"],
                    segments=segments,
                    bus_fault=tuple(bus_fault) if bus_fault else None)


def case_digest(case: FuzzCase) -> str:
    """Short content hash used to name corpus files."""
    canonical = json.dumps(case_to_dict(case), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def save_corpus_case(case: FuzzCase, directory: Union[str, Path],
                     note: str = "") -> Path:
    """Write a case (e.g. a shrunk divergence) as a corpus JSON file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"case-{case_digest(case)}.json"
    payload = {"schema": 1, "note": note, "case": case_to_dict(case)}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_corpus_case(path: Union[str, Path]) -> FuzzCase:
    """Load a corpus JSON file written by :func:`save_corpus_case`."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != 1:
        raise WorkloadError(f"unsupported corpus schema in {path}")
    return case_from_dict(payload["case"])
