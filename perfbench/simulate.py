"""The three simulation workloads: fixed point sets run pass after pass.

A *point* is one kernel on one system: the workload is built from its
``WorkloadSpec`` (with the benchmark seed), the SoC is built, the input
image is written, the program(s) are built, ``Soc.run_programs`` simulates,
and ``Workload.verify`` checks the memory image.  A *pass* runs every point
of a workload once, in a fixed order.  The closed loop runs passes back to
back in one process; each pass starts when the previous one finished.

Points are timed in the main thread's CPU time (the simulator is
single-threaded): the run call, the set-up before the first simulated
cycle, and the whole point.  Not process CPU time: while the host-speed
sampler's ``ITIMER_PROF`` timer is armed, the process CPU clock advances in
4 ms ticks.  A ``metrics.HostSpeed`` sampler probes host speed throughout,
and every host time of a pass is scaled to reference seconds by the speed
sampled over that pass.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from metrics import (
    REFERENCE_FINGERPRINT_SPEED,
    HostSpeed,
    geomean,
    median,
    percentile,
    probe_fingerprint_speed,
)


@dataclass(frozen=True)
class PointSet:
    """The fixed points of one simulation workload.

    Each sparse kernel runs on ``matrices`` random matrices, with workload
    seeds ``seed * matrices + j``; dense kernels run once, because their
    seed changes only data, never cycles.
    """

    kernels: Tuple[str, ...]
    kinds: Tuple[str, ...]
    memory_latency: int
    engines: int = 1
    channels: int = 1
    matrices: int = 1

    def points(self, seed: int) -> List[Tuple[str, int, str]]:
        """``(kernel, workload seed, kind)`` of every point, in run order."""
        from repro.analysis.headline import DENSE_WORKLOADS

        return [
            (kernel, seed * self.matrices + matrix, kind)
            for kernel in self.kernels
            for matrix in range(1 if kernel in DENSE_WORKLOADS else self.matrices)
            for kind in self.kinds
        ]


#: Workload name -> its point set (see README.md for why each was chosen).
#: On the crossbar, csrspmv's cycle count moves by up to 30% from one random
#: matrix to the next (the IQR across ten seeds was 16% of the median with
#: one matrix per pass), so a pass averages three matrices.
POINT_SETS: Dict[str, PointSet] = {
    "strided-sram": PointSet(("ismt", "gemv", "trmv"), ("base", "pack", "ideal"), 1),
    "indirect-dram": PointSet(("spmv", "sssp", "csrspmv"), ("base", "pack", "ideal"), 100),
    "crossbar-sram": PointSet(("gemv", "csrspmv"), ("base", "pack"), 1,
                              engines=2, channels=2, matrices=3),
}

#: A pass never ends the loop before this many timed passes exist.
MIN_PASSES = 2

#: Seconds of warm-cache re-runs.
WARM_SECONDS = 1.0

#: Workload seed of the tiny pass whose results are re-served warm.  Fixed,
#: and re-served before any seeded point runs, so the re-serves meet the same
#: heap on every run: after sparse points, whose structure follows the seed,
#: re-serve times split into seed-dependent modes up to 35% apart.
WARM_SEED = 0


@dataclass
class PointRun:
    """Measurements and outcome of one point."""

    kernel: str
    kind: Any
    spec: Any = None
    config: Any = None
    cycles: int = 0
    engine: Any = None
    engines: Optional[list] = None
    stats: Dict[str, float] = field(default_factory=dict)
    setup_s: float = 0.0
    run_s: float = 0.0
    #: set-up, simulation and verification
    total_s: float = 0.0
    ok: bool = False
    error: Optional[str] = None

    def signature(self) -> Tuple:
        """What must repeat bit for bit: cycles and every statistic."""
        return (self.cycles, tuple(sorted(self.stats.items())))


@dataclass
class Pass:
    points: List[PointRun]
    #: unscaled wall seconds the pass took, probes included
    elapsed_s: float
    #: reference seconds per measured second over the pass
    scale: float = 1.0
    #: share of the pass the host-speed probe took
    probe_share: float = 0.0

    @property
    def total_s(self) -> float:
        return sum(point.total_s for point in self.points)

    @property
    def cycles(self) -> int:
        return sum(point.cycles for point in self.points)

    @property
    def run_s(self) -> float:
        return sum(point.run_s for point in self.points)

    @property
    def setup_s(self) -> float:
        return sum(point.setup_s for point in self.points)

    @property
    def failed(self) -> int:
        return sum(1 for point in self.points if not point.ok)


def run_point(kernel: str, kind_name: str, points: PointSet, seed: int,
              scale: str, speed: Optional[HostSpeed] = None) -> PointRun:
    """Build, simulate and verify one point; failures are recorded, not raised.

    Host times are measured seconds minus the time ``speed``'s probe took
    inside them; :func:`run_pass` scales them to reference seconds.
    """
    from repro.analysis.headline import point_system_config, workload_spec_kwargs
    from repro.axi.transaction import reset_txn_ids
    from repro.orchestrate.spec import WorkloadSpec
    from repro.system.config import SystemKind
    from repro.system.soc import build_system
    from repro.vector.engine import EngineResult

    def probed() -> float:
        return 0.0 if speed is None else speed.spent

    kind = SystemKind(kind_name)
    run = PointRun(kernel=kernel, kind=kind)
    start, start_probed = time.thread_time(), probed()
    try:
        reset_txn_ids()
        run.spec = WorkloadSpec.create(kernel, seed=seed,
                                       **workload_spec_kwargs(kernel, scale))
        instance = run.spec.build()
        config = point_system_config(kind, points.memory_latency, "full")
        if points.engines != 1 or points.channels != 1:
            config = replace(config, num_engines=points.engines,
                             num_channels=points.channels)
        run.config = config
        soc = build_system(config)
        instance.initialize(soc.storage)
        programs = instance.build_sharded_programs(
            config.lowering, config.vector_config(), points.engines
        )
        run.setup_s = time.thread_time() - start - (probed() - start_probed)
        simulated, simulated_probed = time.thread_time(), probed()
        run.cycles, results = soc.run_programs(programs)
        run.run_s = time.thread_time() - simulated - (probed() - simulated_probed)
        if len(results) == 1:
            run.engine = results[0]
        else:
            run.engines = results
            run.engine = EngineResult.aggregate(results, run.cycles)
        run.stats = soc.stats_snapshot()
        if soc.last_fault_report is not None:
            run.error = f"fault report: {soc.last_fault_report}"
        elif not instance.verify(soc.storage):
            run.error = "Workload.verify failed"
        else:
            run.ok = True
    except Exception as exc:  # a failing point is counted, the loop goes on
        run.error = f"{type(exc).__name__}: {exc}"
    run.total_s = time.thread_time() - start - (probed() - start_probed)
    return run


def run_pass(points: PointSet, seed: int, scale: str,
             speed: Optional[HostSpeed] = None) -> Pass:
    """Every point of ``points`` once, in order.

    With an active ``speed`` sampler, host times are in reference seconds,
    scaled by the speed sampled over the whole pass.  Garbage from the
    previous point is collected before each point, outside its timed
    stretch.
    """
    start = time.perf_counter()
    mark = None if speed is None else speed.mark()
    runs = []
    for kernel, point_seed, kind in points.points(seed):
        gc.collect()
        runs.append(run_point(kernel, kind, points, point_seed, scale, speed))
    one = Pass(runs, time.perf_counter() - start)
    if speed is not None:
        one.scale = speed.scale(mark)
        one.probe_share = speed.probe_seconds(mark) / one.elapsed_s
        for run in runs:
            run.setup_s *= one.scale
            run.run_s *= one.scale
            run.total_s *= one.scale
    return one


def compare_passes(reference: Pass, other: Pass) -> int:
    """Points of ``other`` whose cycles or stats differ from ``reference``."""
    return sum(
        1 for ref, run in zip(reference.points, other.points)
        if ref.ok and run.ok and ref.signature() != run.signature()
    )


class WarmCache:
    """A pass's results in a warm in-memory cache, served back on demand.

    Every verified point is stored under the ``RunSpec`` that describes it
    in a ``MemoryCache`` (the cache ``run_sweep`` gives a default runner);
    :meth:`rerun` then has fresh serial ``ParallelRunner`` objects re-run
    the whole spec list against it.  The on-disk ``ResultCache`` path is
    ``sweep-small``'s: re-serving a few ~3 ms batches from disk differed by
    up to 40% from one process to the next.
    """

    def __init__(self, runs: Sequence[PointRun]) -> None:
        from repro.orchestrate.cache import MemoryCache
        from repro.orchestrate.spec import RunSpec
        from repro.system.results import SystemRunResult

        self.cache = MemoryCache()
        self.specs = []
        for run in runs:
            if not run.ok:
                continue
            spec = RunSpec(workload=run.spec, config=run.config, kind=run.kind,
                           verify=True)
            self.cache.put(spec, SystemRunResult(
                workload=run.kernel, kind=run.kind, cycles=run.cycles,
                engine=run.engine, stats=run.stats, verified=True,
                engines=run.engines,
            ))
            self.specs.append((spec, run.cycles))
        #: specs not served from the cache or served with other cycles
        self.bad = 0
        self.runner = None

    def rerun(self, seconds: float, speed: HostSpeed) -> List[float]:
        """Re-run for ``seconds`` (at least 3 times) in 0.1 s chunks.

        Returns the CPU time of each re-run the ``speed`` sampler did not
        interrupt (the others are dropped), in reference seconds: each chunk
        is scaled by :func:`metrics.probe_fingerprint_speed` measured on
        either side of it, because a re-serve is mostly spec fingerprinting.
        """
        from repro.orchestrate.faults import FaultPlan
        from repro.orchestrate.parallel import ParallelRunner

        times: List[float] = []
        deadline = time.perf_counter() + seconds
        before = probe_fingerprint_speed()
        while len(times) < 3 or time.perf_counter() < deadline:
            chunk: List[float] = []
            chunk_end = time.perf_counter() + 0.1
            while not chunk or time.perf_counter() < chunk_end:
                self.runner = ParallelRunner(jobs=1, cache=self.cache, faults=FaultPlan())
                mark = speed.mark()
                start = time.thread_time()
                results = self.runner.run([spec for spec, _ in self.specs])
                elapsed = time.thread_time() - start
                if not speed.probe_seconds(mark):
                    chunk.append(elapsed)
                self.bad += sum(
                    1 for (_, cycles), result, outcome
                    in zip(self.specs, results, self.runner.outcomes)
                    if outcome.status != "cached" or result.cycles != cycles
                )
            after = probe_fingerprint_speed()
            factor = (before + after) / 2.0 / REFERENCE_FINGERPRINT_SPEED
            times.extend(elapsed * factor for elapsed in chunk)
            before = after
        return times


# ----------------------------------------------------------------- metrics
def end_to_end(passes: List[Pass], warm_times: List[float],
               peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of a simulation workload's timed passes."""
    last = passes[-1].points
    cycles: Dict[Tuple[str, str], int] = {}
    for run in last:
        key = (run.kernel, run.kind.value)
        cycles[key] = cycles.get(key, 0) + run.cycles
    kernels = sorted({run.kernel for run in last})
    pack = [run.engine.r_utilization for run in last
            if run.kind.value == "pack" and run.ok]
    samples = [run.total_s for one in passes for run in one.points]
    ratios = [
        cycles[(kernel, "base")] / cycles[(kernel, "pack")]
        for kernel in kernels if cycles[(kernel, "base")] and cycles[(kernel, "pack")]
    ]
    return {
        "sim_cycles_per_s": median([one.cycles / one.run_s for one in passes if one.run_s]),
        "setup_s": median([one.setup_s for one in passes]),
        "peak_rss_mb": peak_rss_mb,
        "sim_cycles": passes[-1].cycles,
        "pack_speedup": geomean(ratios) if ratios else 0.0,
        "pack_r_util": sum(pack) / len(pack) if pack else 0.0,
        "sweep_sims_per_s": median([len(one.points) / one.total_s for one in passes]),
        "sweep_warm_s": median(warm_times),
        "spec_s.p50": percentile(samples, 50),
        "spec_s.p99": percentile(samples, 99),
    }


def run_workload(name: str, seed: int, seconds: float,
                 scale: str) -> Tuple[Dict[str, float], int, int, List[str]]:
    """Untraced run: warm-cache re-serve, warm-up, timed passes.

    Returns ``(metrics, attempted, failed, errors)``.
    """
    from metrics import peak_rss_mb

    points = POINT_SETS[name]
    with HostSpeed() as speed:
        warm = WarmCache(run_pass(points, WARM_SEED, "tiny").points)
        warm_times = warm.rerun(WARM_SECONDS, speed)
        run_pass(points, seed, "small" if scale == "medium" else scale)  # warm-up
        passes: List[Pass] = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(points, seed, scale, speed))
            elapsed = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and elapsed + passes[-1].elapsed_s > seconds:
                break
    mismatched = sum(compare_passes(passes[0], one) for one in passes[1:])
    errors = [f"{run.kernel}/{run.kind.value}: {run.error}"
              for one in passes for run in one.points if run.error]
    attempted = sum(len(one.points) for one in passes)
    failed = sum(one.failed for one in passes) + mismatched + warm.bad
    return end_to_end(passes, warm_times, peak_rss_mb()), attempted, failed, errors


def run_traced(name: str, seed: int, seconds: float,
               scale: str) -> Tuple[Dict[str, float], int, int, List[str]]:
    """Traced run: untraced and traced passes alternate; per-layer metrics.

    Layer host times are in reference seconds, with the probe's share
    removed in proportion.
    """
    from metrics import layer_metrics
    from spans import Tracer, installed_spans

    points = POINT_SETS[name]
    tracer = Tracer()
    untraced: List[Pass] = []
    traced: List[Pass] = []
    samples: List[Dict[str, float]] = []
    failed = 0
    with HostSpeed() as speed:
        run_pass(points, seed, "small" if scale == "medium" else scale)  # warm-up
        start = time.perf_counter()
        while True:
            if installed_spans():
                raise RuntimeError("span wrappers installed before an untraced pass")
            untraced.append(run_pass(points, seed, scale, speed))
            tracer.reset()
            with tracer:
                traced.append(run_pass(points, seed, scale, speed))
            one = traced[-1]
            failed += compare_passes(untraced[0], untraced[-1])
            failed += compare_passes(untraced[0], one)
            samples.append(layer_metrics(
                tracer,
                [(run.stats, run.engine.bus_bytes) for run in one.points if run.ok],
                one.scale * (1.0 - one.probe_share),
            ))
            elapsed = time.perf_counter() - start
            if elapsed + untraced[-1].elapsed_s + one.elapsed_s > seconds:
                break
        tiny = run_pass(points, WARM_SEED, "tiny").points
        tracer.reset()
        with tracer:
            warm = WarmCache(tiny)
            warm.rerun(0.0, speed)
    failed += warm.bad
    cache_stats = warm.cache.stats
    metrics = {
        key: median([sample[key] for sample in samples]) for key in samples[0]
    }
    lookups = cache_stats.hits + cache_stats.misses
    metrics.update({
        "orchestrate.cache_get_s": tracer.self_s["orchestrate.cache_get"],
        "orchestrate.cache_put_s": tracer.self_s["orchestrate.cache_put"],
        "orchestrate.self_s": tracer.self_s["orchestrate"],
        "orchestrate.hit_frac": cache_stats.hits / lookups if lookups else 0.0,
        # No pool and no experiment driver run in a simulation workload.
        "orchestrate.worker_busy_frac": 0.0,
        **{f"orchestrate.{name}": value
           for name, value in warm.runner.counters.to_json().items()},
        "analysis.tables_s": 0.0,
        "trace.overhead_ratio":
            median([one.total_s for one in traced]) / median([one.total_s for one in untraced]),
    })
    errors = [f"{run.kernel}/{run.kind.value}: {run.error}"
              for one in untraced + traced for run in one.points if run.error]
    attempted = sum(len(one.points) for one in untraced + traced)
    failed += sum(one.failed for one in untraced + traced)
    return metrics, attempted, failed, errors
