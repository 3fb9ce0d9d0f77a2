"""The ``sweep-small`` workload: a whole ``repro sweep all`` grid, cold then warm.

``run_sweep(["all"], scale="small")`` runs through the orchestrator's own
supervised pool (``ParallelRunner(jobs=2)``) over a fresh on-disk
``ResultCache``; the same sweep then runs again, several times, against the
warm cache.  Every ``WorkloadSpec`` the experiment drivers create gets the
benchmark seed as its ``seed`` parameter (see :func:`seeded_specs`).
"""

from __future__ import annotations

import contextlib
import inspect
import math
import multiprocessing
import os
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, NamedTuple, Tuple

from metrics import (
    REFERENCE_SPEED,
    HostSpeed,
    SpeedSampler,
    geomean,
    layer_metrics,
    median,
    peak_rss_mb,
    percentile,
    probe_speed,
)

#: Worker processes of the cold sweep (the box the benchmark targets has 2 cores).
JOBS = 2

#: Set-up samples: each imports the sweep's modules in a fresh interpreter.
IMPORT_SAMPLES = 7

#: What a fresh interpreter imports before it can run the sweep.
_IMPORTS = (
    "import repro.analysis.experiments, repro.orchestrate.cache, "
    "repro.orchestrate.parallel, repro.orchestrate.sweep"
)


@contextlib.contextmanager
def seeded_specs(seed: int) -> Iterator[None]:
    """Make every ``WorkloadSpec.create`` call default ``seed`` to ``seed``.

    The experiment drivers build their workload specs internally; this is
    the one place the benchmark seed can enter them without editing them.
    """
    from repro.orchestrate.spec import WorkloadSpec

    original = WorkloadSpec.__dict__["create"]
    create = original.__func__

    def seeded(cls, name, **params):
        params.setdefault("seed", seed)
        return create(cls, name, **params)

    WorkloadSpec.create = classmethod(seeded)
    try:
        yield
    finally:
        WorkloadSpec.create = original
        if WorkloadSpec.__dict__["create"] is not original:
            raise RuntimeError("WorkloadSpec.create was not restored")


def _recording_cache(cache_dir: str):
    """A ``ResultCache`` that also keeps every ``(spec, result)`` it stores."""
    from repro.orchestrate.cache import ResultCache

    class RecordingCache(ResultCache):
        def __init__(self, path: str) -> None:
            super().__init__(path)
            self.stored: List[Tuple[Any, Any]] = []

        def put(self, spec, result) -> None:
            super().put(spec, result)
            self.stored.append((spec, result))

    return RecordingCache(cache_dir)


def import_seconds(src_dir: str) -> float:
    """Reference seconds a fresh interpreter spends importing the sweep's
    modules; the interpreter probes its own host speed around the imports."""
    code = "\n".join([
        "import sys, time",
        inspect.getsource(probe_speed),
        f"sys.path.insert(0, {src_dir!r})",
        "before = probe_speed()",
        "start = time.perf_counter()",
        _IMPORTS,
        "elapsed = time.perf_counter() - start",
        f"print(elapsed * (before + probe_speed()) / 2.0 / {REFERENCE_SPEED!r})",
    ])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def _runner(cache, jobs: int, progress=None):
    from repro.orchestrate.faults import FaultPlan
    from repro.orchestrate.parallel import ParallelRunner
    from repro.orchestrate.supervisor import RetryPolicy

    # An explicit empty fault plan: $REPRO_FAULTS must not leak in.
    return ParallelRunner(jobs=jobs, cache=cache, progress=progress,
                          policy=RetryPolicy(), faults=FaultPlan())


def _failures(runner, stored) -> int:
    """Specs that failed or retried, plus results that faulted or failed
    verification."""
    bad_specs = sum(
        1 for outcome in runner.outcomes
        if outcome.status not in ("completed", "cached") or outcome.retries
    )
    bad_results = sum(
        1 for _, result in stored
        if getattr(result, "fault_report", None) is not None
        or getattr(result, "verified", None) is False
    )
    return bad_specs + bad_results


def _simulation_figures(stored) -> Dict[str, float]:
    """sim_cycles, pack_speedup and pack_r_util over the stored run results."""
    from repro.orchestrate.spec import RunSpec, canonicalize
    from repro.system.config import SystemKind

    runs = [(spec, result) for spec, result in stored if isinstance(spec, RunSpec)]
    pairs: Dict[str, Dict[SystemKind, int]] = {}
    for spec, result in runs:
        key = repr(canonicalize((spec.workload, spec.config.with_kind(SystemKind.PACK))))
        pairs.setdefault(key, {})[spec.kind] = result.cycles
    ratios = [
        kinds[SystemKind.BASE] / kinds[SystemKind.PACK]
        for kinds in pairs.values()
        if SystemKind.BASE in kinds and SystemKind.PACK in kinds
    ]
    pack = [result.r_utilization for spec, result in runs if spec.kind is SystemKind.PACK]
    return {
        "sim_cycles": sum(result.cycles for _, result in runs),
        "pack_speedup": geomean(ratios),
        # fsum: results arrive in pool completion order, which varies.
        "pack_r_util": math.fsum(pack) / len(pack),
    }


def _run_durations(runner, stored, factor: float) -> Tuple[List[float], float]:
    """Every attempt duration, and the summed durations of the run specs,
    scaled by ``factor``."""
    from repro.orchestrate.spec import RunSpec

    run_keys = {spec.cache_key() for spec, _ in stored if isinstance(spec, RunSpec)}
    durations: List[float] = []
    run_seconds = 0.0
    for outcome in runner.outcomes:
        for attempt in outcome.attempts:
            durations.append(attempt.duration_s * factor)
            if outcome.key in run_keys:
                run_seconds += attempt.duration_s * factor
    return durations, run_seconds


class Sweep(NamedTuple):
    runner: Any
    tables: Dict[str, Any]
    #: reference wall seconds the sweep took, probe time removed
    time_s: float
    #: reference seconds per measured second
    scale: float
    #: share of the wall time the in-process probe took
    probe_share: float
    #: summed peak RSS of the pool's workers in MB (0 without a pool)
    workers_mb: float


def _sweep_once(seed: int, scale: str, cache, jobs: int, tracer=None,
                pooled: bool = False) -> Sweep:
    """One ``run_sweep(["all"])`` through a fresh runner over ``cache``.

    A ``pooled`` sweep does its work in worker processes, so host speed is
    probed from the progress callback; otherwise this process does the work
    and a ``HostSpeed`` sampler runs alongside.  With a ``tracer`` the sweep
    is the ``analysis`` span, so the experiment drivers' own time is its
    self time.
    """
    from repro.orchestrate.sweep import run_sweep

    sampler = SpeedSampler() if pooled else None
    runner = _runner(cache, jobs, progress=sampler)
    span = contextlib.nullcontext() if tracer is None else tracer.span("analysis")
    with contextlib.ExitStack() as stack:
        speed = None if pooled else stack.enter_context(HostSpeed())
        mark = None if speed is None else speed.mark()
        start = time.perf_counter()
        try:
            with seeded_specs(seed), span:
                tables = run_sweep(["all"], scale=scale, runner=runner)
            elapsed = time.perf_counter() - start
            workers_mb = sum(_peak_rss_mb(child.pid)
                             for child in multiprocessing.active_children())
        finally:
            runner.close()
    if speed is None:
        factor, probed = sampler.scale(), 0.0
    else:
        factor, probed = speed.scale(mark), speed.probe_seconds(mark)
    return Sweep(runner, tables, (elapsed - probed) * factor, factor, probed / elapsed,
                 workers_mb)


def _peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _supervision_failures(runners) -> int:
    """Runners whose supervision counters moved (all must stay zero)."""
    return sum(1 for runner in runners if runner.counters.any_activity())


def _hit_frac(caches) -> float:
    hits = sum(cache.stats.hits for cache in caches)
    lookups = hits + sum(cache.stats.misses for cache in caches)
    return hits / lookups if lookups else 0.0


def _warm_sweeps(seed: int, scale: str, cold_cache, tables, until: float,
                 runs: int):
    """Re-run the sweep against ``cold_cache``'s directory until ``until``
    (``time.perf_counter``) and at least ``runs`` times.

    Returns ``(sweeps, caches, failed)``: a warm re-run fails when its
    tables differ from ``tables`` or when it had to simulate.
    """
    sweeps: List[Sweep] = []
    caches = []
    failed = 0
    while len(sweeps) < runs or time.perf_counter() < until:
        cache = _recording_cache(cold_cache.cache_dir)
        warm = _sweep_once(seed, scale, cache, JOBS)
        sweeps.append(warm)
        caches.append(cache)
        failed += (warm.tables != tables) + len(cache.stored) + _failures(warm.runner, [])
    return sweeps, caches, failed


def run_workload(seed: int, seconds: float, scale: str, work_dir: str,
                 src_dir: str) -> Tuple[Dict[str, float], int, int, List[str]]:
    """Untraced run: set-up samples, one pooled cold sweep, warm re-runs
    until ``seconds`` have passed since the cold sweep began (at least 3)."""
    setups = []
    for _ in range(IMPORT_SAMPLES):
        before = probe_speed()
        start = time.perf_counter()
        _runner(None, JOBS).close()
        construct = time.perf_counter() - start
        factor = (before + probe_speed()) / 2.0 / REFERENCE_SPEED
        setups.append(import_seconds(src_dir) + construct * factor)

    start = time.perf_counter()
    cache = _recording_cache(os.path.join(work_dir, "cold"))
    cold = _sweep_once(seed, scale, cache, JOBS, pooled=True)
    warm, _, failed = _warm_sweeps(seed, scale, cache, cold.tables, start + seconds, 3)
    runners = [cold.runner, *(one.runner for one in warm)]
    failed += _failures(cold.runner, cache.stored) + _supervision_failures(runners)
    durations, run_seconds = _run_durations(cold.runner, cache.stored, cold.scale)
    figures = _simulation_figures(cache.stored)
    metrics = {
        "sim_cycles_per_s": figures["sim_cycles"] / run_seconds,
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb() + cold.workers_mb,
        **figures,
        "sweep_sims_per_s": len(cache.stored) / cold.time_s,
        "sweep_warm_s": median([one.time_s for one in warm]),
        "spec_s.p50": percentile(durations, 50),
        "spec_s.p99": percentile(durations, 99),
    }
    attempted = sum(len(runner.outcomes) for runner in runners)
    return metrics, attempted, failed, _errors(cold.runner)


def run_traced(seed: int, seconds: float, scale: str, work_dir: str,
               src_dir: str) -> Tuple[Dict[str, float], int, int, List[str]]:
    """Traced run.

    The pooled cold sweep and one warm re-run give the pool and cache
    figures and the reference tables.  The sweep then runs serially
    in-process twice over fresh caches: untraced, then with every span
    wrapper installed (so the wrappers see every simulation), followed by a
    traced warm re-run.  The two serial cold sweeps give the overhead ratio.
    Layer host times are in reference seconds, with the probe's share
    removed in proportion.
    """
    from spans import Tracer, installed_spans

    del src_dir, seconds
    cache = _recording_cache(os.path.join(work_dir, "cold"))
    cold = _sweep_once(seed, scale, cache, JOBS, pooled=True)
    warm, warm_caches, failed = _warm_sweeps(seed, scale, cache, cold.tables, 0.0, 1)
    durations, _ = _run_durations(cold.runner, cache.stored, cold.scale)

    if installed_spans():
        raise RuntimeError("span wrappers installed before the untraced serial sweep")
    serial_cache = _recording_cache(os.path.join(work_dir, "serial"))
    serial = _sweep_once(seed, scale, serial_cache, 1)

    tracer = Tracer()
    traced_cache = _recording_cache(os.path.join(work_dir, "traced"))
    with tracer:
        traced = _sweep_once(seed, scale, traced_cache, 1, tracer)
        traced_warm = _sweep_once(seed, scale, traced_cache, 1, tracer)

    failed += sum(one.tables != cold.tables for one in (serial, traced, traced_warm))
    failed += len(traced_cache.stored) - len(serial_cache.stored)
    for one, stored in ((cold, cache.stored), (serial, serial_cache.stored),
                        (traced, traced_cache.stored), (traced_warm, [])):
        failed += _failures(one.runner, stored)
    runners = [one.runner for one in (cold, *warm, serial, traced, traced_warm)]
    failed += _supervision_failures(runners)

    metrics = layer_metrics(tracer, [
        (result.stats, result.engine.bus_bytes)
        for spec, result in traced_cache.stored if hasattr(result, "stats")
    ], traced.scale * (1.0 - traced.probe_share))
    metrics.update({
        "orchestrate.cache_get_s": tracer.self_s["orchestrate.cache_get"],
        "orchestrate.cache_put_s": tracer.self_s["orchestrate.cache_put"],
        "orchestrate.self_s": tracer.self_s["orchestrate"],
        "orchestrate.hit_frac": _hit_frac([cache, *warm_caches]),
        "orchestrate.worker_busy_frac": sum(durations) / (cold.time_s * JOBS),
        **{f"orchestrate.{name}": value
           for name, value in cold.runner.counters.to_json().items()},
        "analysis.tables_s": tracer.self_s["analysis"],
        "trace.overhead_ratio": traced.time_s / serial.time_s,
    })
    attempted = sum(len(runner.outcomes) for runner in runners)
    return metrics, attempted, failed, _errors(cold.runner) + _errors(traced.runner)


def _errors(runner) -> List[str]:
    return [
        f"{outcome.label}: {attempt.error}"
        for outcome in runner.outcomes
        for attempt in outcome.attempts
        if attempt.error
    ]
