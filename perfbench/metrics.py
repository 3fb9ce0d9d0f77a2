"""Summary statistics, host-speed probes, and per-layer metrics from a trace."""

from __future__ import annotations

import hashlib
import json
import math
import resource
import signal
import statistics
import time
from typing import Dict, List, Sequence, Tuple

#: Probe speed (loop iterations per CPU second) that host times are scaled
#: to.  Host seconds in every end-to-end metric are *reference seconds*:
#: measured seconds times the probe speed measured around them, divided by
#: this constant.  See README.md ("Host speed") for why.
REFERENCE_SPEED = 25e6


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (inclusive method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; ``math.fsum`` keeps it independent of the order."""
    return float(math.exp(math.fsum(math.log(value) for value in values) / len(values)))


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_speed(seconds: float = 0.02) -> float:
    """Iterations per thread-CPU second of a fixed pure-Python loop."""
    clock = time.thread_time
    done = 0
    start = clock()
    while True:
        acc = 0
        for i in range(10_000):
            acc += i & 7
        done += 10_000
        elapsed = clock() - start
        if elapsed >= seconds and acc >= 0:
            return done / elapsed


#: Fingerprint-probe speed (fingerprints per CPU second) that warm re-serve
#: times are scaled to.
REFERENCE_FINGERPRINT_SPEED = 5e3

#: A config-shaped document for :func:`probe_fingerprint_speed`.
_PROBE_DOC = {
    f"field_{index:02d}": (index, f"value{index}", {"half": index / 2, "odd": index % 2 == 1})
    for index in range(40)
}


def _canonical(value):
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def probe_fingerprint_speed(seconds: float = 0.005) -> float:
    """Fingerprints per thread-CPU second of a fixed config-shaped document.

    Canonicalize, dump as sorted JSON, hash: the shape of the orchestrator's
    spec fingerprinting, which dominates a warm re-serve.  Host-speed swings
    slow this mix differently from :func:`probe_speed`'s loop: over one
    minute of warm re-serves in one process, scaling by this probe left an
    IQR of 7% of the median, scaling by the loop 18%, raw times 43%.
    """
    clock = time.thread_time
    done = 0
    start = clock()
    while True:
        payload = json.dumps(_canonical(_PROBE_DOC), sort_keys=True, separators=(",", ":"))
        hashlib.sha256(payload.encode("utf-8")).hexdigest()
        done += 1
        elapsed = clock() - start
        if elapsed >= seconds:
            return done / elapsed


class HostSpeed:
    """Samples host speed from a ``SIGPROF`` handler while active.

    Every ``interval`` seconds of process CPU time the handler runs
    :func:`probe_speed` for ``probe`` seconds, so the samples are spread
    evenly over the CPU time of whatever the process is doing.  For a
    stretch that began at :meth:`mark`, :meth:`scale` is the mean sampled
    speed over :data:`REFERENCE_SPEED` and :meth:`probe_seconds` the time
    the handler took inside the stretch: a host time measured over the
    stretch is ``(measured - probe_seconds) * scale`` reference seconds.
    Only for single-threaded stretches in the main thread.
    """

    def __init__(self, interval: float = 0.025, probe: float = 0.001) -> None:
        self.interval = interval
        self.probe = probe
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.thread_time()
        self.samples.append(probe_speed(self.probe))
        self.spent += time.thread_time() - start

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self) -> Tuple[int, float]:
        return len(self.samples), self.spent

    def probe_seconds(self, mark: Tuple[int, float]) -> float:
        return self.spent - mark[1]

    def scale(self, mark: Tuple[int, float]) -> float:
        """Reference seconds per measured second since ``mark``."""
        window = self.samples[mark[0]:] or self.samples[-1:] or [probe_speed()]
        return sum(window) / len(window) / REFERENCE_SPEED


class SpeedSampler:
    """Probes host speed at most every ``interval`` seconds when called.

    For stretches the benchmark cannot interleave probes with: a pooled
    sweep, whose work runs in worker processes while this process waits.
    Pass it as the runner's progress callback; it is called in this
    process's main thread after every spec resolves.
    """

    def __init__(self, interval: float = 0.25) -> None:
        self.interval = interval
        self.speeds: List[float] = [probe_speed(0.01)]
        self._last = time.perf_counter()

    def __call__(self, progress=None) -> None:
        now = time.perf_counter()
        if now - self._last >= self.interval:
            self.speeds.append(probe_speed(0.01))
            self._last = time.perf_counter()

    def scale(self) -> float:
        self.speeds.append(probe_speed(0.01))
        return sum(self.speeds) / len(self.speeds) / REFERENCE_SPEED


#: Span layers reported as self time, by metric name.
SELF_TIME_METRICS = {
    "sim.self_s": "sim",
    "vector.tick_s": "vector",
    "controller.adapter.self_s": "controller.adapter",
    "controller.pipes_s": "controller.pipes",
    "controller.indirect_s": "controller.indirect",
    "mem.banked.tick_s": "mem.banked",
    "mem.ideal.tick_s": "mem.ideal",
    "axi.mux.tick_s": "axi.mux",
    "axi.demux.tick_s": "axi.demux",
    "system.build_s": "system.build",
    "workloads.build_s": "workloads.build",
    "workloads.init_s": "workloads.init",
    "workloads.program_s": "workloads.program",
    "workloads.verify_s": "workloads.verify",
}


def layer_metrics(tracer, runs: Sequence[Tuple[Dict[str, float], int]],
                  scale: float = 1.0) -> Dict[str, float]:
    """Per-layer metrics of one traced stretch of simulation.

    ``runs`` holds ``(Soc.stats_snapshot(), bus_bytes)`` for every run the
    tracer saw; host times and tick counts come from the tracer itself.
    Self times are multiplied by ``scale``.
    """
    metrics = {
        name: tracer.self_s[layer] * scale for name, layer in SELF_TIME_METRICS.items()
    }
    cycles = tracer.cycles
    ticks = sum(tracer.calls[layer] for layer in (
        "vector", "controller.adapter", "mem.banked", "mem.ideal", "axi.mux", "axi.demux"
    ))

    def total(name: str) -> float:
        return sum(stats.get(name, 0.0) for stats, _ in runs)

    r_slots = sum(stats.get("adapter.r_beats", 0.0) * width for stats, width in runs)
    accesses = total("mem.bank_accesses")
    metrics.update({
        "sim.busy_cycle_frac": tracer.busy_cycles / cycles if cycles else 0.0,
        "sim.ticks_per_cycle": ticks / cycles if cycles else 0.0,
        "vector.ticks": tracer.calls["vector"],
        "controller.r_useful_frac":
            total("adapter.r_useful_bytes") / r_slots if r_slots else 0.0,
        "mem.bank_accesses": accesses,
        "mem.bank_conflict_frac":
            total("mem.bank_conflicts") / accesses if accesses else 0.0,
        "axi.mux_grants": total("mux.ar_grants") + total("mux.aw_grants"),
    })
    return metrics
