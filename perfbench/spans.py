"""Class-level span wrappers that attribute host time to the simulator's layers.

A :class:`Tracer` replaces public entry points of the repro layers (engine
loop, component ticks, converter steps, pipe methods, SoC construction,
workload methods, result-cache lookups and stores) with thin wrappers that
time each call and keep a stack of child time, so every layer gets its
*self* time: a call's duration minus the time of the wrapped calls inside
it.  Nothing
under ``src/`` is edited; the wrappers live here and are removed again by
:meth:`Tracer.uninstall`, which checks that every patched attribute is the
original function once more.

Wrappers must be installed *before* any ``Soc`` is built: the adapter and
the banked memory prebind bound methods (converter ``step``/``pop_ready_*``,
pipe methods) when they are constructed, so a component built earlier would
keep calling the unwrapped originals.

Span times are wall time (``time.perf_counter``); every traced path runs in
one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: Attribute set on every wrapper, so leftovers can be found mechanically.
MARKER = "__perfbench_span__"

#: Components whose ``tick`` is a span (and counts towards busy cycles).
_TICKS = (
    ("repro.vector.engine", "VectorEngine", "vector"),
    ("repro.controller.adapter", "AxiPackAdapter", "controller.adapter"),
    ("repro.mem.banked", "BankedMemory", "mem.banked"),
    ("repro.mem.ideal", "IdealMemoryEndpoint", "mem.ideal"),
    ("repro.axi.mux", "CycleAxiMux", "axi.mux"),
    ("repro.axi.mux", "CycleAxiDemux", "axi.demux"),
)

#: Single methods that are spans.  ``build_system(config)`` is
#: ``Soc(config)``: wrapping the constructor times it without patching the
#: module-level names its callers imported.
_METHODS = (
    ("repro.controller.indirect_read", "IndirectReadConverter", "step",
     "controller.indirect"),
    ("repro.controller.indirect_write", "IndirectWriteConverter", "step",
     "controller.indirect"),
    ("repro.system.soc", "Soc", "__init__", "system.build"),
    ("repro.orchestrate.spec", "WorkloadSpec", "build", "workloads.build"),
    ("repro.orchestrate.cache", "ResultCache", "get", "orchestrate.cache_get"),
    ("repro.orchestrate.cache", "ResultCache", "put", "orchestrate.cache_put"),
    ("repro.orchestrate.cache", "MemoryCache", "get", "orchestrate.cache_get"),
    ("repro.orchestrate.cache", "MemoryCache", "put", "orchestrate.cache_put"),
    ("repro.orchestrate.parallel", "ParallelRunner", "run", "orchestrate"),
)

#: Pipe classes: every public method defined on them is a span.
_PIPES = (
    ("repro.controller.pipes", "ReadPipe"),
    ("repro.controller.pipes", "WritePipe"),
    ("repro.controller.lanes", "LaneReadPipe"),
    ("repro.controller.lanes", "LaneWritePipe"),
)

#: Workload methods, on every ``Workload`` subclass that defines them.
_WORKLOAD_METHODS = {
    "initialize": "workloads.init",
    "build_program": "workloads.program",
    "build_program_rows": "workloads.program",
    "build_sharded_programs": "workloads.program",
    "verify": "workloads.verify",
}


def _cls(module: str, name: str) -> type:
    return getattr(importlib.import_module(module), name)


def _workload_classes() -> List[type]:
    importlib.import_module("repro.workloads.registry")  # imports every kernel
    found: List[type] = []
    pending = [_cls("repro.workloads.base", "Workload")]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def _targets() -> Iterator[Tuple[type, str, str, str]]:
    """``(class, attribute, layer, role)`` of every span, role in
    ``{"loop", "tick", "call"}``."""
    yield _cls("repro.sim.engine", "Engine"), "run_until", "sim", "loop"
    for module, name, layer in _TICKS:
        yield _cls(module, name), "tick", layer, "tick"
    for module, name, attr, layer in _METHODS:
        yield _cls(module, name), attr, layer, "call"
    for module, name in _PIPES:
        owner = _cls(module, name)
        for attr, value in list(vars(owner).items()):
            if not attr.startswith("_") and callable(value):
                yield owner, attr, "controller.pipes", "call"
    for owner in _workload_classes():
        for attr, layer in _WORKLOAD_METHODS.items():
            value = owner.__dict__.get(attr)
            if value is not None and not getattr(value, "__isabstractmethod__", False):
                yield owner, attr, layer, "call"


def installed_spans() -> List[str]:
    """``Class.attr`` of every span wrapper currently installed."""
    return sorted(
        f"{owner.__name__}.{attr}"
        for owner in {target[0] for target in _targets()}
        for attr, value in vars(owner).items()
        if hasattr(value, MARKER)
    )


class Tracer:
    """Self-time and call-count accumulators over class-level wrappers."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: cycles in which at least one component ticked
        self.busy_cycles = 0
        #: simulated cycles returned by every ``Engine.run_until``
        self.cycles = 0
        self._last_tick_cycle = -1
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[type, str, Any]] = []

    def reset(self) -> None:
        """Zero every accumulator (the wrappers stay installed)."""
        self.self_s.clear()
        self.calls.clear()
        self.busy_cycles = 0
        self.cycles = 0
        self._last_tick_cycle = -1

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span opened by the benchmark's own code around a layer call."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(layer, time.perf_counter() - start)

    def _close(self, layer: str, elapsed: float) -> None:
        self.self_s[layer] += elapsed - self._stack.pop()
        self._stack[-1] += elapsed
        self.calls[layer] += 1

    def _wrapper(self, layer: str, original: Callable, role: str) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        close = self._close

        if role == "tick":
            @functools.wraps(original)
            def traced(component, cycle, *args, **kwargs):
                if cycle != self._last_tick_cycle:
                    self._last_tick_cycle = cycle
                    self.busy_cycles += 1
                stack.append(0.0)
                start = clock()
                try:
                    return original(component, cycle, *args, **kwargs)
                finally:
                    close(layer, clock() - start)
        elif role == "loop":
            @functools.wraps(original)
            def traced(*args, **kwargs):
                self._last_tick_cycle = -1
                stack.append(0.0)
                start = clock()
                try:
                    cycles = original(*args, **kwargs)
                finally:
                    close(layer, clock() - start)
                self.cycles += cycles
                return cycles
        else:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    close(layer, clock() - start)

        setattr(traced, MARKER, layer)
        return traced

    def install(self) -> "Tracer":
        """Wrap every traced entry point at class level."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner, attr, layer, role in list(_targets()):
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(layer, original, role))
        return self

    def uninstall(self) -> None:
        """Restore every original and check that each really is back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} was not restored")
        leftovers = installed_spans()
        if leftovers:
            raise RuntimeError(f"span wrappers still installed: {leftovers}")

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
