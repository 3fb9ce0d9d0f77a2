"""Ready/valid handshaked FIFO used to connect components.

The queue models a hardware FIFO with registered outputs: items pushed during
cycle *N* can be popped no earlier than cycle *N + 1*.  The engine calls
:meth:`DecoupledQueue.commit` at the end of every cycle in which the queue
was pushed to, moving freshly pushed items into the visible storage.  Because
visibility only changes at commit time, the simulation result does not depend
on the order in which components are ticked within a cycle.

Queues registered with an :class:`~repro.sim.engine.Engine` additionally act
as the engine's *dirty/wake lists*: every push or pop marks the queue touched
(so only touched queues are committed at the end of the cycle), bumps the
engine's O(1) activity counter (used for deadlock detection), and wakes every
component subscribed to the queue for the next cycle.  Unregistered queues
behave exactly like plain FIFOs.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generic, Iterator, List, Optional, TypeVar

from repro.errors import SimulationError
from repro.utils.validation import check_positive

ItemT = TypeVar("ItemT")


class DecoupledQueue(Generic[ItemT]):
    """Bounded FIFO with ready/valid semantics and registered outputs.

    Parameters
    ----------
    name:
        Human-readable identifier used in error messages and traces.
    depth:
        Maximum number of items the queue can hold (committed plus pending).
        This corresponds to the decoupling-queue depth parameter of the
        paper's converters (default 4, raised to 32 for the sensitivity
        study in §III-E).
    """

    __slots__ = (
        "name",
        "depth",
        "_storage",
        "_incoming",
        "_count",
        "total_pushed",
        "total_popped",
        "max_occupancy",
        "_engine",
        "_touched",
        "_waiters",
        "_waiters_engine",
    )

    def __init__(self, name: str, depth: int) -> None:
        self.name = name
        self.depth = check_positive("queue depth", depth)
        self._storage: Deque[ItemT] = deque()
        self._incoming: List[ItemT] = []
        self._count = 0  #: committed + pending items, tracked incrementally
        self.total_pushed = 0
        self.total_popped = 0
        self.max_occupancy = 0
        # Engine integration (set by Engine.add_queue / add_component).
        self._engine: Any = None  #: owning engine, or None for standalone use
        self._touched = False  #: already on the engine's dirty list this cycle
        self._waiters: List = []  #: components woken by activity on this queue
        self._waiters_engine: Any = None  #: engine the waiter list belongs to

    # ------------------------------------------------------------------ push
    def can_push(self, count: int = 1) -> bool:
        """Return True if ``count`` more items fit this cycle."""
        return self._count + count <= self.depth

    def push(self, item: ItemT) -> None:
        """Push one item; raises if the queue is full (callers must check)."""
        if self._count >= self.depth:
            raise SimulationError(f"push to full queue {self.name!r}")
        self._incoming.append(item)
        self._count += 1
        self.total_pushed += 1
        engine = self._engine
        if engine is not None:
            engine._activity += 1
            if not self._touched:
                self._touched = True
                engine._touched_queues.append(self)

    # ------------------------------------------------------------------- pop
    def can_pop(self) -> bool:
        """Return True if an item is available to pop this cycle."""
        return bool(self._storage)

    def peek(self) -> ItemT:
        """Return the oldest committed item without removing it."""
        if not self._storage:
            raise SimulationError(f"peek on empty queue {self.name!r}")
        return self._storage[0]

    def pop(self) -> ItemT:
        """Remove and return the oldest committed item."""
        if not self._storage:
            raise SimulationError(f"pop from empty queue {self.name!r}")
        self.total_popped += 1
        self._count -= 1
        engine = self._engine
        if engine is not None:
            engine._activity += 1
            if not self._touched:
                self._touched = True
                engine._touched_queues.append(self)
        return self._storage.popleft()

    # ------------------------------------------------------------ bookkeeping
    def commit(self) -> None:
        """Make items pushed this cycle visible; called by the engine."""
        if self._incoming:
            self._storage.extend(self._incoming)
            self._incoming.clear()
        if len(self._storage) > self.max_occupancy:
            self.max_occupancy = len(self._storage)

    def clear(self) -> None:
        """Drop all contents (used by component reset)."""
        self._storage.clear()
        self._incoming.clear()
        self._count = 0
        engine = self._engine
        if engine is not None and not self._touched:
            # Wake subscribers (freed space / vanished items) but do not count
            # the clear as forward progress for deadlock detection.
            self._touched = True
            engine._touched_queues.append(self)

    @property
    def occupancy(self) -> int:
        """Number of committed items currently visible to consumers."""
        return len(self._storage)

    @property
    def pending(self) -> int:
        """Number of items pushed this cycle but not yet committed."""
        return len(self._incoming)

    def is_empty(self) -> bool:
        """Return True if the queue holds nothing, committed or pending."""
        return self._count == 0

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[ItemT]:
        return iter(list(self._storage) + list(self._incoming))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DecoupledQueue {self.name!r} {len(self._storage)}"
            f"+{len(self._incoming)}/{self.depth}>"
        )


class LatencyPipe(Generic[ItemT]):
    """Fixed-latency pipeline stage (e.g. SRAM access latency).

    Items pushed at cycle *N* become poppable at cycle *N + latency*.  Unlike
    :class:`DecoupledQueue`, the pipe never back-pressures: the producer is
    responsible for rate-limiting (this mirrors an SRAM macro, which accepts
    one request per cycle and always answers after a fixed latency).
    """

    __slots__ = ("name", "latency", "_in_flight", "_cycle")

    def __init__(self, name: str, latency: int) -> None:
        self.name = name
        if latency < 1:
            raise SimulationError("LatencyPipe latency must be at least 1 cycle")
        self.latency = latency
        self._in_flight: Deque[tuple] = deque()
        self._cycle = 0

    def push(self, item: ItemT) -> None:
        """Insert an item that will emerge ``latency`` cycles later."""
        self._in_flight.append((self._cycle + self.latency, item))

    def can_pop(self) -> bool:
        """Return True if the oldest item has reached its release cycle."""
        return bool(self._in_flight) and self._in_flight[0][0] <= self._cycle

    def pop(self) -> ItemT:
        """Remove and return the oldest matured item."""
        if not self.can_pop():
            raise SimulationError(f"pop from latency pipe {self.name!r} too early")
        return self._in_flight.popleft()[1]

    def advance(self, cycles: int = 1) -> None:
        """Advance the pipe's notion of time by ``cycles`` clock cycles.

        The engine advances pipes by more than one cycle at a time when it
        fast-forwards across idle windows; maturity only depends on the
        pipe's absolute cycle counter, so a bulk advance is exact.
        """
        self._cycle += cycles

    def next_ready_cycle(self) -> Optional[int]:
        """Cycle at which the oldest in-flight item matures (None if empty)."""
        if not self._in_flight:
            return None
        return self._in_flight[0][0]

    def is_empty(self) -> bool:
        """Return True if nothing is in flight."""
        return not self._in_flight

    def __len__(self) -> int:
        return len(self._in_flight)
