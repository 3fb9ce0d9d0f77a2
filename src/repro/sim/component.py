"""Base class for cycle-driven hardware components.

Event-driven contract
---------------------
The engine is event-driven: a component's :meth:`tick` may return a *wake
hint* telling the engine when it next needs to run.  Between its wake
cycles a component is guaranteed not to be ticked, which is what lets
:meth:`~repro.sim.engine.Engine.run_until` fast-forward across globally
idle windows (DRAM-style latencies, reduction drains, scalar bookkeeping
stretches) without changing simulated behaviour.

The hint protocol is:

``None``
    Legacy behaviour — the component is ticked again on the very next
    cycle.  Components written before the event-driven engine keep working
    unmodified (they simply prevent idle skipping while registered).
``IDLE``
    The component has nothing time-driven pending; it sleeps until *poked*
    by activity on one of the queues returned by :meth:`wake_queues`.
an integer (or float) cycle number
    Sleep until that cycle unless poked earlier by queue activity.

Safety rule: a hint may be *earlier* than strictly necessary (a spurious
wake-up is a no-op tick, exactly what the legacy engine did every cycle)
but must never be *later* than the first cycle at which the component's
tick would have an observable effect.  Anything gated purely on simulated
time (a fixed latency maturing, a cooldown expiring) must be covered by the
returned hint; anything gated on communication is covered by subscribing to
the relevant queues via :meth:`wake_queues`.
"""

from __future__ import annotations

import abc
import math
from typing import Any, Iterable, Optional, Union

#: Wake hint meaning "sleep until poked by queue activity".
IDLE: float = math.inf

#: The type of a wake hint (``None`` = legacy tick-every-cycle).
WakeHint = Optional[Union[int, float]]


class Component(abc.ABC):
    """A hardware block that is evaluated on the simulated cycles it is awake.

    Subclasses implement :meth:`tick`, which models one clock cycle of
    behaviour.  Components must only communicate through
    :class:`~repro.sim.queue.DecoupledQueue` instances (or their own private
    state); direct method calls between components within a cycle would make
    results depend on tick ordering.

    A component may report whether it still has work pending through
    :meth:`busy`; the engine uses this to detect completion and deadlocks.
    """

    #: Slot index assigned by the owning engine (set at registration).
    _engine_slot: int = -1
    #: The owning engine (set at registration).  A component that keeps
    #: private FIFOs adds their pushes and pops to its activity counter.
    _engine: Any = None

    def __init__(self, name: str) -> None:
        self.name = name

    @abc.abstractmethod
    def tick(self, cycle: int) -> WakeHint:
        """Advance the component by one clock cycle.

        Returns the component's *wake hint* (see the module docstring):
        ``None`` to be ticked every cycle, :data:`IDLE` to sleep until queue
        activity, or the next cycle number at which it must run.
        """

    def wake_queues(self) -> Iterable:
        """Queues whose activity (push/pop) should wake this component.

        The engine subscribes the component to each returned
        :class:`~repro.sim.queue.DecoupledQueue` at registration time.  A
        component that returns a hint other than ``None`` from :meth:`tick`
        must list here every queue it reads from *or* writes to, so that it
        is re-woken when an item arrives or when back-pressure clears.
        The default returns nothing, which is always safe for legacy
        components (hint ``None`` keeps them ticked every cycle).
        """
        return ()

    def private_queues(self) -> Iterable:
        """FIFOs the component keeps to itself, outside the engine.

        Each item has a ``name``, an ``occupancy``, a ``depth`` and an
        ``is_empty()`` method.  Such a FIFO wakes nobody: the component
        must cover its own pushes and pops with its wake hint.  The engine
        only lists the non-empty ones in
        :meth:`~repro.sim.engine.Engine.diagnose`.  The default returns
        nothing.
        """
        return ()

    def busy(self) -> bool:
        """Return True while the component has outstanding work.

        The default conservatively reports idle; components holding internal
        state (in-flight requests, partially packed beats) should override.
        """
        return False

    def reset(self) -> None:
        """Restore the component to its post-reset state (optional)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
