"""Event-driven cycle simulation kernel.

The kernel is deliberately small: components expose a :meth:`Component.tick`
method that models one clock cycle, and talk to each other exclusively
through :class:`DecoupledQueue` objects that model ready/valid handshaked
FIFOs.  Pushes performed during a cycle become visible to consumers at the
start of the *next* cycle (registered outputs), which makes simulation
results independent of the order in which components are ticked — the same
property that makes the RTL design composable.

On top of that two-phase contract the engine is event-driven: ``tick``
returns a *wake hint* (next cycle the component needs to run, or
:data:`IDLE` to sleep until queue activity), queues double as dirty/wake
lists, and :meth:`Engine.run_until` fast-forwards across globally idle
windows without changing simulated behaviour.  See ``docs/simulation.md``
for the full contract.
"""

from repro.sim.component import IDLE, Component, WakeHint
from repro.sim.queue import DecoupledQueue, LatencyPipe
from repro.sim.datapath import (
    DatapathMode,
    default_datapath_mode,
    resolve_datapath_mode,
)
from repro.sim.engine import Engine
from repro.sim.policy import DataPolicy, default_data_policy, resolve_data_policy
from repro.sim.stats import Counter, StatsRegistry

__all__ = [
    "IDLE",
    "Component",
    "WakeHint",
    "DataPolicy",
    "DatapathMode",
    "DecoupledQueue",
    "LatencyPipe",
    "Engine",
    "Counter",
    "StatsRegistry",
    "default_data_policy",
    "default_datapath_mode",
    "resolve_data_policy",
    "resolve_datapath_mode",
]
