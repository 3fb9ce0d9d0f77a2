"""Bundled five-channel AXI port used to connect requestors and endpoints.

An :class:`AxiPort` owns one :class:`~repro.sim.queue.DecoupledQueue` per AXI
channel.  The requestor pushes AR/AW/W and pops R/B; the endpoint does the
opposite.  Queue depths model the channel buffering of the interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.axi.signals import BBeat, RBeat, WBeat
from repro.axi.transaction import BusRequest
from repro.sim.queue import DecoupledQueue


@dataclass
class AxiPortConfig:
    """Depths of the per-channel queues of an :class:`AxiPort`."""

    ar_depth: int = 4
    aw_depth: int = 4
    w_depth: int = 8
    r_depth: int = 8
    b_depth: int = 4


class AxiPort:
    """One requestor-to-endpoint AXI connection (five channels).

    The request channels carry full :class:`~repro.axi.transaction.BusRequest`
    objects rather than raw AR/AW beats: the decoded request is exactly what
    an RTL endpoint reconstructs from the address/len/size/user fields, and
    carrying it avoids re-decoding on every hop.  ``to_channel_beat`` remains
    available for code that wants the wire-level view.
    """

    def __init__(self, name: str, bus_bytes: int,
                 config: Optional[AxiPortConfig] = None) -> None:
        config = config or AxiPortConfig()
        self.name = name
        self.bus_bytes = bus_bytes
        self.config = config
        self.ar: DecoupledQueue[BusRequest] = DecoupledQueue(f"{name}.AR", config.ar_depth)
        self.aw: DecoupledQueue[BusRequest] = DecoupledQueue(f"{name}.AW", config.aw_depth)
        self.w: DecoupledQueue[WBeat] = DecoupledQueue(f"{name}.W", config.w_depth)
        self.r: DecoupledQueue[RBeat] = DecoupledQueue(f"{name}.R", config.r_depth)
        self.b: DecoupledQueue[BBeat] = DecoupledQueue(f"{name}.B", config.b_depth)

    def all_queues(self) -> List[DecoupledQueue]:
        """Every channel queue (for engine registration)."""
        return [self.ar, self.aw, self.w, self.r, self.b]

