"""Per-beat records for the AXI data and response channels (R, W, B).

These records are what flows through :class:`~repro.sim.queue.DecoupledQueue`
instances in the cycle-level simulator.  They carry only the fields the
bandwidth model needs; side-band signals with no performance impact (QoS,
region, cache, prot, lock) are omitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.axi.types import Resp


@dataclass
class RBeat:
    """One R-channel handshake: a read data beat.

    ``useful_bytes`` records how many of the bus bytes carry payload the
    requestor asked for; the channel monitor uses it to compute the packed
    bus utilization that Figs. 3 and 5 report.
    """

    txn_id: int
    data: Optional[np.ndarray]
    useful_bytes: int
    last: bool
    resp: Resp = Resp.OKAY


@dataclass
class WBeat:
    """One W-channel handshake: a write data beat."""

    data: Optional[np.ndarray]
    useful_bytes: int
    last: bool
    strb: Optional[np.ndarray] = None


@dataclass
class BBeat:
    """One B-channel handshake: a write response."""

    txn_id: int
    resp: Resp = Resp.OKAY
