"""Bus channel monitors: the instrumentation behind every utilization number.

The paper's headline metric is *R bus utilization*: the fraction of the
read-data channel's raw capacity (bus width x cycles) that carries payload
the requestor actually asked for.  A narrow 32-bit beat on a 256-bit bus
contributes 12.5 % for the cycle it occupies; a fully packed AXI-Pack beat
contributes 100 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class ChannelMonitor:
    """Accumulates beat and payload counts for one AXI channel.

    Attributes
    ----------
    name:
        Channel name, e.g. ``"R"`` or ``"W"``.
    bus_bytes:
        Width of the monitored data bus in bytes.
    """

    name: str
    bus_bytes: int
    beats: int = 0
    useful_bytes: int = 0
    payload_beats_by_kind: Dict[str, int] = field(default_factory=dict)
    useful_bytes_by_kind: Dict[str, int] = field(default_factory=dict)

    def record_beat(self, useful_bytes: int, kind: str = "data") -> None:
        """Record one occupied bus cycle carrying ``useful_bytes`` of payload.

        ``kind`` tags the beat so index traffic can be separated from data
        traffic; Fig. 3a reports utilization both with and without index
        transfers for the systems that move indices over the bus.
        """
        if useful_bytes < 0 or useful_bytes > self.bus_bytes:
            raise ValueError(
                f"useful bytes {useful_bytes} outside [0, {self.bus_bytes}]"
            )
        self.beats += 1
        self.useful_bytes += useful_bytes
        beats_by_kind = self.payload_beats_by_kind
        bytes_by_kind = self.useful_bytes_by_kind
        if kind in beats_by_kind:  # fast path: recording one beat per cycle
            beats_by_kind[kind] += 1
            bytes_by_kind[kind] += useful_bytes
        else:
            beats_by_kind[kind] = 1
            bytes_by_kind[kind] = useful_bytes

    # ------------------------------------------------------------ utilization
    def utilization(self, elapsed_cycles: int, include_kinds: Optional[set] = None) -> float:
        """Return the bus utilization over ``elapsed_cycles`` cycles.

        Utilization is useful payload divided by the channel's raw capacity.
        ``include_kinds`` restricts the payload to the given beat kinds (for
        example ``{"data"}`` to exclude index traffic).
        """
        if elapsed_cycles <= 0:
            return 0.0
        if include_kinds is None:
            useful = self.useful_bytes
        else:
            useful = sum(
                count
                for kind, count in self.useful_bytes_by_kind.items()
                if kind in include_kinds
            )
        return useful / (self.bus_bytes * elapsed_cycles)

    def occupancy(self, elapsed_cycles: int) -> float:
        """Fraction of cycles during which the channel carried any beat."""
        if elapsed_cycles <= 0:
            return 0.0
        return self.beats / elapsed_cycles

    def reset(self) -> None:
        """Zero all counters."""
        self.beats = 0
        self.useful_bytes = 0
        self.payload_beats_by_kind.clear()
        self.useful_bytes_by_kind.clear()
