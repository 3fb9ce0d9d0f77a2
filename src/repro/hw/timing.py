"""Adapter timing model: minimum achievable clock period per bus width.

The paper reports minimum periods of 787, 800 and 839 ps for 64-, 128- and
256-bit adapters in GF 22FDX (SSG corner, 0.72 V).  The critical path runs
through the beat packer's lane multiplexing, which deepens logarithmically
with the lane count; the model interpolates accordingly for other widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Published minimum clock periods (ps) per bus width in bits.
PUBLISHED_MIN_PERIOD_PS = {64: 787.0, 128: 800.0, 256: 839.0}


@dataclass
class TimingModel:
    """Minimum clock period and achievable frequency of the adapter."""

    word_bits: int = 32
    base_period_ps: float = 774.0
    per_level_ps: float = 13.0

    def min_period_ps(self, bus_bits: int) -> float:
        """Minimum achievable clock period for a given bus width."""
        if bus_bits in PUBLISHED_MIN_PERIOD_PS:
            return PUBLISHED_MIN_PERIOD_PS[bus_bits]
        lanes = bus_bits / self.word_bits
        if lanes < 1:
            raise ConfigurationError("bus must be at least one word wide")
        return self.base_period_ps + self.per_level_ps * math.log2(lanes)

