"""Bank crossbar area model (paper Fig. 5c).

The word-port-to-bank crossbar grows with the port x bank product; prime
bank counts additionally need modulo units (bank selection) and dividers
(row address) per port, which power-of-two counts get for free as bit
slices.  The paper highlights that this overhead shrinks *relative to* the
crossbar as the bank count grows, making 17 banks an attractive design point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError
from repro.utils.math import is_prime


@dataclass
class CrossbarAreaBreakdown:
    """Crossbar, modulo and divider area in kGE for one bank count."""

    num_banks: int
    crossbar_kge: float
    modulo_kge: float
    divider_kge: float

    @property
    def total_kge(self) -> float:
        """Total area in kGE."""
        return self.crossbar_kge + self.modulo_kge + self.divider_kge

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for reporting."""
        return {
            "banks": self.num_banks,
            "crossbar": self.crossbar_kge,
            "modulo": self.modulo_kge,
            "divider": self.divider_kge,
            "total": self.total_kge,
        }


class BankCrossbarAreaModel:
    """Area of the n-port x m-bank word crossbar and its address units."""

    def __init__(self, num_ports: int = 8, word_bits: int = 32) -> None:
        if num_ports <= 0 or word_bits <= 0:
            raise ConfigurationError("ports and word width must be positive")
        self.num_ports = num_ports
        self.word_bits = word_bits
        # Calibrated so that the 8-port, 32-bank point lands near the paper's
        # ~30 kGE crossbar and the prime address units add a handful of kGE.
        self._kge_per_crosspoint = 0.105
        self._kge_per_bank_fixed = 0.16
        self._modulo_kge_per_port = 0.72
        self._divider_kge_per_port = 1.05

    def breakdown(self, num_banks: int) -> CrossbarAreaBreakdown:
        """Area breakdown for one bank count."""
        if num_banks <= 0:
            raise ConfigurationError("bank count must be positive")
        crossbar = (
            self._kge_per_crosspoint * self.num_ports * num_banks
            + self._kge_per_bank_fixed * num_banks
        )
        if is_prime(num_banks):
            # Modulo/divide complexity grows weakly with the operand width,
            # which itself shrinks as more banks mean fewer rows per bank.
            width_factor = max(0.75, 1.1 - 0.01 * num_banks)
            modulo = self._modulo_kge_per_port * self.num_ports * width_factor
            divider = self._divider_kge_per_port * self.num_ports * width_factor
        else:
            modulo = 0.0
            divider = 0.0
        return CrossbarAreaBreakdown(num_banks, crossbar, modulo, divider)

    def total_kge(self, num_banks: int) -> float:
        """Total crossbar area for one bank count."""
        return self.breakdown(num_banks).total_kge

    def sweep(self, bank_counts=(8, 11, 16, 17, 31, 32)) -> Dict[int, CrossbarAreaBreakdown]:
        """Breakdown for every bank count of the paper's sweep."""
        return {banks: self.breakdown(banks) for banks in bank_counts}
