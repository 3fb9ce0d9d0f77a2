"""Banked on-chip memory substrate.

Models the memory side of the evaluation systems: a byte-addressable backing
store, the word-wide bank address mapping (power-of-two or prime bank
counts), the cycle-level multi-banked SRAM with its port-to-bank crossbar,
and an idealized memory endpoint used by the IDEAL reference system.
"""

from repro.mem.storage import MemoryStorage
from repro.mem.words import BankAddressMap, WordRequest
from repro.mem.banked import BankedMemory, BankedMemoryConfig
from repro.mem.ideal import IdealMemoryEndpoint

__all__ = [
    "MemoryStorage",
    "BankAddressMap",
    "WordRequest",
    "BankedMemory",
    "BankedMemoryConfig",
    "IdealMemoryEndpoint",
]
