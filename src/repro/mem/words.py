"""Word-level memory requests and the bank address mapping.

The controller's converters break every burst into *word* accesses — a word
being the width of one memory bank (32 bit in the paper's systems).  The
:class:`BankAddressMap` decides which bank a word lives in; the paper
evaluates both power-of-two bank counts (cheap addressing, conflict-prone on
even strides) and prime bank counts (need modulo/divide hardware, spread
strided accesses evenly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.axi.types import Resp
from repro.errors import ConfigurationError
from repro.utils.bitutils import is_power_of_two
from repro.utils.validation import check_positive

#: Module-level constant: WordRequest construction is the simulator's
#: hottest allocation site, so the default resp is bound once here.
_RESP_OKAY = Resp.OKAY


@dataclass(frozen=True)
class BankAddressMap:  # reprolint: disable=HOT01: frozen dataclass with a field default; __slots__ would clash with the default's class attribute on py3.9, and maps are built once per system, not per beat
    """Interleaved word-to-bank mapping.

    Word address ``w = byte_addr // word_bytes`` maps to bank ``w % num_banks``
    and row ``w // num_banks``.  For power-of-two bank counts this is a simple
    bit slice; for prime counts the hardware needs a modulo and a divider,
    which is exactly the area overhead Fig. 5c quantifies.
    """

    num_banks: int
    word_bytes: int = 4

    def __post_init__(self) -> None:
        check_positive("num_banks", self.num_banks)
        if not is_power_of_two(self.word_bytes):
            raise ConfigurationError(
                f"word size must be a power of two, got {self.word_bytes}"
            )

    @property
    def is_power_of_two(self) -> bool:
        """True if the bank count is a power of two (cheap addressing)."""
        return is_power_of_two(self.num_banks)

    def word_of(self, byte_addr: int) -> int:
        """Word address containing a byte address."""
        return byte_addr // self.word_bytes

    def decompose(self, byte_addr: int) -> Tuple[int, int]:
        """Return ``(bank, row)`` for a byte address."""
        word = self.word_of(byte_addr)
        return word % self.num_banks, word // self.num_banks


class WordRequest:
    """One word-wide access from a controller port to the banked memory.

    A plain ``__slots__`` record: word accesses are created at bus-width rate
    on the simulator's hottest path, so constructor cost matters.

    Attributes
    ----------
    port:
        Index of the word port issuing the request (0 .. n-1).
    word_addr:
        Word address (byte address // word size).
    is_write:
        True for a write access.
    data:
        Word payload for writes (``word_bytes`` bytes as ``bytes`` or a
        numpy byte array), None for reads.
    tag:
        Opaque routing tag used by the issuing converter to match responses
        (converter id, beat number, slot within the beat, ...).
    resp:
        Response code filled in by the memory when the access completes
        (the request object doubles as its own response on the banked
        path).  ``Resp.OKAY`` unless the word fell outside the memory or a
        fault plan targeted it.
    """

    __slots__ = ("port", "word_addr", "is_write", "data", "tag", "resp")

    def __init__(
        self,
        port: int,
        word_addr: int,
        is_write: bool,
        data: Optional[object] = None,
        tag: Optional[object] = None,
    ) -> None:
        self.port = port
        self.word_addr = word_addr
        self.is_write = is_write
        self.data = data
        self.tag = tag
        self.resp = _RESP_OKAY

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "write" if self.is_write else "read"
        return f"WordRequest({kind} port={self.port} word={self.word_addr:#x})"
