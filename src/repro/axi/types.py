"""Basic AXI4 protocol types, encodings and legality constants."""

from __future__ import annotations

import enum

from repro.errors import ProtocolError

#: Maximum number of beats in a single AXI4 INCR burst (AxLEN is 8 bits).
AXI4_MAX_BURST_LEN = 256

#: AXI4 forbids INCR bursts from crossing a 4 KiB address boundary.
AXI4_BOUNDARY_BYTES = 4096

#: Widest data bus the model supports (wider is legal AXI but unused here).
MAX_BUS_BYTES = 128


class BurstType(enum.Enum):
    """AXI4 AxBURST encoding."""

    FIXED = 0
    INCR = 1
    WRAP = 2

    @property
    def encoding(self) -> int:
        """Return the 2-bit AxBURST wire encoding."""
        return self.value


class Resp(enum.Enum):
    """AXI4 response codes carried on R and B channels.

    The enum value doubles as the severity used by :func:`worst_resp`:
    ``OKAY < EXOKAY < SLVERR < DECERR``.  (EXOKAY outranking OKAY matches
    the merge rule AXI interconnects use when collapsing split responses —
    an exclusive-okay is the more specific answer, an error beats both.)
    """

    OKAY = 0
    EXOKAY = 1
    SLVERR = 2
    DECERR = 3

    @property
    def is_error(self) -> bool:
        """True for the two error responses (SLVERR, DECERR)."""
        return self.value >= Resp.SLVERR.value


def worst_resp(a: Resp, b: Resp) -> Resp:
    """Merge two response codes, keeping the more severe one.

    This is the per-burst merge rule used everywhere a response is built
    from several sub-accesses (word slots of a beat, beats of a burst):
    the burst's response is the worst response of any of its parts.
    """
    return a if a.value >= b.value else b


def check_incr_burst_legal(addr: int, num_beats: int, beat_bytes: int) -> None:
    """Validate a plain AXI4 INCR burst against the protocol rules.

    Raises :class:`~repro.errors.ProtocolError` if the burst is longer than
    256 beats or crosses a 4 KiB boundary.  AXI-Pack bursts are exempt from
    the boundary rule at the endpoint because the addresses they touch are
    not contiguous; the request itself still respects the 256-beat limit.
    """
    if num_beats < 1:
        raise ProtocolError(f"burst must have at least one beat, got {num_beats}")
    if num_beats > AXI4_MAX_BURST_LEN:
        raise ProtocolError(
            f"AXI4 burst length {num_beats} exceeds the {AXI4_MAX_BURST_LEN}-beat limit"
        )
    first_page = addr // AXI4_BOUNDARY_BYTES
    last_byte = addr + num_beats * beat_bytes - 1
    last_page = last_byte // AXI4_BOUNDARY_BYTES
    if first_page != last_page:
        raise ProtocolError(
            f"AXI4 INCR burst from {addr:#x} for {num_beats}x{beat_bytes}B crosses "
            "a 4KiB boundary"
        )


def check_burst_len_legal(num_beats: int) -> None:
    """Validate only the 256-beat limit (applies to AXI-Pack bursts too)."""
    if num_beats < 1:
        raise ProtocolError(f"burst must have at least one beat, got {num_beats}")
    if num_beats > AXI4_MAX_BURST_LEN:
        raise ProtocolError(
            f"burst length {num_beats} exceeds the {AXI4_MAX_BURST_LEN}-beat limit"
        )
