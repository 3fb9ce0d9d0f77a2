"""Address decode maps and the burst-level data-width converter.

A central compatibility claim of AXI-Pack (paper §II-A) is that interconnect
IP which does not reshape bursts — demultiplexers, multiplexers, crossbars
that only route — works with packed bursts *unmodified*, because all the new
semantics live in the ``user`` field and the existing address/len/size
fields.  The cycle-level routing blocks that model that claim live in
:mod:`repro.axi.mux`; they decode addresses with the :class:`AddressMap` and
:class:`InterleavedAddressMap` defined here.

IP that does reshape bursts (data-width converters) needs a small
extension: it must re-pack bus-aligned elements when changing the bus width,
exactly as it already re-packs contiguous data.  :class:`DataWidthConverter`
models that extension at burst granularity (it transforms
:class:`~repro.axi.transaction.BusRequest` objects).  The system model never
instantiates it: every port of a :class:`~repro.system.soc.Soc` shares one
bus width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.axi.pack import PackMode
from repro.axi.transaction import BusRequest
from repro.errors import ConfigurationError, ProtocolError
from repro.utils.bitutils import is_power_of_two


@dataclass(frozen=True)
class AddressRegion:
    """One target region of an address map."""

    base: int
    size: int
    target: int

    def __post_init__(self) -> None:
        if self.base < 0 or self.size <= 0 or self.target < 0:
            raise ConfigurationError("invalid address region")

    @property
    def end(self) -> int:
        """First byte address after the region."""
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        """True if the byte address falls inside this region."""
        return self.base <= addr < self.end


class AddressMap:
    """Ordered, non-overlapping address decode used by routing blocks."""

    def __init__(self, regions: Sequence[AddressRegion]) -> None:
        if not regions:
            raise ConfigurationError("address map needs at least one region")
        ordered = sorted(regions, key=lambda region: region.base)
        for before, after in zip(ordered, ordered[1:]):
            if before.end > after.base:
                raise ConfigurationError(
                    f"address regions overlap at {after.base:#x}"
                )
        self.regions: Tuple[AddressRegion, ...] = tuple(ordered)

    def route(self, addr: int) -> int:
        """Return the target index owning ``addr``."""
        for region in self.regions:
            if region.contains(addr):
                return region.target
        raise ProtocolError(f"address {addr:#x} decodes to no target (DECERR)")

    def try_route(self, addr: int) -> int:
        """Like :meth:`route`, but return ``-1`` for an unmapped address.

        The cycle-level demux uses this to answer unmapped bursts with
        in-band ``DECERR`` responses instead of aborting the simulation.
        """
        for region in self.regions:
            if region.contains(addr):
                return region.target
        return -1

    @property
    def num_targets(self) -> int:
        """Number of distinct targets in the map."""
        return len({region.target for region in self.regions})


class InterleavedAddressMap:
    """Stripe-interleaved address decode across ``num_targets`` channels.

    Instead of carving the address space into per-target regions, consecutive
    ``stripe_bytes``-sized stripes rotate across the targets:
    ``target = (addr // stripe_bytes) % num_targets``.  This is the classic
    multi-channel memory interleaving scheme — every channel sees a share of
    every workload's traffic, so bandwidth scales with the channel count
    without the software placing data.

    Routing blocks that consume this map route each burst by its *start*
    address (stripe-ownership semantics): the owning channel serves the whole
    burst even when its footprint crosses a stripe boundary.  That models a
    channel interleaver sitting in front of timing models which share one
    functional memory image, and keeps packed bursts — whose footprint is not
    derivable from the address alone — routable with zero AXI-Pack awareness,
    preserving the paper's §II-A compatibility claim.
    """

    def __init__(self, num_targets: int, stripe_bytes: int,
                 size_bytes: int) -> None:
        if num_targets < 1:
            raise ConfigurationError("interleaved map needs at least one target")
        if not is_power_of_two(stripe_bytes):
            raise ConfigurationError("stripe size must be a power of two")
        if size_bytes < stripe_bytes * num_targets:
            raise ConfigurationError(
                "address space smaller than one stripe per target"
            )
        self.num_targets = num_targets
        self.stripe_bytes = stripe_bytes
        self.size_bytes = size_bytes
        self._stripe_shift = stripe_bytes.bit_length() - 1

    def route(self, addr: int) -> int:
        """Return the target index owning the stripe containing ``addr``."""
        if not 0 <= addr < self.size_bytes:
            raise ProtocolError(
                f"address {addr:#x} decodes to no target (DECERR)"
            )
        return (addr >> self._stripe_shift) % self.num_targets

    def try_route(self, addr: int) -> int:
        """Like :meth:`route`, but return ``-1`` for an out-of-range address."""
        if not 0 <= addr < self.size_bytes:
            return -1
        return (addr >> self._stripe_shift) % self.num_targets


class DataWidthConverter:
    """Converts bursts between bus widths, re-packing AXI-Pack beats.

    This is the one class of interconnect IP that *does* need to understand
    AXI-Pack: when the data bus narrows or widens, the number of elements per
    beat changes, so the burst length must be recomputed and long bursts may
    need splitting to stay within the 256-beat limit.  Everything else
    (address, element size, stride, index base) is carried over unchanged.
    """

    def __init__(self, upstream_bytes: int, downstream_bytes: int) -> None:
        for width in (upstream_bytes, downstream_bytes):
            if not is_power_of_two(width):
                raise ConfigurationError("bus widths must be powers of two")
        self.upstream_bytes = upstream_bytes
        self.downstream_bytes = downstream_bytes

    def convert(self, request: BusRequest) -> List[BusRequest]:
        """Return the equivalent burst(s) on the downstream bus width."""
        if request.bus_bytes != self.upstream_bytes:
            raise ProtocolError(
                f"request was built for a {request.bus_bytes}-byte bus, but the "
                f"converter's upstream side is {self.upstream_bytes} bytes"
            )
        if request.elem_bytes > self.downstream_bytes:
            raise ProtocolError(
                "element does not fit in the downstream bus; a narrower bus "
                "cannot carry this packed stream"
            )
        out: List[BusRequest] = []
        elems_per_beat = (
            1 if request.is_narrow else self.downstream_bytes // request.elem_bytes
        )
        max_elems = 256 * elems_per_beat
        remaining = request.num_elements
        first = 0
        while remaining > 0:
            count = min(remaining, max_elems)
            out.append(self._rebuild(request, first, count))
            first += count
            remaining -= count
        return out

    def _rebuild(self, request: BusRequest, first: int, count: int) -> BusRequest:
        if request.mode is PackMode.STRIDED:
            stride_bytes = request.pack.stride_elems * request.elem_bytes
            addr = request.addr + first * stride_bytes
        elif request.mode is PackMode.INDIRECT:
            addr = request.addr
        else:
            addr = request.addr + first * request.elem_bytes
        pack = request.pack
        index_base = request.index_base
        if request.mode is PackMode.INDIRECT and first:
            index_base = request.index_base + first * pack.index_bytes
            pack = type(pack).indirect(pack.index_bytes, index_base)
        return BusRequest(
            addr=addr,
            is_write=request.is_write,
            num_elements=count,
            elem_bytes=request.elem_bytes,
            bus_bytes=self.downstream_bytes,
            contiguous=request.contiguous,
            pack=pack,
            index_base=index_base,
        )

    def beat_ratio(self) -> float:
        """Downstream beats needed per upstream beat (for sizing FIFOs)."""
        return self.upstream_bytes / self.downstream_bytes
