"""Byte-addressable backing store shared by all memory models.

The storage is purely functional (a flat numpy byte array); timing lives in
the bank/crossbar models layered on top.  Keeping data movement functional
lets every workload verify its results against a numpy reference, which is
how the test suite proves that packing, indirection and unpacking preserve
data end to end.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import MemoryAccessError
from repro.utils.validation import check_positive


class MemoryStorage:
    """A flat, byte-addressable memory image.

    Parameters
    ----------
    size_bytes:
        Capacity of the modelled SRAM.  Accesses outside ``[0, size_bytes)``
        raise :class:`~repro.errors.MemoryAccessError` — silent wrap-around would
        mask workload address-generation bugs.
    """

    def __init__(self, size_bytes: int) -> None:
        self.size_bytes = check_positive("memory size", size_bytes)
        self._data = np.zeros(size_bytes, dtype=np.uint8)

    # ------------------------------------------------------------ raw access
    def _check_range(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size_bytes:
            raise MemoryAccessError(
                f"access [{addr:#x}, {addr + length:#x}) outside memory of "
                f"{self.size_bytes:#x} bytes"
            )

    def read(self, addr: int, length: int) -> np.ndarray:
        """Return ``length`` bytes starting at ``addr`` (as a copy).

        External callers get copy semantics: the result never aliases the
        memory image, so it stays valid across later writes.  Hot paths that
        consume the bytes immediately should use :meth:`read_view` instead.
        """
        self._check_range(addr, length)
        return self._data[addr : addr + length].copy()

    def read_view(self, addr: int, length: int) -> np.ndarray:
        """Return ``length`` bytes starting at ``addr`` as a zero-copy view.

        The view is read-only and aliases the live memory image: it reflects
        any write performed after the call.  It exists for hot paths that
        immediately re-slice, re-type or copy the bytes (``read_array``, the
        indirect converters' index resolution) — do not hold it across
        simulated cycles; use :meth:`read` for copy semantics.
        """
        self._check_range(addr, length)
        view = self._data[addr : addr + length]
        view.flags.writeable = False
        return view

    def write(self, addr: int, data: Union[bytes, bytearray, np.ndarray]) -> None:
        """Write a byte string or byte array at ``addr``."""
        if isinstance(data, (bytes, bytearray, memoryview)):
            payload = np.frombuffer(data, dtype=np.uint8)
        else:
            payload = np.asarray(data, dtype=np.uint8).ravel()
        self._check_range(addr, len(payload))
        self._data[addr : addr + len(payload)] = payload

    # ---------------------------------------------------------- typed access
    def read_array(self, addr: int, count: int, dtype: Union[str, np.dtype]) -> np.ndarray:
        """Read ``count`` elements of ``dtype`` starting at ``addr``.

        Built on :meth:`read_view` so the bytes are copied exactly once (into
        the typed result) instead of once per layer.
        """
        dtype = np.dtype(dtype)
        raw = self.read_view(addr, count * dtype.itemsize)
        return raw.view(dtype).copy()

    def write_array(self, addr: int, values: np.ndarray) -> None:
        """Write a typed numpy array at ``addr``."""
        values = np.ascontiguousarray(values)
        self.write(addr, values.view(np.uint8))

    def read_scattered(self, addresses: np.ndarray, elem_bytes: int) -> np.ndarray:
        """Gather ``elem_bytes``-sized elements from arbitrary addresses.

        Returns a flat byte array of ``len(addresses) * elem_bytes`` bytes in
        address-list order.  Used by functional checks and the fast model.
        """
        out = np.empty(len(addresses) * elem_bytes, dtype=np.uint8)
        for i, addr in enumerate(addresses):
            self._check_range(int(addr), elem_bytes)
            out[i * elem_bytes : (i + 1) * elem_bytes] = self._data[
                int(addr) : int(addr) + elem_bytes
            ]
        return out

    def write_scattered(self, addresses: np.ndarray, data: np.ndarray, elem_bytes: int) -> None:
        """Scatter ``elem_bytes``-sized elements to arbitrary addresses."""
        if isinstance(data, (bytes, bytearray, memoryview)):
            payload = np.frombuffer(data, dtype=np.uint8)
        else:
            payload = np.asarray(data, dtype=np.uint8).ravel()
        if len(payload) != len(addresses) * elem_bytes:
            raise MemoryAccessError(
                "scatter payload size does not match address count x element size"
            )
        for i, addr in enumerate(addresses):
            self._check_range(int(addr), elem_bytes)
            self._data[int(addr) : int(addr) + elem_bytes] = payload[
                i * elem_bytes : (i + 1) * elem_bytes
            ]

    # -------------------------------------------------------------- utilities
    def fill(self, value: int = 0) -> None:
        """Fill the whole memory with a byte value."""
        self._data.fill(value)

    def snapshot(self) -> np.ndarray:
        """Return a copy of the entire memory image."""
        return self._data.copy()

    def __len__(self) -> int:
        return self.size_bytes
