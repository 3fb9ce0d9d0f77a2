"""Vector and scalar register file holding functional values."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import WorkloadError
from repro.utils.validation import check_positive


class VectorRegisterFile:
    """Functional register storage for the vector engine.

    Values are plain numpy arrays; the register file enforces only the
    capacity limit (VLEN) so that workloads cannot accidentally rely on
    registers larger than the modelled hardware provides.
    """

    def __init__(self, vlen_bytes: int, num_registers: int = 32) -> None:
        self.vlen_bytes = check_positive("vlen_bytes", vlen_bytes)
        self.num_registers = check_positive("num_registers", num_registers)
        self._vector: Dict[str, np.ndarray] = {}

    # --------------------------------------------------------------- vectors
    def write_vector(self, name: str, values: np.ndarray) -> None:
        """Store a vector value, checking it fits in one register."""
        values = np.asarray(values)
        if values.nbytes > self.vlen_bytes:
            raise WorkloadError(
                f"value of {values.nbytes} bytes does not fit in a "
                f"{self.vlen_bytes}-byte vector register {name!r}"
            )
        self._vector[name] = values

    def read_vector(self, name: str) -> np.ndarray:
        """Read a vector register; undefined registers read as empty."""
        if name not in self._vector:
            raise WorkloadError(f"vector register {name!r} read before being written")
        return self._vector[name]

    def has_vector(self, name: str) -> bool:
        """True if the register holds a value."""
        return name in self._vector

    # ------------------------------------------------------------------ misc
    def clear(self) -> None:
        """Drop all register contents."""
        self._vector.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._vector
