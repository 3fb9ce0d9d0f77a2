"""Unit tests for the vector register file."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.vector.regfile import VectorRegisterFile


class TestVectorRegisters:
    def test_write_read_roundtrip(self):
        regfile = VectorRegisterFile(vlen_bytes=64)
        values = np.arange(8, dtype=np.float32)
        regfile.write_vector("v1", values)
        assert np.array_equal(regfile.read_vector("v1"), values)
        assert regfile.has_vector("v1")
        assert "v1" in regfile

    def test_read_undefined_rejected(self):
        regfile = VectorRegisterFile(vlen_bytes=64)
        with pytest.raises(WorkloadError):
            regfile.read_vector("v3")

    def test_capacity_enforced(self):
        regfile = VectorRegisterFile(vlen_bytes=16)
        with pytest.raises(WorkloadError):
            regfile.write_vector("v1", np.zeros(8, dtype=np.float32))

    def test_overwrite(self):
        regfile = VectorRegisterFile(vlen_bytes=64)
        regfile.write_vector("v1", np.zeros(4, dtype=np.float32))
        regfile.write_vector("v1", np.ones(4, dtype=np.float32))
        assert regfile.read_vector("v1").tolist() == [1, 1, 1, 1]

    def test_clear(self):
        regfile = VectorRegisterFile(vlen_bytes=64)
        regfile.write_vector("v1", np.zeros(2, dtype=np.float32))
        regfile.clear()
        assert not regfile.has_vector("v1")
        assert "v1" not in regfile
