"""Unit tests for the word-level bank address mapping."""

import pytest
from hypothesis import given, strategies as st

from repro.axi.types import Resp
from repro.errors import ConfigurationError
from repro.mem.words import BankAddressMap, WordRequest


class TestBankAddressMap:
    def test_interleaving(self):
        amap = BankAddressMap(num_banks=4, word_bytes=4)
        assert [amap.decompose(addr)[0] for addr in (0, 4, 8, 12, 16)] == [0, 1, 2, 3, 0]

    def test_rows(self):
        amap = BankAddressMap(num_banks=4, word_bytes=4)
        assert amap.decompose(0) == (0, 0)
        assert amap.decompose(16) == (0, 1)
        assert amap.decompose(20) == (1, 1)

    def test_prime_bank_count(self):
        amap = BankAddressMap(num_banks=17, word_bytes=4)
        assert not amap.is_power_of_two
        assert amap.decompose(17 * 4) == (0, 1)

    def test_power_of_two_detection(self):
        assert BankAddressMap(num_banks=16).is_power_of_two

    def test_word_size_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            BankAddressMap(num_banks=8, word_bytes=3)

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=1 << 20))
    def test_bank_in_range_property(self, banks, addr):
        amap = BankAddressMap(num_banks=banks, word_bytes=4)
        assert 0 <= amap.decompose(addr)[0] < banks

    @given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=1 << 16))
    def test_decompose_is_bijective(self, banks, word):
        amap = BankAddressMap(num_banks=banks, word_bytes=4)
        bank, row = amap.decompose(word * 4)
        assert row * banks + bank == word


class TestWordRecords:
    def test_request_defaults(self):
        request = WordRequest(port=2, word_addr=100, is_write=False)
        assert request.data is None
        assert request.tag is None

    def test_request_doubles_as_its_response(self):
        # The bank stage answers with the request object itself: the routing
        # tag survives and resp starts OKAY until a fault or range check
        # overwrites it.
        request = WordRequest(port=1, word_addr=7, is_write=True, tag=("x", 3))
        assert request.tag == ("x", 3)
        assert request.resp is Resp.OKAY
