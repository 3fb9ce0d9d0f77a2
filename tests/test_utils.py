"""Unit tests for repro.utils: bit manipulation, validation and math."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.utils.bitutils import (
    extract_field,
    insert_field,
    is_power_of_two,
    mask,
)
from repro.utils.math import ceil_div, is_prime, mean, round_up_to
from repro.utils.validation import check_positive


class TestMask:
    def test_small_masks(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(8) == 0xFF

    def test_negative_width_rejected(self):
        with pytest.raises(ConfigurationError):
            mask(-1)


class TestPowerOfTwo:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(64)
        assert not is_power_of_two(0)
        assert not is_power_of_two(12)

    @given(st.integers(min_value=-(1 << 20), max_value=1 << 40))
    def test_is_power_of_two_property(self, value):
        assert is_power_of_two(value) == (value > 0 and bin(value).count("1") == 1)


class TestFields:
    def test_insert_then_extract(self):
        word = insert_field(0, 4, 8, 0xAB)
        assert extract_field(word, 4, 8) == 0xAB
        assert extract_field(word, 0, 4) == 0

    def test_insert_preserves_other_bits(self):
        word = insert_field(0xF00F, 4, 4, 0x5)
        assert extract_field(word, 0, 4) == 0xF
        assert extract_field(word, 12, 4) == 0xF
        assert extract_field(word, 4, 4) == 0x5

    def test_insert_rejects_overflow(self):
        with pytest.raises(ConfigurationError):
            insert_field(0, 0, 4, 16)
        with pytest.raises(ConfigurationError):
            insert_field(0, 0, 4, -1)

    def test_extract_rejects_negative_geometry(self):
        with pytest.raises(ConfigurationError):
            extract_field(0xFF, -1, 4)
        with pytest.raises(ConfigurationError):
            extract_field(0xFF, 0, -4)

    @given(st.integers(min_value=0, max_value=31), st.integers(min_value=1, max_value=16),
           st.integers(min_value=0))
    def test_roundtrip_property(self, offset, width, value):
        value = value & ((1 << width) - 1)
        assert extract_field(insert_field(0, offset, width, value), offset, width) == value


class TestMath:
    def test_ceil_div(self):
        assert ceil_div(0, 4) == 0
        assert ceil_div(1, 4) == 1
        assert ceil_div(8, 4) == 2
        assert ceil_div(9, 4) == 3

    def test_ceil_div_rejects_bad_denominator(self):
        with pytest.raises(ConfigurationError):
            ceil_div(4, 0)

    def test_round_up_to(self):
        assert round_up_to(5, 8) == 8
        assert round_up_to(16, 8) == 16

    @pytest.mark.parametrize("value,expected", [
        (1, False), (2, True), (3, True), (4, False), (11, True),
        (16, False), (17, True), (31, True), (32, False),
    ])
    def test_is_prime(self, value, expected):
        assert is_prime(value) is expected

    def test_is_prime_matches_trial_division_up_to_256(self):
        for value in range(-2, 257):
            naive = value >= 2 and all(value % d for d in range(2, value))
            assert is_prime(value) is naive, value

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=4096))
    def test_round_up_to_property(self, value, multiple):
        result = round_up_to(value, multiple)
        assert result % multiple == 0
        assert value <= result < value + multiple

    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0

    def test_mean_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            mean([])

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**4))
    def test_ceil_div_property(self, numerator, denominator):
        result = ceil_div(numerator, denominator)
        assert result * denominator >= numerator
        assert (result - 1) * denominator < numerator or result == 0


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 3) == 3
        with pytest.raises(ConfigurationError):
            check_positive("x", 0)
