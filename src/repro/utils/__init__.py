"""Small shared utilities: bit manipulation, validation and math helpers."""

from repro.utils.bitutils import (
    extract_field,
    insert_field,
    is_power_of_two,
    mask,
)
from repro.utils.validation import check_positive
from repro.utils.math import ceil_div, is_prime, mean, round_up_to

__all__ = [
    "extract_field",
    "insert_field",
    "is_power_of_two",
    "mask",
    "check_positive",
    "ceil_div",
    "is_prime",
    "mean",
    "round_up_to",
]
