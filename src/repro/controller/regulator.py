"""Per-converter request regulator (paper Fig. 2c, "req regu").

Each converter owns decoupling queues between the banks and its beat packer
(or unpacker).  The regulator bounds the number of word accesses in flight on
each word lane so those queues can never overflow, which is what allows the
rest of the converter to be simple elastic logic.
"""

from __future__ import annotations

from typing import List

from repro.utils.validation import check_positive


class RequestRegulator:
    """In-flight word accesses per word lane and their limit.

    The read and write pipes check and update the counts inline on their
    issue and response paths (``_in_flight[port] < limit`` to issue).
    """

    def __init__(self, num_ports: int, limit: int) -> None:
        self.num_ports = check_positive("num_ports", num_ports)
        self.limit = check_positive("regulator limit", limit)
        self._in_flight: List[int] = [0] * num_ports

    def reset(self) -> None:
        """Clear all counters."""
        self._in_flight = [0] * self.num_ports
