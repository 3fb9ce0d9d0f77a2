"""Bad fixture: a test module's calls keep nothing alive (DEAD01, DEAD02)."""

from tests.fixtures.reprolint.dead_bad import orphan
from tests.fixtures.reprolint.dead_methods_bad import Meter


def check_orphan():
    assert orphan() == 1


def check_meter():
    assert Meter().only_tested() == 1
    assert getattr(Meter(), "unread") == 2
