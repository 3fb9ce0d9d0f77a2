"""Bad fixture: a test module's calls keep nothing alive (DEAD01)."""

from tests.fixtures.reprolint.dead_bad import orphan


def check_orphan():
    assert orphan() == 1
