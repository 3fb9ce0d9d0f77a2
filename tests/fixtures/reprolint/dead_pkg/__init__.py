"""Bad fixture: package re-exports are not callers (DEAD01)."""

from tests.fixtures.reprolint.dead_bad import reexported

__all__ = ["Recursive", "reexported"]
