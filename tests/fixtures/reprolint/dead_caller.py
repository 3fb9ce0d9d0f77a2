"""Good fixture: a non-test caller of dead_good.py (DEAD01)."""

import tests.fixtures.reprolint.dead_good as good
from tests.fixtures.reprolint.dead_good import imported as run


def main():
    return run(), good.Widget()
