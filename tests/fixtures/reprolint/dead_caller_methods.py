"""Good fixture: a non-test caller of the DEAD02 fixtures."""

from tests.fixtures.reprolint.dead_methods_bad import Meter
from tests.fixtures.reprolint.dead_methods_good import Spec


def main():
    spec = Spec()
    checker = getattr(spec, "result_compatible", None)
    return Meter().used(), checker is not None and checker(spec)
