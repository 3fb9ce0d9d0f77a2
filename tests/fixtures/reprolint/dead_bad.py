"""Bad fixture: public symbols no non-test caller references (DEAD01).

Naming ``reexported`` or ``Recursive`` in this docstring does not count.
"""


def orphan():  # DEAD01: only a test file calls it
    return 1


def reexported():  # DEAD01: only a package __init__ re-exports it
    return 2


class Recursive:  # DEAD01: mentions only itself
    @classmethod
    def make(cls):
        return Recursive()


def _private():  # not public: never flagged
    return 3
