"""Good fixture: every public symbol has a non-test caller (DEAD01)."""


def imported():  # called by dead_caller.py through an import alias
    return _private() + helper()


def helper():  # same-module use counts
    return 1


class Widget:  # reached as an attribute of the module in dead_caller.py
    pass


def exempted():  # no caller, but exempted in the manifest with a reason
    return 2


def _private():  # not public: never flagged
    return 3
