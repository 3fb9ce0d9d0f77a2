"""Bad fixture: public methods no non-test caller references (DEAD02).

Naming ``only_tested`` or ``spin`` in this docstring does not count.
"""


class Meter:
    def used(self):  # called by dead_caller_methods.py
        return self._private()

    def only_tested(self):  # DEAD02: only a test file calls it
        return 1

    @property
    def unread(self):  # DEAD02: a property nothing reads
        return 2

    @unread.setter
    def unread(self, value):  # the setter's decorator is not a read
        pass

    def spin(self, n):  # DEAD02: only calls itself
        return self.spin(n - 1) if n else 0

    def _private(self):  # not public: never flagged
        return 3
