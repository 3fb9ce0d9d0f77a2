"""Good fixture: every public method has a non-test caller (DEAD02)."""


class Spec:
    def result_compatible(self, other):  # reached only by getattr in a caller
        return other is self


class Legacy:  # no caller, but the class is exempted in the manifest
    def kept(self):  # a member of an exempt class is exempt too
        return 1
