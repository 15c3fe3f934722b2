"""Exception types shared across the package."""


class ProxkitError(Exception):
    """Base class for the errors proxkit raises on its input."""


class BrokenInvariant(RuntimeError):
    """A check of proxkit's own invariants failed: a bug, never bad input.
    It is not a ProxkitError, so the command line does not report it as
    an input error."""


class NotAPoset(ProxkitError):
    pass


class NotALattice(ProxkitError):
    pass


class NotDistributive(ProxkitError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"distributivity fails at triple {witness}")


class NoBounds(ProxkitError):
    pass


class NotATopology(ProxkitError):
    def __init__(self, witness, kind):
        self.witness = witness
        self.kind = kind  # "membership" | "bounds" | "union" | "intersection"
        super().__init__(f"not closed under {kind}: witness {witness!r}")


class InvalidParameter(ProxkitError):
    pass


class MalformedRelation(ProxkitError):
    pass


class InvalidReflexiveSet(ProxkitError):
    pass


class TooLarge(ProxkitError):
    pass


class NotStablyCompact(ProxkitError):
    pass


class NotComposable(ProxkitError):
    pass


class MalformedMap(ProxkitError):
    pass


class NotDirected(ProxkitError):
    pass


class UnsupportedRepresentation(ProxkitError):
    pass


class UnknownInstance(ProxkitError):
    pass
