"""Exception hierarchy shared by all modules.

Every error that crosses a module boundary is a subclass of CybetheError,
so the CLI can map any library failure to a machine-readable record.
"""


class CybetheError(Exception):
    """Base class; carries an optional structured payload for the CLI."""

    def __init__(self, message, **payload):
        super().__init__(message)
        self.payload = payload


class InputError(CybetheError):
    """Malformed or inconsistent user input (CLI exit code 2)."""


class InternalInvariantError(CybetheError):
    """A property the theory guarantees failed to hold (CLI exit code 3)."""


# cartan
class LinkingViolation(CybetheError):
    def __init__(self, node, linking):
        super().__init__(
            f"linking condition fails at node {node}: L = {linking} > 2",
            node=node, linking=linking)
        self.node = node
        self.linking = linking


class SingularCartan(CybetheError):
    pass


class NonRegular(CybetheError):
    pass


class NonTerminating(CybetheError):
    pass


# exactalg
class InexactDivision(CybetheError):
    pass


class NoSolution(CybetheError):
    pass


class AmbiguousNormalization(CybetheError):
    pass


class BranchUndefined(CybetheError):
    pass


# frame
class NegativeExponent(CybetheError):
    pass


class NotGeneric(CybetheError):
    pass


class NotCyclotomic(CybetheError):
    pass


class UnsupportedType(CybetheError):
    pass


# genengine
class ExceptionalParameter(CybetheError):
    def __init__(self, c, reason):
        super().__init__(f"exceptional parameter c = {c}: {reason}", reason=reason)
        self.c = c
        self.reason = reason


class SeedInvalid(CybetheError):
    pass


# typea
class NotInRootCone(CybetheError):
    pass


class NoSpecialBasis(CybetheError):
    pass


class NotSelfDual(CybetheError):
    pass


class NotDecomposable(CybetheError):
    pass


class NotIsotropic(CybetheError):
    pass


# numerics
class IllConditioned(CybetheError):
    pass


class DivisionNearZero(CybetheError):
    pass


class BranchCollision(CybetheError):
    pass
