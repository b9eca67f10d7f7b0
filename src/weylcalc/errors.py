"""Exception hierarchy shared by all weylcalc modules."""


class WeylcalcError(Exception):
    """Base class for all errors raised by this package."""


class MalformedConfig(WeylcalcError):
    """Root-datum configuration is missing fields or structurally invalid."""


class NotFiniteType(WeylcalcError):
    """Cartan data does not define a finite root system."""


class BadAutomorphism(WeylcalcError):
    """Declared diagram automorphism is incompatible with the root datum."""


class DatumMismatch(WeylcalcError):
    """Operands belong to different root data."""


class NotIntegral(WeylcalcError):
    """A coordinate that must be an integer is not one; never truncated."""


class NotRational(WeylcalcError):
    """A coordinate that must be an exact rational (an int or a Fraction) is
    not one; a float or a bool is never read as a number."""


class NotDominant(WeylcalcError):
    """A coweight that must be dominant is not; signals a caller bug."""


class GroupTooLarge(WeylcalcError):
    """Finite Weyl group enumeration exceeded the configured cap."""


class ExplorationBudgetExceeded(WeylcalcError):
    """A closure/BFS search exceeded its node budget; never a silent truncation.

    Every raiser (a search of the kernel in weylcalc.search, the oracle's
    Cayley ball and the straight-class census) sets `what` (the search's
    name), `held` (the elements, or classes, it held) and `budget`.  A
    kernel search also sets `start`, the element it began from (descend's
    original start, closure's first seed); the others leave it None.
    """

    def __init__(self, message, what=None, held=None, budget=None, start=None):
        super().__init__(message)
        self.what, self.held, self.budget, self.start = what, held, budget, start


class InfinitePi1(WeylcalcError):
    """The lattice quotient by the coroot lattice is infinite; enumeration refused."""


class DecompositionNotFound(WeylcalcError):
    """No spherical decomposition of a minimal-length element was found.

    This would contradict the minimal-length structure theory and is treated
    as a fatal internal error.
    """


class DecompositionFailure(WeylcalcError):
    """An internal convention bug made a canonical decomposition step fail."""


class NotMinimal(WeylcalcError):
    """An element required to be of minimal length in its class is not."""


class NonIntegralHalf(WeylcalcError):
    """A virtual dimension came out non-integral; carries the exact rational."""

    def __init__(self, value):
        super().__init__(f"virtual dimension is not integral: {value}")
        self.value = value


class NonIntegralDimension(WeylcalcError):
    """A closed dimension formula came out non-integral (internal inconsistency)."""


class NegativeDimension(WeylcalcError):
    """Input invariants are inconsistent: a dimension came out negative."""


class HypothesisViolated(WeylcalcError):
    """The hypotheses of a closed formula do not hold for these inputs."""


class UnknownClass(WeylcalcError):
    """No straight conjugacy class with the requested invariants exists."""


class InternalAssertion(WeylcalcError):
    """A structural self-check failed; indicates a bug, not bad input."""
