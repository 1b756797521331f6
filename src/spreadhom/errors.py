"""Exception types shared across the library."""


class SpreadHomError(Exception):
    """Base class for all library-specific errors."""


# --- poset / spread construction ---------------------------------------


class CycleError(SpreadHomError):
    """The cover relation contains a directed cycle."""


class RedundantCoverError(SpreadHomError):
    """A supplied cover is implied by other covers (or duplicated)."""


class NotAntichainError(SpreadHomError):
    """A set required to be a (nonempty) antichain is not one."""


class AntichainOrderError(SpreadHomError):
    """Source/target antichains violate the antichain order A <= B."""


class NotConvexError(SpreadHomError):
    """A subset required to be convex (and nonempty) is not."""


class NotConnectedError(SpreadHomError):
    """A subset/spread required to be connected is not."""


class NotComparableError(SpreadHomError):
    """Moebius/interval query on an incomparable pair."""


class CapExceededError(SpreadHomError):
    """Enumeration exceeded the caller-supplied cap."""


class DuplicateSpreadError(SpreadHomError):
    """A spread collection contains the same support twice."""


# --- modules / morphisms ------------------------------------------------


class ShapeError(SpreadHomError):
    """A matrix has the wrong shape for its cover or element."""


class CommutativityError(SpreadHomError):
    """Cover maps fail to commute on a diamond."""


class PosetMismatchError(SpreadHomError):
    """Operands live over different posets (or different fields)."""


class HookOrderError(SpreadHomError):
    """Hook endpoints must satisfy a < b."""


# --- families / approximations -----------------------------------------


class MissingProjectivesError(SpreadHomError):
    """Family lacks some principal up-set, so approximations need not cover."""


# --- invariants ----------------------------------------------------------


class ResolutionTruncatedError(SpreadHomError):
    """Resolution hit max_depth before terminating.

    Carries the partial term list so callers can report what was seen.
    """

    def __init__(self, message, terms=()):
        super().__init__(message)
        self.terms = tuple(terms)


class HomMatrixSingularError(SpreadHomError):
    """Hom matrix is not unitriangular under any member order (Hom cycle)."""


class NotTypeAError(SpreadHomError):
    """Barcode requested over a poset whose Hasse graph is not a path."""


class UnknownInvariantError(SpreadHomError):
    """compare()/CLI asked for an invariant kind that does not exist."""


class FileFormatError(SpreadHomError):
    """A structured-text input file violates the schema."""
