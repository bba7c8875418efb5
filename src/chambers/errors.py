"""Exception types shared across the package."""


class ChambersError(Exception):
    """Base class for all domain errors."""


# --- Coxeter matrices and words ---

class NotSymmetric(ChambersError):
    pass


class BadDiagonal(ChambersError):
    pass


class BadOffDiagonal(ChambersError):
    pass


class InfiniteGroup(ChambersError):
    pass


class BudgetExceeded(ChambersError):
    """A configured search/enumeration cap was hit; the answer is undecided."""


# --- permutation groups ---

class DegreeMismatch(ChambersError):
    pass


class CapExceeded(ChambersError):
    pass


class NotSubgroup(ChambersError):
    pass


# --- chamber systems ---

class PartitionNotCovering(ChambersError):
    pass


class DuplicateChamber(ChambersError):
    pass


class WrongRank(ChambersError):
    pass


class ResidueNotPolygon(ChambersError):
    pass


class InconsistentResidues(ChambersError):
    pass


class ActionNotFree(ChambersError):
    pass


class ResidueCollision(ChambersError):
    """A quotient was requested whose group maps some rank-2 residue into
    itself; the projection would not be a 2-covering."""


class Disconnected(ChambersError):
    pass


# --- coverings ---

class NotCovering(ChambersError):
    pass


class NotHomomorphism(ChambersError):
    pass


class IncompatibleOnH(ChambersError):
    pass


# --- verification ---

class NoSuchW(ChambersError):
    """Minimal-gallery type set does not match the reduced-word set of any
    group element.  Carries both sets for diagnosis."""

    def __init__(self, message, gallery_types=None, candidate=None, candidate_words=None):
        super().__init__(message)
        self.gallery_types = gallery_types
        self.candidate = candidate
        self.candidate_words = candidate_words


class MissingVertexGroups(ChambersError):
    pass


# --- catalog ---

class CatalogMismatch(ChambersError):
    """A catalog construction gave a count other than the one it is known
    to have: a group or stabilizer order, a number of flags or subspaces."""
