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


# one error for every cap; perfbench/workloads.py imports the old name
CapExceeded = BudgetExceeded


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
    """No element's reduced words are the minimal-gallery types from x to y.
    The local witness: `pair`, (x, y); `chamber`, where it shows on a minimal
    gallery; `closer`, its closer neighbours u in i-panels as (i, u, word of
    e_u r_i), e_u the element u's types spell; `missing`, the least reduced
    word of their one element that no gallery has, or None if they give two
    elements or a non-reduced word."""

    def __init__(self, message, pair=None, chamber=None, closer=None, missing=None):
        super().__init__(message)
        self.pair = pair
        self.chamber = chamber
        self.closer = closer
        self.missing = missing


class MissingVertexGroups(ChambersError):
    pass


# --- catalog ---

class CatalogMismatch(ChambersError):
    """A catalog construction gave a count other than the one it is known
    to have: a group or stabilizer order, a number of flags or subspaces."""
