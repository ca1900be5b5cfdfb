"""Exception and warning types shared across the package."""

from __future__ import annotations


class AcmLinesError(Exception):
    """Base class for all domain errors raised by this package."""


class OutOfBounds(AcmLinesError):
    """A line references a hyperplane index outside 1..d_f."""


class DuplicateLine(AcmLinesError):
    """The same line appears more than once in the input."""


class UnusedHyperplane(AcmLinesError):
    """A declared hyperplane index is used by no line (strict mode only)."""


class EmptyPointSet(AcmLinesError):
    """grid_from_points needs at least one point."""


class UnknownHyperplane(AcmLinesError):
    """remove_hyperplane was given an index outside the variety."""


class BadPermutation(AcmLinesError):
    """A relabeling is not a bijection of the right size."""


class BadParameter(AcmLinesError):
    """A numeric argument (degree box, line probability, dmax) is out of range."""


class BadN(AcmLinesError):
    """A cycle length that is not an integer of at least 4 makes no sense
    for an induced-cycle test."""


class NotFerrers(AcmLinesError):
    """The operation needs a Ferrers variety and no relabeling makes one."""


class NotAcm(AcmLinesError):
    """The operation needs an ACM variety."""


class EmptyVariety(AcmLinesError):
    """The operation needs at least one line."""


class SizeLimit(AcmLinesError):
    """Input exceeds the size this operation is willing to process."""


class CriteriaDisagreement(AcmLinesError):
    """The independent ACM criteria returned different verdicts.

    This indicates a bug somewhere in the package and is never expected
    on valid input.
    """


class UnusedHyperplaneWarning(UserWarning):
    """Non-strict validation found (and compacted away) unused indices."""


class BoxTooSmallWarning(UserWarning):
    """A degree scan ran on a box that does not hold the compact d, past
    which no minimal generator lies."""
