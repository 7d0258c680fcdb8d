"""Exception types shared across the toolkit.

Every failure mode that a caller is expected to branch on gets its own class;
everything derives from EquiliftError so batch drivers can catch broadly.
The classes are grouped by the module that raises them: core, divisors,
toast, runge, builders and lifting.
"""


class EquiliftError(Exception):
    """Base class for all toolkit errors."""


# core -----------------------------------------------------------------------

class ContourThroughZero(EquiliftError):
    """Argument-principle residual too large; the contour grazes a zero."""


class NoConvergence(EquiliftError):
    """Iterative refinement failed to meet its tolerance."""


class HoleWitnessNotFound(EquiliftError):
    """Ranks show a complement pocket, but no fundamental cycle rings it."""


# divisors -------------------------------------------------------------------

class EmptyWindow(EquiliftError):
    """Generation window is degenerate or holds no points."""


class OverlappingCircles(EquiliftError):
    """Extraction circles around suspected poles are not disjoint."""


# toast ----------------------------------------------------------------------

class NonFreeInput(EquiliftError):
    """Input has a nontrivial translation stabilizer; covariant anchors do not exist."""


class WindowTooSmall(EquiliftError):
    """The window cannot hold even a base-scale region."""


class PocketFillExhausted(EquiliftError):
    """A region still has complement pockets after the pocket-fill budget."""


# runge ----------------------------------------------------------------------

class DegreeCapExceeded(EquiliftError):
    """Degree escalation hit the cap before reaching the requested error."""

    def __init__(self, message, cap=None, best_error=None):
        super().__init__(message)
        self.cap = cap
        self.best_error = best_error


# builders -------------------------------------------------------------------

class EvaluationOnAtom(EquiliftError):
    """Potential evaluated exactly on one of its atoms."""


# lifting --------------------------------------------------------------------

class RungeFailure(EquiliftError):
    """An approximation step failed; carries the level and anchor."""

    def __init__(self, message, level=None, anchor=None):
        super().__init__(message)
        self.level = level
        self.anchor = anchor


class DivisorMismatch(EquiliftError):
    """A local solution does not reproduce the prescribed data on its region."""

