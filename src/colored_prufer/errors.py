"""Exception types raised across the package.

Every error derives from :class:`ColoredPruferError` so callers can catch
the whole family, and from the closest builtin category so generic handlers
keep working.
"""

from __future__ import annotations


class ColoredPruferError(Exception):
    """Base class for all errors raised by this package."""


# --- tree construction and parsing ------------------------------------------

class TreeStructureError(ColoredPruferError, ValueError):
    """An edge/color list does not describe a colored arborescence."""


class CycleDetected(TreeStructureError):
    pass


class MultipleRoots(TreeStructureError):
    pass


class DisconnectedVertex(TreeStructureError):
    pass


class MissingColor(TreeStructureError):
    pass


class DuplicateEdge(TreeStructureError):
    pass


class ParseError(ColoredPruferError, ValueError):
    """A corpus line is not valid JSON or violates the line schema."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ColoredPruferError, ValueError):
    """A corpus line parsed but failed tree validation."""

    def __init__(self, line: int, cause: Exception):
        super().__init__(f"line {line}: {cause}")
        self.line = line
        self.cause = cause


# --- canonicalization --------------------------------------------------------

class MalformedDescriptor(ColoredPruferError, ValueError):
    """A full search-array descriptor cannot describe any tree."""


# --- codec -------------------------------------------------------------------

class OrderMismatch(ColoredPruferError, ValueError):
    """The supplied vertex order is not a bijection on the tree's vertices."""


class InvalidCode(ColoredPruferError, ValueError):
    """A code violates the structural invariants of a valid encoding."""


class TooSmall(ColoredPruferError, ValueError):
    """Classical Prüfer sequences are only defined for trees on >= 2 vertices."""


# --- matching ----------------------------------------------------------------

class IndexOutOfRange(ColoredPruferError, IndexError):
    pass


class SentinelCompared(ColoredPruferError, ValueError):
    """The terminal (sentinel) column has no numeric parent label to compare."""


class CandidateExplosion(ColoredPruferError, RuntimeError):
    """A candidate search exceeded its cap.

    Nothing in the package raises it; it is kept for callers that still
    catch it.
    """

    def __init__(self, cap: int):
        super().__init__(f"candidate index sets exceeded cap of {cap}")
        self.cap = cap


class SearchBudgetExceeded(ColoredPruferError, RuntimeError):
    """Backtracking search expanded more nodes than its budget allows."""

    def __init__(self, budget: int):
        super().__init__(f"search expanded more than {budget} nodes")
        self.budget = budget


# --- corpus ------------------------------------------------------------------

class NoEligibleClass(ColoredPruferError, LookupError):
    """The corpus has no trees, or no isomorphism class satisfies the
    query's size bound."""
