"""Exception hierarchy shared by all ggt modules.

Two families matter to callers. ``RefusalError`` covers the bounded
searches and mathematical preconditions that a well-formed input can
still fail (the CLI maps these to exit code 3). Everything else derived
from ``GgtError`` indicates malformed or invalid input (exit code 2).
"""


class GgtError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GgtError):
    """A graph, element or factorization file could not be parsed."""


class MalformedGraph(GgtError):
    """Duplicate or dangling names in a graph description."""


class NotInfiniteEmitter(GgtError):
    pass


class NotStronglyConnected(GgtError):
    pass


class NotARegularSource(GgtError):
    pass


class NoDisjointCycles(GgtError):
    pass


class SourcesOverlap(GgtError):
    pass


class RangesOverlap(GgtError):
    pass


class CarrierMismatch(GgtError):
    pass


class OverlappingSourceRange(GgtError):
    pass


class SourcePresent(GgtError):
    pass


class NegativeLevel(GgtError):
    pass


class NotEssential(GgtError):
    pass


class CriteriaFailed(GgtError):
    pass


class RefusalError(GgtError):
    """A computation refused on mathematical grounds; reported, not a bug."""


class IndexNonzero(RefusalError):
    pass


class HypothesesFailed(RefusalError):
    pass


class NotEquivalent(RefusalError):
    pass


class VerificationFailed(RefusalError):
    """A claimed factorization did not recompose to the target element."""
