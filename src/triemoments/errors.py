"""Exception types shared across the package.

Validation of user-supplied parameters raises plain ValueError; the classes
here mark conditions that arise *during* a computation and that callers may
want to handle individually (the CLI maps them to exit code 3).
"""


class TrieMomentsError(Exception):
    """Base class for computational errors raised by this package."""


class KeyExhausted(TrieMomentsError):
    """Two keys agree on all stored bits; longer prefixes are required."""


class DepthGuardExceeded(TrieMomentsError):
    """Recursive splitting ran past the depth guard."""


class WorkBudgetExceeded(TrieMomentsError):
    """A Monte-Carlo run or an exact solve would exceed its work budget."""


class GuardExceeded(TrieMomentsError):
    """Poisson series evaluated beyond the radius its length certifies."""


class DegenerateVariance(TrieMomentsError):
    """Correlation requested where a variance is zero (n < 2)."""


class PoleError(TrieMomentsError):
    """Gamma/digamma evaluated at a nonpositive integer."""


class TruncationNotConverged(TrieMomentsError):
    """A coefficient series stays above its tolerance up to its term cap."""


class RatioSpecMismatch(TrieMomentsError):
    """A supplied rational ratio for log p/log q fails the numeric test."""


class NotPositiveDefinite(TrieMomentsError):
    """2x2 matrix operation requires positive definiteness."""
