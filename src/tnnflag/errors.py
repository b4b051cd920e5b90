"""Exception types shared across the package."""

__all__ = [
    "TnnError",
    "RankMismatch", "RankTooLarge", "NotComparable", "NoDescentPair",
    "IndexOutOfRange", "ShapeMismatch", "Singular", "NotInBigCell",
    "LengthNotAdditive", "WrongCell", "ParamCountMismatch", "ZeroParameter",
    "NotInChartImage", "WrongStratum", "NotTNN", "InternalInconsistency",
]


class TnnError(Exception):
    """Base class for all errors raised by tnnflag."""


# weyl
class RankMismatch(TnnError):
    """Two permutations of different sizes were combined."""


class RankTooLarge(TnnError):
    """Requested rank is outside the fixed bound ``weyl.MAX_RANK``."""


class NotComparable(TnnError):
    """The pair (w, w') is not Bruhat-comparable."""


class NoDescentPair(TnnError):
    """No simple reflection raises w while lowering w'."""


# linalg
class IndexOutOfRange(TnnError):
    """Simple-root index outside 1..n-1."""


class ShapeMismatch(TnnError):
    """Incompatible matrix or index-set shapes."""


class Singular(TnnError):
    """Matrix is singular (or not of determinant 1 where required)."""


class NotInBigCell(TnnError):
    """The Borel is not opposite to B^-; a required trailing minor vanishes."""


# flag / richardson
class LengthNotAdditive(TnnError):
    """The factorization w = u v does not satisfy l(uv) = l(u) + l(v)."""


class WrongCell(TnnError):
    """A point is not in the Bruhat cell the operation requires."""


class ParamCountMismatch(TnnError):
    """Wrong number of chart parameters."""


class ZeroParameter(TnnError):
    """Chart parameters must be nonzero."""


class NotInChartImage(TnnError):
    """Inversion failed: the point is not in the chart's image."""


class WrongStratum(TnnError):
    """The point's stratum differs from the chart's index."""


class InternalInconsistency(TnnError):
    """A contract that must hold by construction was violated."""


# audit
class NotTNN(TnnError):
    """A matrix claimed totally nonnegative has a negative minor."""
