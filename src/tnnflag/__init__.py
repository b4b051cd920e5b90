"""Exact cell decomposition of the totally nonnegative flag variety of SL_n.

Builds, for every Bruhat-comparable pair w <= w', the positivity chart of
the open Richardson stratum R_{w,w'} over exact rational arithmetic, and
classifies any rational flag into its stratum with a total-nonnegativity
verdict obtained by inverting the chart.
"""

from . import audit, errors, flag, linalg, richardson, weyl
from .flag import BorelPt, CellIndex, borel_from, stratum
from .linalg import Rat, rep_weyl
from .richardson import (
    Chart, ClassifyResult, build_chart, classify, eval_chart, invert_chart,
)

__version__ = "0.1.0"

__all__ = [
    "audit", "errors", "flag", "linalg", "richardson", "weyl",
    "BorelPt", "CellIndex", "borel_from", "stratum", "Rat", "rep_weyl",
    "Chart", "ClassifyResult", "build_chart", "classify", "eval_chart",
    "invert_chart", "__version__",
]
