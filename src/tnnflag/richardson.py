"""Positivity charts for the strata R_{w,w'} and the classifier.

The chart for a pair w <= w' alternates two moves until the pair collapses
to w = w': "peeling" by the maximal length-additive v, which transports
R_{w,w'} isomorphically to R_{wv,w'v} without adding coordinates, and
"extending" along the smallest s with w <= ws and w's <= w', which adds one
coordinate through the map psi.  Both choices are canonical: the peeled v
is the meet of two lower intervals of the right weak order, which
``weyl.peel`` reaches by common ascents taken in any order.  So a chart is
its own last step and a link to the chart of the pair that step starts
from, down to a base point: evaluation folds forward from the base and
inversion walks the links backward.  Every chart is built once and shared,
through the cache of ``build_chart`` or a census's own ``ChartTable``, and
the permutations it stores are the one copy per rank that
``weyl.canonical`` keeps, so a census holds each step once.  Positive
parameters land in the totally nonnegative part of the stratum; the
classifier inverts the chart of any rational flag and decides from the
signs after an exact round trip.

The round trip is proved on the points the inversion computes, with no
second walk.  Inverting b = b_m walks inward through b_{m-1}, ..., b_0 and
checks b_0 == base_point.  An extend step accepts b_k -> (b_{k-1}, a) only
when x_partial * x_{i'}(a) == x_full for the big-cell witnesses of y * b_{k-1}
and y * b_k; psi(b_{k-1}, a) is y^{-1} x_partial x_{i'}(a) w0 * B^+, so that
identity is psi(b_{k-1}, a) == b_k.  A peel step by v onto R_{w,w'} takes
b_{k-1} = phi_up(w, v, b_k) = b_k * v.  If A --x--> B --y--> C with
l(xy) = l(x) + l(y), then A --xy--> C and B is the only such flag (Tits's
axioms for the W-valued distance; Deodhar 1985), so the walk checks
B^- --w'--> b_k, which is equivalent to phi_down(w', v, b_{k-1}) == b_k.
It holds by induction: b_m by the stratum check of classify and
invert_chart, a peel step's inner point at w'v by the same fact, an extend
step's as pi's output, which phi_down puts at w's; so a failed check is an
InternalInconsistency.  eval_chart folds the same maps outward from the
same base point, so by induction on k it reaches b_k at every step and
eval_chart(coords) == b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from . import linalg, weyl
from .errors import (
    InternalInconsistency, LengthNotAdditive, NotInChartImage, ParamCountMismatch,
    TnnError, WrongCell, WrongStratum, ZeroParameter,
)
from .flag import BorelPt, CellIndex, borel_from, opposite_position, stratum
from .linalg import ONE, Rat, bruhat_factor_plus, mul_x, rep_weyl, weyl_mul, y_mul
from .weyl import Perm, Word


# ---------------------------------------------------------------------------
# The elementary maps


def _additive_product(w: Perm, v: Perm) -> Perm:
    """w v, checked to satisfy l(wv) = l(w) + l(v)."""
    wv = weyl.multiply(w, v)
    if weyl.length(wv) != weyl.length(w) + weyl.length(v):
        raise LengthNotAdditive(f"l({w} * {v}) != l + l")
    return wv


def phi_down(w: Perm, v: Perm, b: BorelPt) -> BorelPt:
    """The unique P with B^- --w--> P --v--> b, for b at position wv from B^-.

    rep_weyl(w0) stands in for its inverse (-1)^(n-1) * rep_weyl(w0): the
    scalar changes neither b1 nor u.
    """
    wv = _additive_product(w, v)
    w0 = weyl.longest_element(len(w))
    b1, u = bruhat_factor_plus(weyl_mul(w0, b.rep))
    if u != wv:
        raise WrongCell(f"point is at position {u} from B^-, expected {wv}")
    return borel_from(weyl_mul(w0, weyl_mul(w, b1, right=True)))


def phi_up(w: Perm, v: Perm, b: BorelPt) -> BorelPt:
    """The unique P with B^+ --w0 w v--> P --v^{-1}--> b, for b in C^+_w.

    P is the right translate b * v: rep = b1 * rep_weyl(w0 w) * d with b1 in
    U^+ and d diagonal, so rep * rep_weyl(v) lies in b1 * rep_weyl(w0 w v) * B^+.
    """
    _additive_product(w, v)
    expected = weyl.multiply(weyl.longest_element(len(w)), w)
    if b.position != expected:
        raise WrongCell(f"point is at position {b.position} from B^+, expected {expected}")
    return borel_from(weyl_mul(v, b.rep, right=True))


def pi(w: Perm, wp: Perm, s_index: int, b: BorelPt) -> BorelPt:
    """phi_down along (w's, s): sends R_{w,w'} into R_{w,w's} or R_{ws,w's}."""
    n = len(w)
    if not weyl.is_right_ascent(w, s_index):
        raise LengthNotAdditive(f"s_{s_index} does not lengthen {w}")
    if weyl.is_right_ascent(wp, s_index):
        raise LengthNotAdditive(f"s_{s_index} does not shorten {wp}")
    return phi_down(weyl.right_mult_simple(wp, s_index), weyl.simple(n, s_index), b)


# ---------------------------------------------------------------------------
# psi and its inverse


@lru_cache(maxsize=weyl.PERMS_UNDER_RANK_BOUND)
def conjugator_word(w: Perm) -> Word:
    """Reduced word i_1 ... i_k of w0 w^{-1} w0, for the conjugator
    y = y_{i_1}(1)...y_{i_k}(1) of psi, with inverse y_{i_k}(-1)...y_{i_1}(-1).

    psi gives the same point for the conjugator of every reduced word.
    """
    w0 = weyl.longest_element(len(w))
    return weyl.reduced_word(weyl.multiply(weyl.multiply(w0, weyl.inverse(w)), w0))


def _psi_with(y_word: Word, s_index: int, b: BorelPt, a) -> BorelPt:
    n = b.n
    if a == 0:
        raise ZeroParameter("chart parameters must be nonzero")
    # the big-cell witness depends only on the coset, so y * rep needs no
    # canonical form
    x = linalg.opposite_big_cell_factor(y_mul(y_word, (ONE,) * len(y_word), b.rep))
    ip = n - s_index  # w0 s_i w0 = s_{n-i}
    x_a = mul_x(x, ip, a)  # x * x_{i'}(a)
    return borel_from(y_mul(y_word[::-1], (-ONE,) * len(y_word),
                            weyl_mul(weyl.longest_element(n), x_a, right=True)))


def psi(w: Perm, wp: Perm, s_index: int, b: BorelPt, a) -> BorelPt:
    """One-parameter extension R_{w,w's} x R* -> R_{w,w'}.

    Conjugates b into R_{1,w's} by a fixed positive y, appends x_{i'}(a) to
    its big-cell witness, and conjugates back.  Satisfies pi(psi(b, a)) = b.
    """
    return _psi_with(conjugator_word(w), s_index, b, a)


def _psi_inv_with(
    y_word: Word, w: Perm, wp: Perm, s_index: int, b: BorelPt
) -> tuple[BorelPt, "Rat"]:
    n = b.n
    p = pi(w, wp, s_index, b)
    ones = (ONE,) * len(y_word)
    x_full = linalg.opposite_big_cell_factor(y_mul(y_word, ones, b.rep))
    x_partial = linalg.opposite_big_cell_factor(y_mul(y_word, ones, p.rep))
    # x_partial is unitriangular, so x_full = x_partial * x_{i'}(a) forces
    # a to be the difference of their (i', i'+1) entries
    ip = n - s_index
    a = x_full[ip - 1][ip] - x_partial[ip - 1][ip]
    if a == 0 or x_full != mul_x(x_partial, ip, a):
        raise NotInChartImage("residual is not a single x_{i'}(a) with a != 0")
    return p, a


def psi_inv(w: Perm, wp: Perm, s_index: int, b: BorelPt) -> tuple[BorelPt, "Rat"]:
    """Inverse of psi on its image: (pi(b), recovered parameter)."""
    return _psi_inv_with(conjugator_word(w), w, wp, s_index, b)


# ---------------------------------------------------------------------------
# Charts


@dataclass(frozen=True, slots=True)
class Chart:
    """Chart for R_{w,w'}: its last step, linked to the chart that step
    starts from.

    ``index`` is the pair (w, w') the step maps onto, ``base`` the u of the
    innermost chart R_{u,u}, and ``inner`` the chart of the pair the step
    starts from, ``None`` for the base chart itself.  ``step`` is the shared
    record ``(kind, arg, label)`` of ``_step``, with ``kind`` and ``arg``
    readable as properties:

    - ``kind == "peel"``: phi_down from R_{wv,w'v} with ``arg == v``, no new
      coordinate;
    - ``kind == "extend"``: psi from R_{w,w's_i} with ``arg == i``, one new
      coordinate; its conjugating y-element is a function of w.

    The base chart has ``kind`` and ``arg`` ``None`` and the label ``base``.
    """

    index: CellIndex
    dim: int
    base: Perm
    inner: Chart | None
    step: tuple

    @property
    def kind(self) -> str | None:
        return self.step[0]

    @property
    def arg(self) -> Perm | int | None:
        return self.step[1]

    def links(self) -> Iterator[Chart]:
        """The charts of the steps from the outside in, without the base."""
        chart = self
        while chart.inner is not None:
            yield chart
            chart = chart.inner

    @property
    def steps(self) -> tuple:
        """``(kind, w, w', arg)`` for each step, from the base outward."""
        return tuple((c.kind, c.index.w, c.index.wp, c.arg) for c in self.links())[::-1]

    def shape(self) -> str:
        """The steps from the outside in, e.g. ``peel(2,1,3) -> extend(s2) -> base``.

        Each step record carries its text, so a census formats each distinct
        step once, not once for every chart that walks it.
        """
        parts = []
        chart = self
        while chart is not None:
            parts.append(chart.step[2])
            chart = chart.inner
        return " -> ".join(parts)


# one record per peel by a permutation of rank at most the bound, one per
# extend letter s_1 .. s_{bound-1}, and the base's
@lru_cache(maxsize=weyl.PERMS_UNDER_RANK_BOUND + weyl.MAX_RANK)
def _step(kind: str | None, arg: Perm | int | None) -> tuple:
    """The one record ``(kind, arg, label)`` of a chart step, shared by every
    chart that takes it; the label is ``peel(2,1,3)``, ``extend(s2)`` or
    ``base``.  A label holds only ``[a-z0-9(),]``, which JSON quotes as
    they are."""
    if kind is None:
        return None, None, "base"
    label = f"peel({weyl.perm_to_str(arg)})" if kind == "peel" else f"extend(s{arg})"
    return kind, arg, label


@lru_cache(maxsize=weyl.PERMS_UNDER_RANK_BOUND)
def base_point(w: Perm) -> BorelPt:
    """The single point of R_{w,w}: the W-conjugate w0 w * B^+ of B^+.

    The published construction also states it as w0 w^{-1} * B^+, which
    lies in another stratum when w != w^{-1}.  The stratum is verified
    when the point enters the cache.
    """
    n = len(w)
    b = borel_from(weyl_mul(weyl.longest_element(n), rep_weyl(w)))
    if stratum(b) != CellIndex(w, w):
        raise InternalInconsistency(f"base point for {w} lies in {stratum(b)}")
    return b


def _chart_step(w: Perm, wp: Perm, chart_of: Callable[[Perm, Perm], Chart]) -> Chart:
    """The chart for (w, w'): its last step, a peel or a descent-pair extension,
    linked to ``chart_of`` of the pair it starts from.  ``weyl.peel`` raises
    ``NotComparable`` unless w <= w'.

    Every permutation the chart stores or passes on is the one copy of
    ``weyl.canonical``, and ``weyl.peel`` returns those copies already; the
    peeled v is the meet of two weak-order intervals, so it does not depend
    on the order ``peel`` takes the common ascents in.  ``weyl.canonical``
    raises ``RankTooLarge`` above the rank bound before any chart is built.
    """
    w, wp = weyl.canonical(w), weyl.canonical(wp)
    if w == wp:
        return Chart(CellIndex(w, wp), 0, w, None, _step(None, None))
    v, wv, wpv = weyl.peel(w, wp)
    index = CellIndex(w, wp)
    if wv != w:  # v is not the identity
        inner = chart_of(wv, wpv)
        return Chart(index, inner.dim, inner.base, inner, _step("peel", v))
    i = weyl.find_descent_pair(w, wp)
    inner = chart_of(w, weyl.canonical(weyl.right_mult_simple(wp, i)))
    return Chart(index, inner.dim + 1, inner.base, inner, _step("extend", i))


@lru_cache(maxsize=weyl.PAIRS_UNDER_RANK_BOUND)
def build_chart(w: Perm, wp: Perm) -> Chart:
    """The chart for (w, w'), shared by every caller in the process."""
    return _chart_step(w, wp, build_chart)


class ChartTable(dict):
    """Charts keyed ``table[w][w']``, built without ``build_chart``'s cache and
    alive as long as the table or one of them; each inner chart is the table's."""

    def chart(self, w: Perm, wp: Perm) -> Chart:
        """A hit allocates nothing, and a refused chart leaves no row."""
        if (row := self.get(w)) and (found := row.get(wp)):
            return found
        found = self.setdefault(w, {})[wp] = _chart_step(w, wp, self.chart)
        return found


def eval_chart(chart: Chart, params: Sequence) -> BorelPt:
    """Evaluate the chart on nonzero rational parameters (innermost first)."""
    if len(params) != chart.dim:
        raise ParamCountMismatch(f"expected {chart.dim} parameters, got {len(params)}")
    params = [linalg.rat(p) for p in params]
    if any(p == 0 for p in params):
        raise ZeroParameter("chart parameters must be nonzero")
    b = base_point(chart.base)
    coords = iter(params)
    for kind, w, wp, arg in chart.steps:
        if kind == "peel":
            b = phi_down(wp, arg, b)
        else:
            b = psi(w, wp, arg, b, next(coords))
    return b


def invert_chart(chart: Chart, b: BorelPt) -> tuple:
    """Recover the chart coordinates of b; total inverse of eval_chart.  The
    stratum check starts the induction by which ``_invert`` proves it."""
    if stratum(b) != chart.index:
        raise WrongStratum(f"point lies in {stratum(b)}, chart is for {chart.index}")
    return _invert(chart, b)


def _invert(chart: Chart, b: BorelPt) -> tuple:
    """The coordinates of b in the chart of its stratum, innermost first, from
    one walk that proves each step: an extend by psi_inv's residual, a peel by
    B^- --w'--> outer, which is phi_down(w', v, inner) == outer and holds by
    induction on the walk (module docstring), else InternalInconsistency."""
    coords = []
    for step in chart.links():
        w, wp = step.index.w, step.index.wp
        if step.kind == "peel":
            if (u := opposite_position(b)) != wp:
                raise InternalInconsistency(
                    f"peel onto {step.index}: point is at {u} from B^-, expected {wp}")
            b = phi_up(w, step.arg, b)
        else:
            b, a = psi_inv(w, wp, step.arg, b)
            coords.append(a)
    if b != base_point(chart.base):
        raise NotInChartImage("point differs from the unique base point")
    return tuple(reversed(coords))


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True, slots=True)
class ClassifyResult:
    """Stratum, recovered chart coordinates, and the nonnegativity verdict."""

    index: CellIndex
    coords: tuple
    nonneg: bool
    reason: str

    def to_json(self) -> dict:
        data = self.index.to_json()
        data["coords"] = [str(c) for c in self.coords]
        data["nonneg"] = self.nonneg
        data["reason"] = self.reason
        return data


def classify(b: BorelPt) -> ClassifyResult:
    """Locate b in its stratum and decide total nonnegativity.

    Inverts the stratum's chart with ``_invert``, the walk of invert_chart,
    which proves eval_chart(coords) == b as it goes (module docstring); the
    verdict is positive only if every coordinate is positive.  An inversion
    error gives its class name as the reason, with no coordinates; an
    InternalInconsistency, as from a failed peel check, propagates.
    """
    idx = stratum(b)
    chart = build_chart(idx.w, idx.wp)
    idx = chart.index  # equal to stratum(b), and already held by the chart cache
    try:
        coords = _invert(chart, b)
    except InternalInconsistency:
        raise
    except TnnError as exc:
        return ClassifyResult(idx, (), False, type(exc).__name__)
    if any(c < 0 for c in coords):
        return ClassifyResult(idx, coords, False, "NegativeCoordinate")
    return ClassifyResult(idx, coords, True, "ok")
