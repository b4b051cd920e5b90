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
checks b_0 == base_point.  An extend step builds b_{k-1} with
psi(b_{k-1}, a) == b_k by construction (``psi_inv``).  A peel step by v onto
R_{w,w'} takes b_{k-1} = phi_up(w, v, b_k) = b_k * v.  If A --x--> B --y--> C
with l(xy) = l(x) + l(y), then A --xy--> C and B is the only such flag
(Tits's axioms for the W-valued distance; Deodhar 1985), so the walk checks
B^- --w'--> b_k, which is equivalent to phi_down(w', v, b_{k-1}) == b_k.  It
holds by induction: b_m by the stratum check of classify and invert_chart,
a peel step's inner point at w'v by the same fact, an extend step's as
psi_inv places it at w's; so a failed check is an InternalInconsistency.
The same induction places each extend step's input, so the walk calls
``_psi_inv_with``, which reads that position instead of checking it.
eval_chart folds the same maps outward from the same base point, so by
induction on k it reaches b_k at every step and eval_chart(coords) == b.
phi_down, psi and psi_inv take any representative: eval_chart builds one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from . import linalg, weyl
from .errors import (
    InternalInconsistency, LengthNotAdditive, NotInBigCell, NotInChartImage,
    ParamCountMismatch, TnnError, WrongCell, WrongStratum, ZeroParameter,
)
from .flag import BorelPt, CellIndex, borel_from, opposite_position, stratum
from .linalg import ONE, Mat, Rat, bruhat_factor_plus, mul_x, rep_weyl, weyl_mul, y_mul
from .weyl import Perm, Word


# ---------------------------------------------------------------------------
# The elementary maps


def _additive_product(w: Perm, v: Perm) -> Perm:
    """w v, checked to satisfy l(wv) = l(w) + l(v)."""
    wv = weyl.multiply(w, v)
    if weyl.length(wv) != weyl.length(w) + weyl.length(v):
        raise LengthNotAdditive(f"l({w} * {v}) != l + l")
    return wv


def phi_down(w: Perm, v: Perm, g: Mat) -> Mat:
    """A representative of the unique P with B^- --w--> P --v--> g * B^+, for
    any representative g at position wv from B^-.

    rep_weyl(w0) stands in for its inverse (-1)^(n-1) * rep_weyl(w0): the
    scalar changes neither b1 nor u.
    """
    wv = _additive_product(w, v)
    w0 = weyl.longest_element(len(w))
    b1, u = bruhat_factor_plus(weyl_mul(w0, g))
    if u != wv:
        raise WrongCell(f"point is at position {u} from B^-, expected {wv}")
    return weyl_mul(w0, weyl_mul(w, b1, right=True))


def phi_up(w: Perm, v: Perm, b: BorelPt) -> Mat:
    """A representative of the unique P with B^+ --w0 w v--> P --v^{-1}--> b in C^+_w.

    P is the right translate b * v: the canonical rep = b1 * rep_weyl(w0 w) * d,
    b1 in U^+ and d diagonal, so rep * rep_weyl(v) is in b1 * rep_weyl(w0 w v) * B^+.
    """
    _additive_product(w, v)
    expected = weyl.multiply(weyl.longest_element(len(w)), w)
    if b.position != expected:
        raise WrongCell(f"point is at position {b.position} from B^+, expected {expected}")
    return weyl_mul(v, b.rep, right=True)


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


def _psi_with(y_word: Word, s_index: int, g: Mat, a) -> Mat:
    if a == 0:
        raise ZeroParameter("chart parameters must be nonzero")
    x = linalg.opposite_big_cell_factor(y_mul(y_word, (ONE,) * len(y_word), g))
    return _from_witness(y_word, s_index, x, a)


def _from_witness(y_word: Word, s_index: int, x: Mat, a) -> Mat:
    """y^{-1} x x_{i'}(a) w0: psi at a of the point whose y-translate has witness x."""
    n = len(x)
    return y_mul(y_word[::-1], (-ONE,) * len(y_word),  # w0 s_i w0 = s_{n-i}
                 weyl_mul(weyl.longest_element(n), mul_x(x, n - s_index, a), right=True))


def psi(w: Perm, wp: Perm, s_index: int, g: Mat, a) -> Mat:
    """One-parameter extension R_{w,w's} x R* -> R_{w,w'} on representatives.

    Conjugates g into R_{1,w's} by a fixed positive y, appends x_{i'}(a) to
    its big-cell witness, and conjugates back.
    """
    return _psi_with(conjugator_word(w), s_index, g, a)


def _psi_inv_with(y_word: Word, wp: Perm, s_index: int, g: Mat) -> tuple[BorelPt, "Rat"]:
    """psi_inv by the conjugator y_word of w, with none of its input checks.

    The walk has proved each one: the descent pair when the chart was built
    (``weyl.find_descent_pair``), and g at w' from B^- by the stratum check
    for the outermost step; for an inner step, the peel check places the
    peel's outer point at w'' from B^-, so phi_up's translate by v is at
    w''v = w' (Tits, module docstring).
    """
    n = len(g)
    x = linalg.opposite_big_cell_factor(y_mul(y_word, (ONE,) * len(y_word), g))
    a = _extend_parameter(x, n - s_index, [n - wp[k] for k in range(s_index)])
    if a == 0:
        raise NotInChartImage("recovered parameter is 0")
    return borel_from(_from_witness(y_word, s_index, x, -a)), a


def _extend_parameter(x: Mat, ip: int, rows: list[int]) -> "Rat":
    """Delta_x(R; i'+1..n) / Delta_x(R; i', i'+2..n) on the 0-based rows R, by
    one elimination: clearing the shared columns i'+2..n below their pivots
    leaves a last row (0, .., 0, den, num), each minor det(pivots) times an
    entry with one sign.  A wrong a fails the next step (psi_inv)."""
    shared = range(ip + 1, len(x))
    m = [[x[r][c] for c in (*shared, ip - 1, ip)] for r in rows]
    for k in range(len(shared)):
        p = next((r for r in range(k, len(m)) if m[r][k]), None)
        if p is None:  # the shared columns are dependent: both minors are 0
            break
        m[k], m[p] = m[p], m[k]
        for row in m[k + 1:]:
            if row[k]:
                f = row[k] / m[k][k]
                row[k:] = [y - f * z for y, z in zip(row[k:], m[k][k:])]
    else:
        den, num = m[-1][-2:]
        if den:
            return num / den
    raise NotInBigCell("the inner point's witness does not exist")


def psi_inv(w: Perm, wp: Perm, s_index: int, g: Mat) -> tuple[BorelPt, "Rat"]:
    """Inverse of psi on its image: (p, a) with psi(p, a) = g * B^+ and p at
    w's from B^-, for any representative g at w' from B^-.

    For the witness x of y * g and q(c) = y^{-1} x x_{i'}(c) w0 * B^+, the
    witness of y * q(c) is x x_{i'}(c) (it is unique in U^+), so
    psi(q(-a), a) = g * B^+ for every a.  The q(c) are the s_i-panel of
    g * B^+ less one point, each at w' or w's from B^- as y * q(c) is (y is
    in B^-), and one panel point, phi_down(w's, s_i, g), is at w's (Tits).
    For z in U^+ and u = w0 w' w0, z w0 * B^+ is at w' iff z is in B^- u B^-,
    where its minor on R = u({i'+1..n}) = {n+1-w'(k) : k <= i} and
    J = {i'+1..n} is not 0 (Cauchy-Binet); at w's, u s_{i'} sends J above R
    and that minor is 0.  For z = x x_{i'}(c) it is f(c) = Delta_x(R; J) +
    c * Delta_x(R; i', i'+2..n), with f(0) != 0 as g is at w' (checked
    first).  So a = f(0) / Delta_x(R; i', i'+2..n) is never 0 and q(-a) is
    the point at w's; a zero denominator leaves it the one no q(c) reaches,
    outside the big cell after y, so that y * p has no witness.  The next
    step (a peel's checks or the base point) places p in R_{w,w's}.

    Checks the descent pair (LengthNotAdditive) and then g's position
    (WrongCell), which ``_invert`` reads from its induction instead.
    """
    if not weyl.is_right_ascent(w, s_index):
        raise LengthNotAdditive(f"s_{s_index} does not lengthen {w}")
    if weyl.is_right_ascent(wp, s_index):
        raise LengthNotAdditive(f"s_{s_index} does not shorten {wp}")
    if (u := opposite_position(g)) != wp:
        raise WrongCell(f"point is at position {u} from B^-, expected {wp}")
    return _psi_inv_with(conjugator_word(w), wp, s_index, g)


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
    g = base_point(chart.base).rep
    coords = iter(params)
    for kind, w, wp, arg in chart.steps:
        g = phi_down(wp, arg, g) if kind == "peel" else psi(w, wp, arg, g, next(coords))
    return borel_from(g)


def invert_chart(chart: Chart, b: BorelPt) -> tuple:
    """Recover the chart coordinates of b; total inverse of eval_chart.  The
    stratum check starts the induction by which ``_invert`` proves it."""
    if stratum(b) != chart.index:
        raise WrongStratum(f"point lies in {stratum(b)}, chart is for {chart.index}")
    return _invert(chart, b)


def _invert(chart: Chart, b: BorelPt) -> tuple:
    """The coordinates of b in the chart of its stratum, innermost first, from
    one walk that proves each step: an extend by construction (psi_inv), a
    peel by B^- --w'--> outer, equivalent to phi_down(w', v, inner) == outer,
    by induction on the walk (module docstring), else InternalInconsistency.
    A peel's inner step is an extend, which takes phi_up's representative;
    an extend skips psi_inv's input checks, which the chart and the same
    induction prove (``_psi_inv_with``)."""
    coords, g = [], b.rep
    for step in chart.links():
        w, wp = step.index.w, step.index.wp
        if step.kind == "peel":
            if (u := opposite_position(b.rep)) != wp:
                raise InternalInconsistency(
                    f"peel onto {step.index}: point is at {u} from B^-, expected {wp}")
            g = phi_up(w, step.arg, b)
        else:
            b, a = _psi_inv_with(conjugator_word(w), wp, step.arg, g)
            g = b.rep
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
