import ast
import itertools
import json
import random
from operator import le
from pathlib import Path

import pytest

from tnnflag import linalg, weyl
from tnnflag.errors import (
    InternalInconsistency, LengthNotAdditive, NotComparable, NotInChartImage,
    ParamCountMismatch, ShapeMismatch, Singular, TnnError, WrongCell,
)
from tnnflag.flag import CellIndex, borel_from, stratum
from tnnflag.linalg import Rat, identity_mat, mat_mul, mul_x, rep_weyl, y_mul, y_product
from tnnflag.richardson import (
    ClassifyResult, build_chart, conjugator_word, eval_chart, invert_chart, phi_down,
)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_names():
    """(metric, attr) for each function that bench/tracer.py wraps, read from
    its SPANNED and COUNTED tables as literals, without running the tracer."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    pairs = [(metric, attr) for metric, attrs in tables["SPANNED"] for attr in attrs]
    return pairs + list(tables["COUNTED"])


def report_text(report):
    """An audit report as the CLI prints it."""
    return json.dumps(report.to_json(), sort_keys=True, indent=2)


def rand_rat(rng: random.Random, positive: bool = False):
    """Bounded random rational (numerator/denominator in 1..10)."""
    q = Rat(rng.randint(1, 10), rng.randint(1, 10))
    if not positive and rng.random() < 0.5:
        q = -q
    return q


def rand_params(rng, k, positive=False):
    return tuple(rand_rat(rng, positive) for _ in range(k))


def random_sl(n: int, rng: random.Random):
    """Random element of SL_n(Q): a product of random Chevalley generators."""
    g = identity_mat(n)
    for _ in range(rng.randint(3, 8)):
        i = rng.randint(1, n - 1)
        product = x_product if rng.random() < 0.5 else y_product
        g = mat_mul(g, product(n, (i,), (rand_rat(rng),)))
    return g


def sparse_sl(n: int, rng: random.Random):
    """Random element of SL_n(Q) with small integer entries, mostly zero:
    entries drawn from {0, 0, 0, 1, -1, 2}, the first column divided by
    the determinant."""
    while True:
        g = [[Rat(rng.choice((0, 0, 0, 1, -1, 2))) for _ in range(n)]
             for _ in range(n)]
        d = leibniz_det(g)
        if d:
            return tuple(tuple(x / d if j == 0 else x for j, x in enumerate(row))
                         for row in g)


def cell_point(w, rng: random.Random):
    """u * P_w * b in the Bruhat cell B^+ w B^+, of determinant 1.

    u is upper unitriangular, P_w the permutation matrix with 1 at
    (w(j), j), and b upper triangular; both have random sparse entries.
    """
    n = len(w)

    def entry(i, j):
        return rand_rat(rng) if j > i and rng.random() < 0.6 else Rat(0)

    u = [[Rat(1) if i == j else entry(i, j) for j in range(n)] for i in range(n)]
    p = [[Rat(int(w[j] == i + 1)) for j in range(n)] for i in range(n)]
    diag = [rand_rat(rng) for _ in range(n - 1)]
    last = Rat(-1 if weyl.length(w) % 2 else 1)
    for d in diag:
        last /= d
    diag.append(last)
    b = [[diag[i] if i == j else entry(i, j) for j in range(n)] for i in range(n)]
    return ref_mat_mul(ref_mat_mul(u, p), b)


def transpose(a):
    return tuple(zip(*a))


def ref_mat_mul(a, b):
    """Plain dense triple-loop product: the reference for linalg.mat_mul."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            total = Rat(0)
            for k in range(n):
                total += a[i][k] * b[k][j]
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


def ref_column_echelon(g):
    """linalg.column_echelon in rational arithmetic: g = c * u.

    Column j of c is 1 in row w(j), its bottom-most nonzero row, and 0 in
    the rows w(k) for k < j; u is upper triangular with the pivots on its
    diagonal and the subtracted coefficients above it.  Returns (c, w, u);
    raises Singular.
    """
    n = len(g)
    cols = [[g[i][j] for i in range(n)] for j in range(n)]
    u = [[Rat(0)] * n for _ in range(n)]
    pivots = []
    for j in range(n):
        col = cols[j]
        for jp, p in enumerate(pivots):
            if col[p] != 0:
                f = u[jp][j] = col[p]
                col[:] = [x - f * y if y else x for x, y in zip(col, cols[jp])]
        p = max((i for i in range(n) if col[i] != 0), default=None)
        if p is None:
            raise Singular("matrix is singular")
        f = u[j][j] = col[p]
        if f != 1:
            col[:] = [x / f if x else x for x in col]
        pivots.append(p)
    return (transpose(cols), tuple(p + 1 for p in pivots),
            tuple(map(tuple, u)))


def subword_leq(u, w):
    """Bruhat order oracle: u <= w iff u is a product of a subword of a
    reduced word of w (brute force over all subwords)."""
    word = weyl.reduced_word(w)
    n = len(w)
    for r in range(len(word) + 1):
        for positions in itertools.combinations(range(len(word)), r):
            if weyl.word_to_perm(n, [word[p] for p in positions]) == u:
                return True
    return False


def simple(n, i):
    """The simple reflection s_i of S_n, swapping i and i+1."""
    return weyl.word_to_perm(n, (i,))


def ref_prefix_key(w):
    """sorted(w[:k]) for k = 1..n-1, concatenated, as one flat tuple."""
    return tuple(x for k in range(1, len(w)) for x in sorted(w[:k]))


def ref_bruhat_leq(u, w):
    """The tableau criterion unpacked: every entry of u's sorted prefixes is
    at most the matching entry of w's."""
    return all(map(le, ref_prefix_key(u), ref_prefix_key(w)))


def ref_peel(w, wp):
    """weyl.peel as a plain loop: after each common ascent, rescan from s_1."""
    n = len(w)
    v = weyl.identity(n)
    wv, wpv = w, wp
    while True:
        for i in range(1, n):
            if weyl.is_right_ascent(wv, i) and weyl.is_right_ascent(wpv, i):
                v = weyl.right_mult_simple(v, i)
                wv = weyl.right_mult_simple(wv, i)
                wpv = weyl.right_mult_simple(wpv, i)
                break
        else:
            return v


def ref_find_descent_pair(w, wp):
    """weyl.find_descent_pair as a scan of both permutations: the smallest i
    with w(i) < w(i+1) and w'(i) > w'(i+1), or None when there is none."""
    return next((i for i in range(1, len(w)) if w[i - 1] < w[i] and wp[i - 1] > wp[i]),
                None)


def ref_build_chart(w, wp):
    """build_chart as a flat step list, each chart copying its inner chart's
    steps: (dim, base, steps), with steps from the base outward, each
    ("peel", w, w', v) or ("extend", w, w', i)."""
    if not weyl.bruhat_leq(w, wp):
        raise NotComparable(f"{w} is not <= {wp} in Bruhat order")
    if w == wp:
        return 0, w, ()
    # only v is read from peel; the inner pair is recomputed with multiply,
    # independently of the pair peel returns
    v, _, _ = weyl.peel(w, wp)
    if v != weyl.identity(len(w)):
        dim, base, steps = ref_build_chart(weyl.multiply(w, v), weyl.multiply(wp, v))
        return dim, base, steps + (("peel", w, wp, v),)
    i = weyl.find_descent_pair(w, wp)
    dim, base, steps = ref_build_chart(w, weyl.right_mult_simple(wp, i))
    return dim + 1, base, steps + (("extend", w, wp, i),)


def ref_shape(steps):
    """Chart.shape() read from a flat step list."""
    parts = [f"peel({weyl.perm_to_str(step[3])})" if step[0] == "peel"
             else f"extend(s{step[3]})" for step in reversed(steps)]
    return " -> ".join(parts + ["base"])


def rank(rows):
    """Rank of a (not necessarily square) exact matrix."""
    m = [list(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    r = 0
    for j in range(n_cols):
        p = next((i for i in range(r, n_rows) if m[i][j] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot = m[r][j]
        for i in range(r + 1, n_rows):
            if m[i][j] != 0:
                f = m[i][j] / pivot
                for k in range(j, n_cols):
                    m[i][k] -= f * m[r][k]
        r += 1
        if r == n_rows:
            break
    return r


def rank_relative_position(b1, b2):
    """Relative position oracle from dimensions of intersections.

    r(i, j) = dim(span of the first i columns of rep1 intersected with the
    span of the first j columns of rep2); w(j) = i exactly when the second
    difference of r at (i, j) equals 1.
    """
    n = b1.n
    r = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            stacked = [row1[:i] + row2[:j] for row1, row2 in zip(b1.rep, b2.rep)]
            r[i][j] = i + j - rank(stacked)
    images = [0] * n
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if r[i][j] - r[i - 1][j] - r[i][j - 1] + r[i - 1][j - 1] == 1:
                images[j - 1] = i
                break
    return weyl.validate_perm(images)


def is_upper_unitriangular(m):
    return linalg.is_upper_triangular(m) and all(m[i][i] == 1 for i in range(len(m)))


def x_product(n, letters, params):
    """x_{letters[0]}(params[0]) * ... * x_{letters[-1]}(params[-1])."""
    if len(letters) != len(params):
        raise ShapeMismatch("letters and parameters differ in count")
    rows = identity_mat(n)
    for i, a in zip(letters, params):
        rows = mul_x(rows, i, Rat(a))
    return rows


def ref_rep_simple(n, i):
    """The pinned representative of s_i as the product y_i(1) x_i(-1) y_i(1),
    the block [[0, -1], [1, 0]] at rows and columns i, i+1: the reference
    for linalg.rep_weyl's closed form."""
    y = y_product(n, (i,), (1,))
    return mat_mul(mat_mul(y, x_product(n, (i,), (-1,))), y)


def ref_y_mul(letters, params, m):
    """linalg.y_mul as a product: y_{letters[0]}(params[0]) * ... * m, each
    y_i(a) built entry by entry and multiplied in with mat_mul."""
    n = len(m)
    y = identity_mat(n)
    for i, a in zip(letters, params):
        gen = [list(row) for row in identity_mat(n)]
        gen[i][i - 1] = Rat(a)
        y = mat_mul(y, tuple(map(tuple, gen)))
    return mat_mul(y, m)


def key_chart_upper(wp):
    """Reduced word of w0 w' w0 and params -> x-product * B^-, covering R_{1,w'}."""
    n = len(wp)
    w0 = weyl.longest_element(n)
    word = weyl.reduced_word(weyl.multiply(weyl.multiply(w0, wp), w0))

    def evaluate(params):
        if len(params) != len(word):
            raise ParamCountMismatch(f"expected {len(word)} parameters")
        return borel_from(mat_mul(x_product(n, word, params), rep_weyl(w0)))

    return word, evaluate


def key_chart_lower(w):
    """Reduced word of w0 w and params -> y-product * B^+, covering R_{w,w_0}."""
    n = len(w)
    w0 = weyl.longest_element(n)
    word = weyl.reduced_word(weyl.multiply(w0, w))

    def evaluate(params):
        if len(params) != len(word):
            raise ParamCountMismatch(f"expected {len(word)} parameters")
        return borel_from(y_product(n, word, params))

    return word, evaluate


def codim_check(b):
    """(l(w), l(w') - l(w)) for the stratum of b; the second is the local dimension."""
    idx = stratum(b)
    return weyl.length(idx.w), weyl.length(idx.wp) - weyl.length(idx.w)


def dominance_table(w):
    """Rank matrix of w: #{i <= k : w(i) >= j} for k, j in 1..n, row-major."""
    n = len(w)
    return tuple(
        sum(1 for x in w[:k] if x >= j)
        for k in range(1, n + 1) for j in range(1, n + 1)
    )


def leibniz_det(rows):
    """Determinant as the signed sum over all permutations (small sizes only)."""
    k = len(rows)
    total = 0
    for p in itertools.permutations(range(k)):
        inversions = sum(1 for a in range(k) for b in range(a + 1, k) if p[a] > p[b])
        term = -1 if inversions % 2 else 1
        for r, c in enumerate(p):
            term *= rows[r][c]
        total += term
    return total


def submatrix(m, rows, cols):
    """The rows and columns of m on 1-based index sets, in increasing order."""
    return tuple(tuple(m[i - 1][j - 1] for j in sorted(cols)) for i in sorted(rows))


def leibniz_minor(m, rows, cols):
    """The minor of m on 1-based row and column index sets, as a Leibniz sum."""
    return leibniz_det(submatrix(m, rows, cols))


def ref_is_tnn(m):
    """Every square minor of m nonnegative, each a Leibniz sum (small sizes only)."""
    n = len(m)
    return all(
        leibniz_det([[m[i][j] for j in cols] for i in rows]) >= 0
        for k in range(1, n + 1)
        for rows in itertools.combinations(range(n), k)
        for cols in itertools.combinations(range(n), k))


def flag_minors_tnn(g):
    """Chart-free oracle: is the flag g * B^+ totally nonnegative?

    Right multiplication by B^+ scales the k x k minors of the first k
    columns of g by one common nonzero factor, and the flag is TNN iff for
    each k < n those minors that are nonzero share one sign (Lusztig 1994;
    Bloch-Karp, arXiv:2206.05806).
    """
    n = len(g)
    for k in range(1, n):
        signs = set()
        for rows in itertools.combinations(range(n), k):
            d = leibniz_det([g[r][:k] for r in rows])
            if d:
                signs.add(d > 0)
        if len(signs) > 1:
            return False
    return True


def ref_stratum(b):
    """flag.stratum as two Bruhat factorizations: w0 times the position of
    rep, and the position of rep_weyl(w0)^{-1} * rep."""
    w0 = weyl.longest_element(b.n)
    w = weyl.multiply(w0, linalg.bruhat_factor_plus(b.rep)[1])
    w0_inv = transpose(rep_weyl(w0))
    wp = linalg.bruhat_factor_plus(mat_mul(w0_inv, b.rep))[1]
    return CellIndex(w, wp)


def ref_phi_up(w, v, b):
    """richardson.phi_up from the Bruhat factorization rep = b1 * rep(u) * b2:
    the point b1 * rep(w0 w v) * B^+, for u = w0 w."""
    wv = weyl.multiply(w, v)
    if weyl.length(wv) != weyl.length(w) + weyl.length(v):
        raise LengthNotAdditive(f"l({w} * {v}) != l + l")
    w0 = weyl.longest_element(len(w))
    b1, u = linalg.bruhat_factor_plus(b.rep)
    if u != weyl.multiply(w0, w):
        raise WrongCell(f"point is at position {u} from B^+, expected {weyl.multiply(w0, w)}")
    return borel_from(mat_mul(b1, rep_weyl(weyl.multiply(w0, wv))))


def ref_pi(w, wp, s_index, b):
    """phi_down along (w's, s) on a point b: sends R_{w,w'} into R_{w,w's} or
    R_{ws,w's}.  The inner point that richardson.psi_inv builds from two
    minors, found by a Bruhat factorization instead."""
    n = len(w)
    if not weyl.is_right_ascent(w, s_index):
        raise LengthNotAdditive(f"s_{s_index} does not lengthen {w}")
    if weyl.is_right_ascent(wp, s_index):
        raise LengthNotAdditive(f"s_{s_index} does not shorten {wp}")
    return borel_from(phi_down(weyl.right_mult_simple(wp, s_index), simple(n, s_index),
                               b.rep))


def ref_psi_inv(w, wp, s_index, b):
    """richardson.psi_inv on a point b from two big-cell witnesses: p = ref_pi(b),
    and a from the residual x_full = x_partial * x_{i'}(a), checked entry by
    entry (NotInChartImage when it fails or a == 0)."""
    n = b.n
    p = ref_pi(w, wp, s_index, b)
    word = conjugator_word(w)
    ones = (Rat(1),) * len(word)
    x_full = linalg.opposite_big_cell_factor(y_mul(word, ones, b.rep))
    x_partial = linalg.opposite_big_cell_factor(y_mul(word, ones, p.rep))
    # x_partial is unitriangular, so x_full = x_partial * x_{i'}(a) forces
    # a to be the difference of their (i', i'+1) entries
    ip = n - s_index
    a = x_full[ip - 1][ip] - x_partial[ip - 1][ip]
    if a == 0 or x_full != mul_x(x_partial, ip, a):
        raise NotInChartImage("residual is not a single x_{i'}(a) with a != 0")
    return p, a


def marsh_rietsch_point(v, w, t):
    """The flag g * B^+ of the Marsh-Rietsch parametrization of R_{v,w}
    (arXiv:math/0307017), built with no chart and no recursion.

    g is a product along weyl.reduced_word(w): ref_rep_simple(n, i) at the
    letters of the positive distinguished subexpression for v, and y_i(t_k)
    at the others, in order.  The subexpression is read right to left: a
    letter is used when s_i is a right descent of what is left of v, and the
    walk ends at the identity.  Positive t give the totally positive part.
    """
    n = len(w)
    word = weyl.reduced_word(w)
    rest, used = v, []
    for i in reversed(word):
        used.insert(0, not weyl.is_right_ascent(rest, i))
        if used[0]:
            rest = weyl.right_mult_simple(rest, i)
    assert rest == weyl.identity(n), (v, w)
    if len(t) != used.count(False):
        raise ParamCountMismatch(f"expected {used.count(False)} parameters")
    params = iter(t)
    g = identity_mat(n)
    for i, in_v in zip(word, used):
        g = mat_mul(g, ref_rep_simple(n, i) if in_v
                    else y_product(n, (i,), (next(params),)))
    return borel_from(g)


def chart_value(result):
    """eval_chart of a classify result's chart on the result's coordinates."""
    return eval_chart(build_chart(result.index.w, result.index.wp), result.coords)


def ref_classify(b):
    """richardson.classify with the full re-evaluation as its round trip:
    the chart is evaluated again on the recovered coordinates, and the
    result must be b itself."""
    idx = stratum(b)
    chart = build_chart(idx.w, idx.wp)
    try:
        coords = invert_chart(chart, b)
    except InternalInconsistency:
        raise
    except TnnError as exc:
        return ClassifyResult(chart.index, (), False, type(exc).__name__)
    if eval_chart(chart, coords) != b:
        return ClassifyResult(chart.index, coords, False, "RoundTripMismatch")
    if any(c < 0 for c in coords):
        return ClassifyResult(chart.index, coords, False, "NegativeCoordinate")
    return ClassifyResult(chart.index, coords, True, "ok")
