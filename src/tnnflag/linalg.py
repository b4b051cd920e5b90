"""Exact rational linear algebra for SL_n.

Matrices are immutable tuples of tuples of exact rationals, with
``fractions.Fraction`` as the one rational type ``Rat``.

Chevalley generators and pinned Weyl representatives act with no
product: ``mul_x`` is m * x_i(a), one column update, ``y_mul`` is a word
in the y_i(a) times m, one row update per letter, and ``weyl_mul`` moves
and negates rows or columns.  The generator matrices are these applied to
the identity; ``mat_mul`` is left for general products.  No inverse
representative is kept: rep(w)^{-1} is the transpose of rep(w), and
rep(w0)^{-1} = (-1)^(n-1) * rep(w0) spans the same flags as rep(w0).

Everything geometric reduces to one elimination, the column echelon
g = c * u: the canonical representative c of the coset g * B^+, and the
Bruhat factorization g = b1 * rep(w) * b2 with b1 in U_w and b2 upper
triangular, whose b1 is the unitriangular witness of a Borel opposite to
B^- when w = w0.  It is fraction-free: it clears denominators column by
column, eliminates on Python ints by cross-multiplication with content
removal, and proves its result in integers from the elimination's own
multipliers before it converts c back to rationals.  That proof is the
reconstruction check of the Bruhat factorization as well.  ``det`` reads
its pivot product and ``bruhat_cell`` its pivots without rebuilding c, so
every nonzero determinant and every Bruhat cell carries the proof; a
singular verdict, and so a zero determinant, carries a proved integer
combination of the earlier columns instead.  To read every square minor
at once, ``integer_minors`` expands them all by Laplace on the same
cleared integer columns, the definition of the determinant.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as Rat
from typing import Iterable, Iterator, Sequence

from . import weyl
from .errors import (
    IndexOutOfRange, InternalInconsistency, NotInBigCell, RankTooLarge, ShapeMismatch,
    Singular,
)
from .weyl import Perm

Mat = tuple[tuple, ...]

ZERO = Rat(0)
ONE = Rat(1)


def rat(value) -> "Rat":
    """Coerce an int, a rational, or an ASCII string 'p', 'p/q' or plain
    decimal such as '-1.25', with surrounding whitespace allowed, to the
    exact rational type.

    Anything else raises ValueError: a zero denominator, a bool, a float
    (inexact by definition), exponent notation such as '1e2', whose parse
    time grows with the exponent, digit separators such as '1_0' (read by
    ``Fraction`` from Python 3.11 on) and non-ASCII text (any Unicode digit
    or space reads as its ASCII twin).
    """
    if isinstance(value, bool) or not isinstance(value, (int, str, Rat)) or (
            isinstance(value, str) and (not value.isascii() or "e" in value.lower()
                                        or "_" in value)):
        raise ValueError(f"not an exact rational: {value!r}")
    try:
        return Rat(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"not an exact rational: {value!r}") from exc


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(tuple(rat(x) for x in row) for row in rows)
    if any(len(row) != len(m) for row in m):
        raise ShapeMismatch("matrix must be square")
    return m


def identity_mat(n: int) -> Mat:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def mat_mul(a: Mat, b: Mat) -> Mat:
    """The product a * b, skipping every scalar product with a zero factor.

    Signed permutations, Chevalley generators and triangular factors are
    mostly zeros, so their products cost O(n) or O(n^2) operations.
    """
    n = len(a)
    if len(b) != n:
        raise ShapeMismatch(f"sizes differ: {len(a)} vs {len(b)}")
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [ZERO] * n
        for x, b_row in zip(row, b_nonzero):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def det(a: Mat) -> "Rat":
    """Determinant read from the column echelon: sgn(w) times the pivot
    product, or 0 when the echelon finds a is singular."""
    try:
        _, w, pivot_product = _integer_echelon(a)
    except Singular:
        return ZERO
    return -pivot_product if weyl.length(w) % 2 else pivot_product


def mat_inv(a: Mat) -> Mat:
    """Inverse by Gauss-Jordan elimination; raises Singular."""
    n = len(a)
    m = [list(row) + [ONE if i == k else ZERO for k in range(n)]
         for i, row in enumerate(a)]
    for j in range(n):
        p = next((i for i in range(j, n) if m[i][j] != 0), None)
        if p is None:
            raise Singular("matrix is singular")
        m[j], m[p] = m[p], m[j]
        pivot = m[j][j]
        m[j] = [x / pivot for x in m[j]]
        for i in range(n):
            if i != j and m[i][j] != 0:
                f = m[i][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[j])]
    return tuple(tuple(row[n:]) for row in m)


def is_upper_triangular(m: Mat) -> bool:
    return all(m[i][j] == 0 for i in range(len(m)) for j in range(i))


def is_lower_triangular(m: Mat) -> bool:
    return all(m[i][j] == 0 for i in range(len(m)) for j in range(i + 1, len(m)))


# ---------------------------------------------------------------------------
# Chevalley generators and pinned Weyl representatives


def _check_index(n: int, i: int) -> None:
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"index {i} not in 1..{n - 1}")


def mul_x(m: Mat, i: int, a) -> Mat:
    """m * x_i(a) with no product: m with a times column i added to column i+1."""
    _check_index(len(m), i)
    return tuple(
        row[:i] + (row[i] + a * row[i - 1] if row[i - 1] else row[i],) + row[i + 1:]
        for row in m)


def y_mul(letters: Sequence[int], params: Sequence, m: Mat) -> Mat:
    """y_{letters[0]}(params[0]) * ... * y_{letters[-1]}(params[-1]) * m with
    no product: the letters act from the right end of the word, and
    y_i(a) adds a times row i to row i+1, the row itself for a = +-1."""
    if len(letters) != len(params):
        raise ShapeMismatch("letters and parameters differ in count")
    rows = list(m)
    for i, a in zip(reversed(letters), reversed(params)):
        _check_index(len(rows), i)
        up, row = rows[i - 1], rows[i]
        rows[i] = (tuple(y + x if x else y for x, y in zip(up, row)) if a == 1 else
                   tuple(y - x if x else y for x, y in zip(up, row)) if a == -1 else
                   tuple(y + a * x if x else y for x, y in zip(up, row)))
    return tuple(rows)


def weyl_mul(w: Perm, m: Mat, *, right: bool = False) -> Mat:
    """rep_weyl(w) * m, or m * rep_weyl(w) when ``right``, with no arithmetic.

    rep_weyl(w) is the signed permutation matrix with entry
    (-1)^#{k < j : w(k) > w(j)} at (w(j), j).  On the left it moves row j
    of m to row w(j); on the right it puts column w(j) of m in column j.
    Either way the moved row or column is negated when its sign is odd.
    """
    n = len(m)
    if len(w) != n:
        raise ShapeMismatch(f"sizes differ: {len(w)} vs {n}")
    odd = [sum(1 for k in range(j) if w[k] > image) % 2 for j, image in enumerate(w)]
    if right:
        src = [image - 1 for image in w]
        return tuple(
            tuple(-row[k] if o and row[k] else row[k] for k, o in zip(src, odd))
            for row in m)
    rows = [()] * n
    for j, image in enumerate(w):
        rows[image - 1] = tuple(-x if x else x for x in m[j]) if odd[j] else m[j]
    return tuple(rows)


def rep_weyl(w: Perm) -> Mat:
    """Representative of w: ``weyl_mul`` applied to the identity.

    This is the product of the pinned representatives y_i(1) x_i(-1) y_i(1)
    of the simple reflections along any reduced word of w: they satisfy the
    braid relations.
    """
    return weyl_mul(w, identity_mat(len(w)))


def y_product(n: int, letters: Sequence[int], params: Sequence) -> Mat:
    """y_{letters[0]}(params[0]) * ... * y_{letters[-1]}(params[-1])."""
    return y_mul(letters, [rat(a) for a in params], identity_mat(n))


# ---------------------------------------------------------------------------
# Factorizations


def column_echelon(g: Mat) -> tuple[Mat, Perm, "Rat"]:
    """The column echelon g = c * u, the one elimination behind the Bruhat
    factorization and the canonical coset representative.

    Column j of c is 1 in row w(j), its bottom-most nonzero row, and 0 in
    the rows w(k) for k < j; u is upper triangular.  Returns c, w and
    det(u) = sgn(w) * det(g), the product of the pivots.  Raises Singular.

    The elimination runs on Python ints.  G = g * D clears the
    denominators of each column (D diagonal).  Column j is reduced against
    the finished columns by cross-multiplication and divided by its
    content, signed so that its pivot is positive: the primitive integer
    column C_j, and c_j = C_j / pivot_j.  Its multipliers certify
    sigma_j * G_j = content_j * C_j + sum(u_kj * C_k for k < j), proved in
    integers with sigma_j > 0, content_j != 0 and C in echelon shape.  So
    G = C * U, U upper triangular with U_jj = content_j / sigma_j, and
    c = g * D * U^-1 * diag(1 / pivots).  A zero column raises Singular
    only once sigma_j * G_j = sum(u_kj * C_k for k < j) is proved.

    ``_integer_echelon`` runs the elimination and the proof; this function
    only rebuilds c as rationals from the proved integer columns.
    """
    echelon, w, pivot_product = _integer_echelon(g)
    c = tuple(zip(*(
        [Rat(x, column[p - 1]) if x else ZERO for x in column]
        for column, p in zip(echelon, w))))
    return c, w, pivot_product


def bruhat_cell(g: Mat) -> Perm:
    """The w with g in B^+ w B^+: the w of ``column_echelon(g)``, read from
    the proved integer echelon without rebuilding c.  Raises Singular."""
    return _integer_echelon(g)[1]


def _clear_columns(g: Mat) -> tuple[list[list[int]], list[int]]:
    """The integer columns of G = g * D, D = diag(d_j), d_j the lcd of column j."""
    cols, scales = [], []
    for column in zip(*g):
        ratios = [x.as_integer_ratio() for x in column]
        d = math.lcm(*[q for _, q in ratios])
        scales.append(d)
        cols.append([a if q == d else a * (d // q) for a, q in ratios])
    return cols, scales


def integer_minors(g: Mat) -> tuple[list[int], Iterator[dict]]:
    """The d_j of ``_clear_columns(g)`` and an iterator over the levels
    k = 1..n of the square minors of G = g * D, each a dict {(I, J): Delta}
    on 1-based index sets of size k.
    Level k comes from level k - 1, the only one kept, by Laplace along the
    last column j of J: Delta(I, J) = sum over r in I of (-1)^#{i in I :
    i > r} * G[r][j] * Delta(I - r, J - j).  The d_j are positive, so Delta
    has the sign of the minor of g, which is Delta / prod(d_j for j in J).
    Level k holds C(n, k)^2 entries, so n is held to the rank bound, and
    checked before any column is cleared."""
    if len(g) > weyl.MAX_RANK:
        raise RankTooLarge(f"n={len(g)} exceeds the rank bound {weyl.MAX_RANK}")
    cols, scales = _clear_columns(g)
    n = len(cols)

    def levels():
        prev = {((), ()): 1}
        for k in range(1, n + 1):
            # each row set I with its terms (r, I - r, whether the sign of r is odd)
            expansions = [(rows, [(r - 1, rows[:p] + rows[p + 1:], (k - 1 - p) % 2)
                                  for p, r in enumerate(rows)])
                          for rows in itertools.combinations(range(1, n + 1), k)]
            level = {}
            for cset in itertools.combinations(range(1, n + 1), k):
                col, rest = cols[cset[-1] - 1], cset[:-1]
                for rows, terms in expansions:
                    total = 0
                    for r, sub, odd in terms:
                        if x := col[r]:
                            x *= prev[sub, rest]
                            total = total - x if odd else total + x
                    level[rows, cset] = total
            yield level
            prev = level

    return scales, levels()


def _integer_echelon(g: Mat) -> tuple[list[list[int]], Perm, "Rat"]:
    """The proved integer columns C_j, their pivot rows (1-based, the
    permutation w) and the pivot product of ``column_echelon(g)``.

    Column j keeps sigma * G_j == col + sum(u[k] * C_k for k < j): reducing
    col by C_k, col <- s * col - f * C_k (s = C_k[p_k] > 0), scales sigma
    and u by s and sets u[k] = f.  ``_prove_column`` proves it before the
    next column, ``_prove_singular`` (no kernel vector) before Singular.
    The pivot product is prod(C_j[p_j] * content_j / (sigma_j * d_j)).
    """
    n = len(g)
    cols, scales = _clear_columns(g)
    echelon, pivots, num, den = [], [], 1, 1
    for g_col, d in zip(cols, scales):
        col, sigma, u = g_col, 1, [0] * len(pivots)
        for k, (p, c_k) in enumerate(zip(pivots, echelon)):
            f = col[p]
            if f:
                s = c_k[p]
                if s == 1:
                    col = [x - f * y if y else x for x, y in zip(col, c_k)]
                else:
                    col = [s * x - f * y if y else s * x for x, y in zip(col, c_k)]
                    sigma *= s
                    u = [s * x for x in u]
                u[k] = f
        for p in range(n - 1, -1, -1):
            if col[p]:
                break
        else:
            _prove_singular(g_col, sigma, u, echelon)
            raise Singular("matrix is singular")
        content = math.gcd(*col) if col[p] > 0 else -math.gcd(*col)
        if content != 1:
            col = [x // content for x in col]
        _prove_column(g_col, sigma, u, echelon, pivots, col, p, content)
        echelon.append(col)
        pivots.append(p)
        num *= col[p] * content
        den *= sigma * d
    return echelon, tuple(p + 1 for p in pivots), Rat(num, den)


def _residual(g_col, sigma, u, echelon) -> list[int]:
    """sigma * G_j - sum(u[k] * C_k for k < j), once sigma > 0 and u has one
    multiplier per proved column, k < j = len(echelon): U stays triangular."""
    if sigma <= 0 or len(u) != len(echelon):
        raise InternalInconsistency("column echelon: U is not triangular")
    acc = g_col if sigma == 1 else [sigma * x for x in g_col]
    for f, c_k in zip(u, echelon):
        if f:
            acc = [a - f * y if y else a for a, y in zip(acc, c_k)]
    return acc


def _prove_column(g_col, sigma, u, echelon, pivots, c, p, content) -> None:
    """Check sigma * G_j == content * C_j + sum(u[k] * C_k for k < j) with
    content != 0 (``_residual``), and C_j = c in echelon shape: a positive
    pivot c[p], zeros below it and zeros at the earlier pivots."""
    if not content or _residual(g_col, sigma, u, echelon) != (
            c if content == 1 else [content * x for x in c]):
        raise InternalInconsistency("column echelon failed to reconstruct the input")
    if c[p] <= 0 or any(c[p + 1:]) or any(map(c.__getitem__, pivots)):
        raise InternalInconsistency("column echelon is not in echelon shape")


def _prove_singular(g_col, sigma, u, echelon) -> None:
    """Check sigma * G_j == sum(u[k] * C_k for k < j) (``_residual``): G_j
    lies in the span of the proved C_k, k < j, which is that of G_k, k < j."""
    if any(_residual(g_col, sigma, u, echelon)):
        raise InternalInconsistency("column echelon: a zero column is not spanned")


def bruhat_factor_plus(g: Mat) -> tuple[Mat, Perm]:
    """The Bruhat factorization g = b1 * rep_weyl(w) * b2, as (b1, w).

    Read from the column echelon g = c * u: b1 = c * P_w^{-1} puts the 1 of
    each column of c on the diagonal, so b1 is the unique left factor in
    U_w = U^+ ∩ rep(w) U^- rep(w)^{-1}, and b2 = s * u, upper triangular,
    for the signs s with rep_weyl(w) = P_w * s.  ``column_echelon`` proves
    g = c * u in integers; the triangularity of b1 is verified here, and
    its failure is an InternalInconsistency, never a verdict.
    """
    c, w, _ = column_echelon(g)
    columns = [k - 1 for k in weyl.inverse(w)]
    b1 = tuple(tuple(row[k] for k in columns) for row in c)
    if not is_upper_triangular(b1):
        raise InternalInconsistency(
            "Bruhat factorization produced a non-triangular factor")
    return b1, w


def opposite_big_cell_factor(g: Mat) -> Mat:
    """The unique upper-unitriangular x with g * B^+ = x * B^-.

    x is the left factor of the Bruhat factorization g = x * rep_weyl(w0) * b,
    unitriangular because the column echelon c has a 1 at each pivot and
    zeros below it, and unique because U_{w0} = U^+.  Raises NotInBigCell
    when g is not in the cell of w0, that is when a trailing principal
    minor of g * rep_weyl(w0)^{-1} vanishes.
    """
    x, w = bruhat_factor_plus(g)
    if w != weyl.longest_element(len(g)):
        raise NotInBigCell("trailing principal minor vanishes")
    return x


# ---------------------------------------------------------------------------
# Serialization: row-major arrays of rational strings


def mat_to_json(m: Mat) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def mat_from_json(rows: list[list[str]]) -> Mat:
    if not (isinstance(rows, list) and rows
            and all(isinstance(row, list) for row in rows)):
        raise ShapeMismatch("matrix must be a nonempty array of rows")
    # checked before any entry is converted, whatever the length of a row
    if any(len(row) != len(rows) for row in rows):
        raise ShapeMismatch("matrix must be square")
    return mat(rows)
