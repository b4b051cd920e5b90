"""Checks of the program's outputs that use neither tnnflag nor its charts.

- ``plucker_nonneg``: a flag g*B+ of SL_n is totally nonnegative exactly when,
  for each k, the nonzero k x k minors of the first k columns of g share one
  sign (Bloch-Karp, arXiv:2206.05806; Lusztig 1994).  Right multiplication
  by B+ rescales each family of minors by one nonzero factor, so the test
  depends only on the flag.
- ``cell_of``: the index (w, w') of the stratum holding g*B+, from ranks of
  corner submatrices: w0*u with g in B+ u B+, and u' with w0^-1 g in B+ u' B+.
- ``bruhat_leq``: the tableau criterion; ``length``: inversion count.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

# OEIS A007767: number of pairs u <= v in the Bruhat order of S_n.
BRUHAT_PAIRS = {1: 1, 2: 3, 3: 19, 4: 213, 5: 3781, 6: 98407}


def det(m) -> Fraction:
    """Determinant of a square list of Fractions, by Gaussian elimination."""
    a = [list(row) for row in m]
    n = len(a)
    d = Fraction(1)
    for j in range(n):
        p = next((i for i in range(j, n) if a[i][j] != 0), None)
        if p is None:
            return Fraction(0)
        if p != j:
            a[j], a[p] = a[p], a[j]
            d = -d
        d *= a[j][j]
        for i in range(j + 1, n):
            if a[i][j] != 0:
                f = a[i][j] / a[j][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    return d


def rank(rows) -> int:
    a = [list(r) for r in rows]
    r = 0
    n_cols = len(a[0]) if a else 0
    for j in range(n_cols):
        p = next((i for i in range(r, len(a)) if a[i][j] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, len(a)):
            if a[i][j] != 0:
                f = a[i][j] / a[r][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def plucker_nonneg(g) -> bool:
    """True iff the flag g*B+ is totally nonnegative (flag-minor sign test)."""
    n = len(g)
    for k in range(1, n):
        signs = set()
        for rows in itertools.combinations(range(n), k):
            d = det([[g[i][j] for j in range(k)] for i in rows])
            if d != 0:
                signs.add(d > 0)
        if len(signs) > 1:
            return False
    return True


def _cell_perm(g) -> tuple[int, ...]:
    """The u with g in B+ u B+: u(j) is the lowest row i at which the rank
    of rows i..n, columns 1..j exceeds that of columns 1..j-1."""
    n = len(g)
    r = [[rank([row[:j] for row in g[i:]]) if j else 0 for j in range(n + 1)]
         for i in range(n)]
    return tuple(max(i for i in range(n) if r[i][j] > r[i][j - 1]) + 1
                 for j in range(1, n + 1))


def cell_of(g) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(w, w') with g*B+ in the stratum R_{w,w'}."""
    n = len(g)
    u = _cell_perm(g)
    # w0^-1 g reverses the rows of g up to sign, which no rank sees
    up = _cell_perm(g[::-1])
    return tuple(n + 1 - k for k in u), up


def length(w) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def bruhat_leq(u, w) -> bool:
    """Tableau criterion: sorted prefixes of u are dominated by those of w."""
    return all(
        all(a <= b for a, b in zip(sorted(u[:k]), sorted(w[:k])))
        for k in range(1, len(u))
    )


@lru_cache(maxsize=None)
def reduced_word_count(w: tuple[int, ...]) -> int:
    """Number of reduced words of w, by stripping right descents."""
    descents = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
    if not descents:
        return 1
    total = 0
    for i in descents:
        v = list(w)
        v[i], v[i + 1] = v[i + 1], v[i]
        total += reduced_word_count(tuple(v))
    return total


def audit_samples_total(n: int, samples: int) -> tuple[int, int]:
    """Expected ``samples_total`` of the decomposition and semigroup audits.

    Decomposition: one census check per Bruhat pair, ``samples`` flags for
    each subword mask of a reduced word of w0, one round trip per pair.
    Semigroup: ``samples`` matrices for each of at most two reduced words of
    every permutation, plus ``samples`` closure products.
    """
    decomposition = 2 * BRUHAT_PAIRS[n] + (2 ** (n * (n - 1) // 2)) * samples
    semigroup = samples * (1 + sum(
        min(2, reduced_word_count(w))
        for w in itertools.permutations(range(1, n + 1))
    ))
    return decomposition, semigroup
