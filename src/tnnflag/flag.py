"""Borel cosets, canonical representatives, and relative position.

A point of the flag variety is a coset g * B^+ stored through a canonical
representative, so that coset equality is plain tuple equality.  The
canonical form is a column echelon modulo right multiplication by upper
triangular matrices: bottom-most pivots are normalized to 1 and cleared
rightward, and the last column is rescaled so the representative has
determinant 1.  The determinant of the input is read from the same
echelon.

The relative position of two flags is the Bruhat cell B^+ w B^+ of
rep1^{-1} * rep2, read from ``linalg.bruhat_factor_plus``; the stratum of a
flag is its pair of relative positions from B^+ and from B^-.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg, weyl
from .errors import InternalInconsistency, Singular
from .linalg import Mat, bruhat_factor_plus, mat_inv, mat_mul, rep_weyl_inv
from .weyl import Perm


@dataclass(frozen=True)
class BorelPt:
    """A Borel subgroup, as the canonical representative of its coset g*B^+."""

    rep: Mat

    @property
    def n(self) -> int:
        return len(self.rep)

    def to_json(self) -> dict:
        return {"borel_rep": linalg.mat_to_json(self.rep)}

    @staticmethod
    def from_json(data: dict) -> "BorelPt":
        return borel_from(linalg.mat_from_json(data["borel_rep"]))


def borel_from(g: Mat) -> BorelPt:
    """The coset g * B^+; g must be invertible of determinant 1.

    Column operations bring g to the canonical echelon.  Adding a multiple
    of one column to another keeps the determinant and dividing a column
    by its pivot f divides it by f, while the echelon itself has the
    determinant of its pivot permutation, so det(g) = sgn(pivots) * prod(f)
    without a separate elimination.
    """
    n = len(g)
    cols = [[g[i][j] for i in range(n)] for j in range(n)]
    pivots: list[int] = []
    scale = linalg.ONE
    for j in range(n):
        col = cols[j]
        for jp, p in enumerate(pivots):
            if col[p] != 0:
                f = col[p]
                col[:] = [x - f * y if y else x for x, y in zip(col, cols[jp])]
        p = max((i for i in range(n) if col[i] != 0), default=None)
        if p is None:
            raise Singular("representative must have determinant 1")
        f = col[p]
        col[:] = [x / f if x else x for x in col]
        pivots.append(p)
        scale *= f
    odd = weyl.length(tuple(p + 1 for p in pivots)) % 2
    if (-scale if odd else scale) != 1:
        raise Singular("representative must have determinant 1")
    if odd:
        cols[n - 1] = [-x for x in cols[n - 1]]
    return BorelPt(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))


@lru_cache(maxsize=None)
def b_plus(n: int) -> BorelPt:
    return borel_from(linalg.identity_mat(n))


@lru_cache(maxsize=None)
def b_minus(n: int) -> BorelPt:
    return borel_from(linalg.rep_weyl(weyl.longest_element(n)))


def act(g: Mat, b: BorelPt) -> BorelPt:
    """Conjugation action on Borels: the coset (g * rep) * B^+."""
    return borel_from(mat_mul(g, b.rep))


def relative_position(b1: BorelPt, b2: BorelPt) -> Perm:
    """The unique w with b1 --w--> b2: rep1^{-1} * rep2 lies in B^+ w B^+."""
    return bruhat_factor_plus(mat_mul(mat_inv(b1.rep), b2.rep))[1]


@dataclass(frozen=True, slots=True)
class CellIndex:
    """Label (w, w') of the stratum R_{w,w'}; always w <= w'."""

    w: Perm
    wp: Perm

    def __post_init__(self):
        if not weyl.bruhat_leq(self.w, self.wp):
            raise InternalInconsistency(
                f"stratum index violates Bruhat order: {self.w} vs {self.wp}"
            )

    def dim(self) -> int:
        return weyl.length(self.wp) - weyl.length(self.w)

    def to_json(self) -> dict:
        return {"w": weyl.perm_to_str(self.w), "wp": weyl.perm_to_str(self.wp)}


def stratum(b: BorelPt) -> CellIndex:
    """The (w, w') with b in R_{w,w'}: w from the B^+ side, w' from the B^- side.

    The rep of B^+ is the identity, and the rep of B^- is rep_weyl(w0) times
    a diagonal sign matrix, which lies in B^+ and so leaves the Bruhat cell
    alone: neither side inverts a rep.
    """
    w0 = weyl.longest_element(b.n)
    w = weyl.multiply(w0, bruhat_factor_plus(b.rep)[1])
    wp = bruhat_factor_plus(mat_mul(rep_weyl_inv(w0), b.rep))[1]
    return CellIndex(w, wp)

