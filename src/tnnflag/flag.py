"""Borel cosets, canonical representatives, and relative position.

A point of the flag variety is a coset g * B^+ stored through a canonical
representative, so that coset equality is plain tuple equality.  The
canonical form is ``linalg.column_echelon``, which is unique modulo right
multiplication by upper triangular matrices: bottom-most pivots are
normalized to 1 and cleared rightward, and the last column is negated
when needed so the representative has determinant 1.  The echelon runs
on integers and proves g = c * u before it returns, and the determinant
of the input is read from its pivot product.

The relative position of two flags is the Bruhat cell B^+ w B^+ of
rep1^{-1} * rep2, read from ``linalg.bruhat_factor_plus``; the stratum of a
flag is its pair of relative positions from B^+ and from B^-.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def borel_from(g: Mat) -> BorelPt:
    """The coset g * B^+; g must be invertible of determinant 1.

    The representative is c from the column echelon g = c * u, with its last
    column negated when w is odd.  det(c) = sgn(w) and u is triangular, so
    det(g) = sgn(w) * det(u) is read from the pivot product that the echelon
    returns, without a separate elimination.  The echelon proves g = c * u
    in integers before it returns.
    """
    try:
        c, w, pivot_product = linalg.column_echelon(g)
    except Singular:
        raise Singular("representative must have determinant 1") from None
    odd = weyl.length(w) % 2
    if pivot_product != (-1 if odd else 1):
        raise Singular("representative must have determinant 1")
    if odd:
        c = tuple(row[:-1] + (-row[-1],) for row in c)
    return BorelPt(c)


def b_plus(n: int) -> BorelPt:
    return borel_from(linalg.identity_mat(n))


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

