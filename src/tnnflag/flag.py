"""Borel cosets, canonical representatives, and relative position.

A point of the flag variety is a coset g * B^+ stored through a canonical
representative, so that coset equality is plain tuple equality.  The
canonical form is ``linalg.column_echelon``, which is unique modulo right
multiplication by upper triangular matrices: bottom-most pivots are
normalized to 1 and cleared rightward, and the last column is negated
when needed so the representative has determinant 1.  The echelon runs
on integers and proves g = c * u before it returns, and the determinant
of the input is read from its pivot product.  Its pivot permutation is
the flag's position from B^+, kept on the point so that no later step
factors the representative again.

The relative position of two flags is the Bruhat cell B^+ w B^+ of
rep1^{-1} * rep2, read by ``linalg.bruhat_cell`` from the pivots of its
column echelon without rebuilding c; the stratum of a flag is its pair
of relative positions from B^+ and from B^-.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg, weyl
from .errors import InternalInconsistency, Singular
from .linalg import Mat, column_echelon, mat_inv, mat_mul, weyl_mul
from .weyl import Perm


@dataclass(frozen=True)
class BorelPt:
    """A Borel subgroup, as the canonical representative of its coset g*B^+
    and its position from B^+, the w with rep in B^+ w B^+.  The position is
    read off rep, so equality and hashing use rep alone."""

    rep: Mat
    position: Perm = field(compare=False)

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
    in integers before it returns.  Its pivot permutation w is the position
    of the coset from B^+: c = b1 * P_w with b1 in U^+.
    """
    try:
        c, w, pivot_product = column_echelon(g)
    except Singular:
        raise Singular("representative must have determinant 1") from None
    odd = weyl.length(w) % 2
    if pivot_product != (-1 if odd else 1):
        raise Singular("representative must have determinant 1")
    if odd:
        c = tuple(row[:-1] + (-row[-1],) for row in c)
    return BorelPt(c, w)


def relative_position(b1: BorelPt, b2: BorelPt) -> Perm:
    """The unique w with b1 --w--> b2: rep1^{-1} * rep2 lies in B^+ w B^+."""
    return linalg.bruhat_cell(mat_mul(mat_inv(b1.rep), b2.rep))


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

    def to_json(self) -> dict:
        return {"w": weyl.perm_to_str(self.w), "wp": weyl.perm_to_str(self.wp)}


def opposite_position(g: Mat) -> Perm:
    """The w' with B^- --w'--> g * B^+, for any representative g: B^- is
    rep_weyl(w0) * B^+ and rep_weyl(w0)^{-1} is +-rep_weyl(w0), so w' is the
    position of rep_weyl(w0) * g from B^+."""
    return linalg.bruhat_cell(weyl_mul(weyl.longest_element(len(g)), g))


def stratum(b: BorelPt) -> CellIndex:
    """The (w, w') with b in R_{w,w'}: w from the B^+ side, w0 times the
    stored position, and w' from the B^- side, the ``opposite_position``."""
    w = weyl.multiply(weyl.longest_element(b.n), b.position)
    return CellIndex(w, opposite_position(b.rep))

