"""Borel cosets, canonical representatives, and relative position.

A point of the flag variety is stored as the canonical representative of
a coset g B^+.  The relative position of two flags is a permutation, and
the pair of positions with respect to the two standard flags stratifies
the whole variety.  Run with

    python3 demos/02_flags_and_position.py
"""

import random

from tnnflag import weyl
from tnnflag.flag import borel_from, relative_position, stratum
from tnnflag.linalg import Rat, identity_mat, mat_mul, mul_x, rep_weyl, y_product


def show(label, b):
    idx = stratum(b)
    print(f"  {label}: stratum (w={weyl.perm_to_str(idx.w)}, "
          f"w'={weyl.perm_to_str(idx.wp)})")
    for row in b.rep:
        print("     ", [str(x) for x in row])


def main() -> None:
    n = 3
    # B^+ is the coset of the identity, B^- that of the representative of w0
    standard = borel_from(identity_mat(n))
    print("The two standard flags:")
    show("B^+", standard)
    show("B^-", borel_from(rep_weyl(weyl.longest_element(n))))

    print("\nTranslates w . B^+ have relative position w from B^+:")
    for w in weyl.all_perms(n):
        b = borel_from(rep_weyl(w))
        pos = relative_position(standard, b)
        assert pos == w
        print(f"  w = {weyl.perm_to_str(w)}  ->  position {weyl.perm_to_str(pos)}")

    print("\nA generic point lands in the open stratum:")
    rng = random.Random(0)
    g = y_product(n, (1, 2), (Rat(2), Rat(3)))
    g = mul_x(g, 1, Rat(rng.randint(1, 5)))
    g = mat_mul(g, y_product(n, (1,), (Rat(1, 2),)))
    show("g . B^+", borel_from(g))

    print("\nActing by an upper-triangular element keeps the coset fixed:")
    # g . b is the coset of g * b.rep
    x = mul_x(identity_mat(n), 2, Rat(7))
    assert borel_from(mat_mul(x, standard.rep)) == standard
    print("  x_2(7) . B^+ == B^+  (canonical reps are equal)")


if __name__ == "__main__":
    main()
