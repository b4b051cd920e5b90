"""Tour of the symmetric-group layer: words, lengths, Bruhat order.

Everything downstream is indexed by pairs of permutations, so this demo
walks through the combinatorial vocabulary first.  Run it with

    python3 demos/01_weyl_combinatorics.py
"""

from tnnflag import weyl


def word_str(word) -> str:
    return "[" + ",".join(map(str, word)) + "]"


def main() -> None:
    n = 3
    w0 = weyl.longest_element(n)
    print(f"S_{n}: longest element w0 = {weyl.perm_to_str(w0)}, "
          f"length {weyl.length(w0)}")

    print("\nAll elements, sorted by length:")
    for w in weyl.all_perms(n):
        word = weyl.reduced_word(w)
        print(f"  {weyl.perm_to_str(w):7s}  length {weyl.length(w)}  "
              f"reduced word {word_str(word)}")

    print("\nBruhat-comparable pairs (u <= w):")
    pairs = weyl.bruhat_pairs(n)
    for u, w in pairs:
        print(f"  {weyl.perm_to_str(u)} <= {weyl.perm_to_str(w)}")
    print(f"total: {len(pairs)} pairs")

    u = weyl.word_to_perm(n, [2])
    w = weyl.word_to_perm(n, [1, 2])
    v, uv, wv = weyl.peel(u, w)
    print(f"\npeel({weyl.perm_to_str(u)}, {weyl.perm_to_str(w)}): "
          f"common suffix v = {weyl.perm_to_str(v)} "
          f"with word {word_str(weyl.reduced_word(v))}")
    print(f"  transports the pair to ({weyl.perm_to_str(uv)}, {weyl.perm_to_str(wv)})")


if __name__ == "__main__":
    main()
