"""Symmetric group S_n as the type A_{n-1} Weyl group.

Permutations are tuples of 1-based images in one-line notation: ``w[k-1]``
is the image of ``k``.  Simple reflections are indexed ``1..n-1``; the word
``(i_1, ..., i_k)`` denotes the product ``s_{i_1} * ... * s_{i_k}``.

Products compose right-to-left: ``multiply(u, v)`` applies ``v`` first, so
the right multiplication ``w s_i``, ``right_mult_simple(w, i)``, swaps the
entries of ``w`` at positions ``i`` and ``i+1``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import NoDescentPair, NotComparable, RankMismatch, RankTooLarge

Perm = tuple[int, ...]
Word = tuple[int, ...]

MAX_RANK = 6

# 1! + 2! + ... + 6! = 873: the permutations of every rank up to the
# bound, so the size of a cache keyed by one permutation
PERMS_UNDER_RANK_BOUND = sum(math.factorial(n) for n in range(1, MAX_RANK + 1))

# the 1 + 3 + ... + 98,407 pairs w <= w' of every rank up to the bound, so a
# cache keyed by one pair never evicts; a literal, as counting builds them all
PAIRS_UNDER_RANK_BOUND = 102_424


def validate_perm(images: Sequence[int]) -> Perm:
    """Return ``images`` as a Perm, checking it is a bijection of {1..n}."""
    w = tuple(images)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")
    return w


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The order-reversing permutation w_0 = [n, n-1, ..., 1]."""
    return tuple(range(n, 0, -1))


def multiply(u: Perm, v: Perm) -> Perm:
    """Composition u∘v (apply v first)."""
    if len(u) != len(v):
        raise RankMismatch(f"ranks differ: {len(u)} vs {len(v)}")
    return tuple(u[v[k] - 1] for k in range(len(u)))


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for k, img in enumerate(w, start=1):
        inv[img - 1] = k
    return tuple(inv)


def length(w: Perm) -> int:
    """Number of inversions of w."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def right_descents(w: Perm) -> list[int]:
    """Indices i with l(w s_i) < l(w), i.e. w(i) > w(i+1)."""
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def right_mult_simple(w: Perm, i: int) -> Perm:
    """w s_i: swap the entries at positions i, i+1."""
    lst = list(w)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def is_right_ascent(w: Perm, i: int) -> bool:
    """True iff l(w s_i) > l(w)."""
    return w[i - 1] < w[i]


def reduced_word(w: Perm) -> Word:
    """Canonical reduced word of w: repeatedly strip the smallest right descent.

    The charts do not depend on this choice: the pinned representatives
    satisfy the braid relations, and psi gives the same point for the
    conjugator built from any reduced word.
    """
    letters: list[int] = []
    cur = w
    while True:
        descents = right_descents(cur)
        if not descents:
            break
        i = descents[0]
        letters.append(i)
        cur = right_mult_simple(cur, i)
    return tuple(reversed(letters))


def word_to_perm(n: int, word: Iterable[int]) -> Perm:
    """Product of the simple reflections s_i for the letters i, each in 1..n-1."""
    w = identity(n)
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter s{i} out of range 1..{n - 1} for n={n}")
        w = right_mult_simple(w, i)
    return w


def all_reduced_words(w: Perm) -> Iterator[Word]:
    """All reduced words of w, lexicographically; RankTooLarge above the rank
    bound, on the first ``next`` and before any word, as w0 alone has
    1,100,742,656 of them at n = 7 (OEIS A005118)."""
    if len(w) > MAX_RANK:
        raise RankTooLarge(f"n={len(w)} exceeds the rank bound {MAX_RANK}")
    if length(w) == 0:
        yield ()
        return
    for i in right_descents(w):
        for sub in all_reduced_words(right_mult_simple(w, i)):
            yield sub + (i,)


def demazure_product(n: int, letters: Iterable[int]) -> Perm:
    """Monoid (0-Hecke) product: apply s_i only when it increases length."""
    w = identity(n)
    for i in letters:
        if is_right_ascent(w, i):
            w = right_mult_simple(w, i)
    return w


def bruhat_leq(u: Perm, w: Perm) -> bool:
    """u <= w in Bruhat order, by the rank-matrix criterion on sorted prefixes.

    #{i <= k : u(i) >= j} <= #{i <= k : w(i) >= j} holds for every j exactly
    when sorted(u[:k]) <= sorted(w[:k]) entrywise (the tableau criterion,
    Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 2).  The sorted
    prefixes of each permutation are packed once into one int
    (``_prefix_key``), so the entrywise test is one subtraction: with the
    guard bits G set above w's fields, a field of u larger than w's clears
    its guard, and no field borrows from the next.
    """
    if len(u) != len(w):
        raise RankMismatch(f"ranks differ: {len(u)} vs {len(w)}")
    kw, guards = _prefix_key(w)
    return ((kw | guards) - _prefix_key(u)[0]) & guards == guards


@lru_cache(maxsize=PERMS_UNDER_RANK_BOUND)
def _prefix_key(w: Perm) -> tuple[int, int]:
    """sorted(w[:k]) for k = 1..n-1, concatenated and packed into one int
    with the first entry lowest, and the mask of the guard bits, one above
    each field.  A field is ``n.bit_length() + 1`` bits wide, so it holds any
    entry 1..n below its guard bit, and a guard minus n is still positive."""
    width = len(w).bit_length() + 1
    key = guards = shift = 0
    for k in range(1, len(w)):
        for x in sorted(w[:k]):
            key |= x << shift
            guards |= 1 << (shift + width - 1)
            shift += width
    return key, guards


def all_perms(n: int) -> list[Perm]:
    """All of S_n in the deterministic order (length, one-line notation);
    RankTooLarge above the rank bound, before any of the n! is built."""
    if n > MAX_RANK:
        raise RankTooLarge(f"n={n} exceeds the rank bound {MAX_RANK}")
    return sorted(itertools.permutations(range(1, n + 1)), key=lambda p: (length(p), p))


@lru_cache(maxsize=MAX_RANK)
def _table(n: int) -> tuple:
    """S_n numbered in the order of ``all_perms``, built on first use of a
    rank: ``all_perms(n)`` as a tuple, the position of each permutation in
    it, the positions of w s_1 .. w s_{n-1} for each w, and the right-ascent
    mask of each w, bit i-1 for s_i.  RankTooLarge above the rank bound."""
    perms = tuple(all_perms(n))
    position = {w: k for k, w in enumerate(perms)}
    right = tuple(tuple(position[right_mult_simple(w, i)] for i in range(1, n))
                  for w in perms)
    ascents = tuple(sum(is_right_ascent(w, i) << (i - 1) for i in range(1, n))
                    for w in perms)
    return perms, position, right, ascents


def canonical(w: Perm) -> Perm:
    """The one copy of w that charts store and pass as cache keys, the
    tuple in ``_table``, so that equal permutations are one object."""
    perms, position = _table(len(w))[:2]
    return perms[position[w]]


def iter_bruhat_pairs(n: int) -> Iterator[tuple[Perm, Perm]]:
    """All pairs (w, w') with w <= w', ordered by w, then by w', each in
    the order of ``all_perms``, one at a time.

    Each row is the packed tableau test of ``bruhat_leq`` on the keys of
    ``_prefix_key``.  A w' before w in ``all_perms`` is shorter or as long
    and different, so it is never above w, and each row starts at w.
    """
    perms = _table(n)[0]
    guards = _prefix_key(perms[0])[1]
    upper = [_prefix_key(w)[0] | guards for w in perms]
    for k, w in enumerate(perms):
        kw = _prefix_key(w)[0]
        for wp, kwp in zip(perms[k:], upper[k:]):
            if (kwp - kw) & guards == guards:
                yield w, wp


@lru_cache(maxsize=MAX_RANK)
def bruhat_pairs(n: int) -> tuple[tuple[Perm, Perm], ...]:
    """The pairs of ``iter_bruhat_pairs(n)`` as one tuple."""
    return tuple(iter_bruhat_pairs(n))


def peel(w: Perm, wp: Perm) -> tuple[Perm, Perm, Perm]:
    """(v, wv, w'v) for the maximal v with l(wv) = l(w)+l(v) and
    l(w'v) = l(w')+l(v), as the canonical copies of ``canonical``.

    The v that are length-additive with w form a lower interval of the
    right weak order, so those additive with both w and w' form the
    intersection of two lower intervals, which has a unique maximum, their
    meet (the weak order is a lattice; Bjorner-Brenti, Combinatorics of
    Coxeter Groups, ch. 3).  A common ascent s of wv and w'v is an ascent
    of v too, so v s stays in the intersection; a v with no common ascent
    left has no cover in it, which in a lower interval makes v its top.  So
    extending by any common ascent, one at a time, reaches the meet
    whatever the order, and the loop takes the lowest.  wv and w'v move
    with v through ``_table``, so they cost nothing more.  For the
    returned v, every simple s lengthening wv shortens w'v.
    """
    perms, position, right, ascents = _table(len(w))
    if not bruhat_leq(w, wp):
        raise NotComparable(f"{w} is not <= {wp} in Bruhat order")
    a, b, v = position[w], position[wp], 0
    while common := ascents[a] & ascents[b]:
        i = (common & -common).bit_length() - 1
        a, b, v = right[a][i], right[b][i], right[v][i]
    return perms[v], perms[a], perms[b]


def find_descent_pair(w: Perm, wp: Perm) -> int:
    """Smallest i with l(w s_i) > l(w) and l(w' s_i) < l(w'): the lowest set
    bit, bit i-1, of w's ascent mask without w''s, read from ``_table``;
    RankTooLarge above the rank bound."""
    _, position, _, ascents = _table(len(w))
    if pair := ascents[position[w]] & ~ascents[position[wp]]:
        return (pair & -pair).bit_length()
    raise NoDescentPair(f"no simple reflection raises {w} and lowers {wp}")


def perm_to_str(w: Perm) -> str:
    return ",".join(map(str, w))


def ascii_int(text: str) -> int:
    """``int(text)`` for ASCII text with no '_': ``int`` reads any Unicode digit."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def perm_from_str(s: str) -> Perm:
    return validate_perm([ascii_int(part) for part in s.split(",")])
