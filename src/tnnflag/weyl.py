"""Symmetric group S_n as the type A_{n-1} Weyl group.

Permutations are tuples of 1-based images in one-line notation: ``w[k-1]``
is the image of ``k``.  Simple reflections are indexed ``1..n-1``; the word
``(i_1, ..., i_k)`` denotes the product ``s_{i_1} * ... * s_{i_k}``.

Products compose right-to-left: ``multiply(u, v)`` applies ``v`` first, so
``multiply(w, simple(n, i))`` is the right multiplication ``w s_i`` (it swaps
the entries of ``w`` at positions ``i`` and ``i+1``).
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import NoDescentPair, NotComparable, RankMismatch, RankTooLarge

Perm = tuple[int, ...]
Word = tuple[int, ...]

DEFAULT_MAX_RANK = 6


def max_rank() -> int:
    """Rank bound; overridable through the RTNN_MAX_RANK environment variable."""
    raw = os.environ.get("RTNN_MAX_RANK")
    if raw is None:
        return DEFAULT_MAX_RANK
    try:
        return int(raw)
    except ValueError:
        raise RankTooLarge(f"RTNN_MAX_RANK must be an integer, got {raw!r}") from None


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


def simple(n: int, i: int) -> Perm:
    """The simple reflection s_i, swapping i and i+1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple reflection index {i} out of range for n={n}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


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
    """All reduced words of w, lexicographically (intended for small ranks)."""
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
    Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 2).
    """
    if len(u) != len(w):
        raise RankMismatch(f"ranks differ: {len(u)} vs {len(w)}")
    return all(
        x <= y
        for k in range(1, len(u))
        for x, y in zip(sorted(u[:k]), sorted(w[:k]))
    )


def all_perms(n: int) -> list[Perm]:
    """All of S_n in the deterministic order (length, one-line notation)."""
    return sorted(itertools.permutations(range(1, n + 1)), key=lambda p: (length(p), p))


@lru_cache(maxsize=None)
def bruhat_pairs(n: int) -> tuple[tuple[Perm, Perm], ...]:
    """All pairs (w, w') with w <= w', in a fixed deterministic order."""
    if n > max_rank():
        raise RankTooLarge(f"n={n} exceeds the rank bound {max_rank()}")
    perms = all_perms(n)
    return tuple(
        (u, w) for u in perms for w in perms if bruhat_leq(u, w)
    )


def peel(w: Perm, wp: Perm) -> Perm:
    """The maximal v with l(wv) = l(w)+l(v) and l(w'v) = l(w')+l(v).

    The v that are length-additive with w form a lower interval of the
    right weak order, so those additive with both w and w' form the
    intersection of two lower intervals, which has a unique maximum (the
    weak order is a lattice).  Extending by one common ascent at a time,
    smallest index first, reaches it whatever the order.  For the returned
    v, every simple s lengthening wv shortens w'v.
    """
    if not bruhat_leq(w, wp):
        raise NotComparable(f"{w} is not <= {wp} in Bruhat order")
    n = len(w)
    v = identity(n)
    wv, wpv = w, wp
    while True:
        for i in range(1, n):
            if is_right_ascent(wv, i) and is_right_ascent(wpv, i):
                v = right_mult_simple(v, i)
                wv = right_mult_simple(wv, i)
                wpv = right_mult_simple(wpv, i)
                break
        else:
            break
    return v


def find_descent_pair(w: Perm, wp: Perm) -> int:
    """Smallest i with l(w s_i) > l(w) and l(w' s_i) < l(w')."""
    for i in range(1, len(w)):
        if is_right_ascent(w, i) and not is_right_ascent(wp, i):
            return i
    raise NoDescentPair(f"no simple reflection raises {w} and lowers {wp}")


def perm_to_str(w: Perm) -> str:
    return ",".join(str(k) for k in w)


def perm_from_str(s: str) -> Perm:
    return validate_perm([int(part) for part in s.split(",")])


def word_to_str(word: Word) -> str:
    return "[" + ",".join(str(i) for i in word) + "]"

