"""Seeded SL_n inputs for the classify workload, built without tnnflag.

Every matrix is a product of Chevalley generators x_i(a), y_i(a) and pinned
simple-reflection blocks, multiplied here with a plain exact ``Fraction``
product, so the inputs do not depend on the library under test.

Input k has the fixed shape ``k % SHAPES`` (its class, its letters and its
permutation, the same for every seed) and parameters drawn from the seeded
stream.  So every batch of SHAPES inputs has the same mix of cells and
chart depths, and runs with different seeds differ only in the numbers:
the cell mix is what sets the cost of classify, and a seed-dependent mix
would make the timings spread between seeds.  Three classes, interleaved
in equal shares:

- ``positive``: P * v, with P a product of x_i(a), y_i(a) for random letters
  and positive a, and v the pinned representative of a random permutation.
  The flag v*B+ is a torus-fixed point of the nonnegative part and P is
  totally nonnegative, so the flag P*v*B+ is nonnegative by construction.
- ``signed``: the same shape with random signs on the parameters; mostly
  not nonnegative.
- ``dense``: y-product along a reduced word of w0 times x-product along it,
  with random signs: a dense matrix, nearly always in the open cell.
"""

from __future__ import annotations

import random
from fractions import Fraction

CLASSES = ("positive", "signed", "dense")
SHAPES = 24


def stream(seed: int, label: str) -> random.Random:
    """An independent RNG stream for (seed, label)."""
    return random.Random(f"tnnflag-bench:{seed}:{label}")


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b) -> list[list[Fraction]]:
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def x_gen(n: int, i: int, a: Fraction):
    """x_i(a): identity plus a at row i, column i+1 (1-based i)."""
    m = identity(n)
    m[i - 1][i] = a
    return m


def y_gen(n: int, i: int, a: Fraction):
    """y_i(a): identity plus a at row i+1, column i (1-based i)."""
    m = identity(n)
    m[i][i - 1] = a
    return m


def pinned_simple(n: int, i: int):
    """y_i(1) x_i(-1) y_i(1): the block [[0, -1], [1, 0]] at rows/columns i, i+1."""
    m = identity(n)
    m[i - 1][i - 1], m[i - 1][i] = Fraction(0), Fraction(-1)
    m[i][i - 1], m[i][i] = Fraction(1), Fraction(0)
    return m


def reduced_word(perm: list[int]) -> list[int]:
    """A reduced word of a permutation (one-line, 1-based), by bubble sort."""
    p = list(perm)
    letters = []
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                letters.append(i + 1)
                swapped = True
    return letters[::-1]


def longest_word(n: int) -> list[int]:
    return reduced_word(list(range(n, 0, -1)))


def _param(rng: random.Random, signed: bool) -> Fraction:
    a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return -a if signed and rng.random() < 0.5 else a


def _generator_product(n: int, shape: random.Random, rng: random.Random, signed: bool):
    g = identity(n)
    for _ in range(shape.randint(3, 12)):
        make = x_gen if shape.random() < 0.5 else y_gen
        g = mat_mul(g, make(n, shape.randint(1, n - 1), _param(rng, signed)))
    v = list(range(1, n + 1))
    shape.shuffle(v)
    for i in reduced_word(v):
        g = mat_mul(g, pinned_simple(n, i))
    return g


def _dense(n: int, rng: random.Random):
    g = identity(n)
    word = longest_word(n)
    for i in word:
        g = mat_mul(g, y_gen(n, i, _param(rng, True)))
    for i in word:
        g = mat_mul(g, x_gen(n, i, _param(rng, True)))
    return g


def make_inputs(n: int, seed: int, label: str, count: int) -> list[tuple[str, list]]:
    """``count`` (class, matrix) pairs of shapes 0, 1, ... (mod SHAPES)."""
    rng = stream(seed, label)
    out = []
    for k in range(count):
        cls = CLASSES[k % len(CLASSES)]
        if cls == "dense":
            g = _dense(n, rng)
        else:
            shape = random.Random(f"tnnflag-bench:shape:{n}:{k % SHAPES}")
            g = _generator_product(n, shape, rng, signed=cls == "signed")
        out.append((cls, g))
    return out
