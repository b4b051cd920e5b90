import copy
import itertools
import math
import random
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    cell_point, is_upper_unitriangular, leibniz_det, leibniz_minor, rand_rat,
    random_sl, ref_column_echelon, ref_mat_mul, ref_rep_simple, ref_stratum,
    ref_y_mul, simple, sparse_sl, submatrix, transpose, x_product,
)
from tnnflag import audit, flag, linalg, richardson, weyl
from tnnflag.errors import (
    IndexOutOfRange, InternalInconsistency, NotInBigCell, RankTooLarge, ShapeMismatch,
    Singular,
)
from tnnflag.flag import borel_from, relative_position, stratum
from tnnflag.linalg import (
    Rat, bruhat_cell, bruhat_factor_plus, det, identity_mat, mat, mat_inv,
    mat_mul, mul_x, opposite_big_cell_factor, rep_weyl, weyl_mul, y_mul,
    y_product,
)


class TestGenerators:
    """x_i(a) is mul_x on the identity (conftest's x_product), and y_i(a) is
    y_product of the one letter i."""

    def test_gen_x_2(self):
        a = Rat(5, 3)
        assert x_product(2, (1,), (a,)) == mat([[1, a], [0, 1]])

    def test_gen_x_zero(self):
        assert x_product(3, (2,), (0,)) == identity_mat(3)

    def test_gen_x_entry(self):
        m = x_product(3, (2,), (5,))
        assert m[1][2] == 5 and m == mat([[1, 0, 0], [0, 1, 5], [0, 0, 1]])

    def test_gen_x_additive(self):
        a, b = Rat(1, 2), Rat(2, 7)
        assert mat_mul(x_product(3, (1,), (a,)), x_product(3, (1,), (b,))) == \
            x_product(3, (1,), (a + b,))

    def test_gen_y_2(self):
        a = Rat(4)
        assert y_product(2, (1,), (a,)) == mat([[1, 0], [a, 1]])

    def test_gen_y_transpose(self):
        a = Rat(3, 7)
        assert y_product(3, (2,), (a,)) == transpose(x_product(3, (2,), (a,)))

    def test_gen_y_triple_product(self):
        m = y_product(3, (1, 2, 1), (2, 3, 5))
        assert m == mat([[1, 0, 0], [7, 1, 0], [15, 3, 1]])

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRange):
            mul_x(identity_mat(3), 0, 1)
        with pytest.raises(IndexOutOfRange):
            y_product(3, (0,), (1,))
        with pytest.raises(IndexOutOfRange):
            mul_x(identity_mat(3), 3, 1)
        with pytest.raises(IndexOutOfRange):
            y_mul((1, 3), (1, 1), identity_mat(3))


class TestRepresentatives:
    def test_fourth_power(self):
        r = rep_weyl(simple(3, 2))
        m = identity_mat(3)
        for _ in range(4):
            m = mat_mul(m, r)
        assert m == identity_mat(3)

    def test_conjugation_permutes_diagonal(self):
        d = mat([[2, 0, 0], [0, 3, 0], [0, 0, Rat(1, 6)]])
        r = rep_weyl(simple(3, 1))
        c = mat_mul(mat_mul(r, d), mat_inv(r))
        assert [c[i][i] for i in range(3)] == [3, 2, Rat(1, 6)]

    def test_rep_weyl_identity(self):
        assert rep_weyl(weyl.identity(3)) == identity_mat(3)

    def test_rep_weyl_s1(self):
        assert rep_weyl(simple(2, 1)) == mat([[0, -1], [1, 0]])

    def test_braid_independence_w0_n3(self):
        s1, s2 = ref_rep_simple(3, 1), ref_rep_simple(3, 2)
        via_121 = mat_mul(mat_mul(s1, s2), s1)
        via_212 = mat_mul(mat_mul(s2, s1), s2)
        assert via_121 == via_212 == rep_weyl(weyl.longest_element(3))

    def test_braid_independence_exhaustive(self):
        for n in (2, 3, 4):
            for w in weyl.all_perms(n):
                expected = rep_weyl(w)
                for word in weyl.all_reduced_words(w):
                    m = identity_mat(n)
                    for i in word:
                        m = mat_mul(m, ref_rep_simple(n, i))
                    assert m == expected, (w, word)

    def test_closed_form_is_the_reduced_word_product(self):
        for n in range(1, 7):
            for w in weyl.all_perms(n):
                m = identity_mat(n)
                for i in weyl.reduced_word(w):
                    m = mat_mul(m, ref_rep_simple(n, i))
                assert rep_weyl(w) == m, w
                assert transpose(rep_weyl(w)) == mat_inv(m), w

    def test_longest_element_squares_to_a_sign(self):
        # so rep_weyl(w0) and its inverse differ by the scalar (-1)^(n-1)
        for n in range(1, 8):
            w0 = rep_weyl(weyl.longest_element(n))
            sign = -1 if n % 2 == 0 else 1
            assert mat_mul(w0, w0) == tuple(
                tuple(sign * x for x in row) for row in identity_mat(n)), n

    def test_det_one(self):
        for w in weyl.all_perms(4):
            assert leibniz_det(rep_weyl(w)) == 1


class TestWeylMul:
    """weyl_mul moves and negates rows or columns; mat_mul with rep_weyl(w)
    is its reference.  The identity is among the inputs, so rep_weyl is
    the same matrix applied from either side."""

    def test_matches_mat_mul_on_both_sides(self):
        rng = random.Random(91)
        for n in range(1, 6):
            mats = [identity_mat(n), random_sl(n, rng) if n > 1 else identity_mat(1)]
            mats += [tuple(tuple(rand_rat(rng) if rng.random() < 0.7 else Rat(0)
                                 for _ in range(n)) for _ in range(n))
                     for _ in range(2)]
            for w in weyl.all_perms(n):
                r = rep_weyl(w)
                for m in mats:
                    assert weyl_mul(w, m) == mat_mul(r, m), (w, m)
                    assert weyl_mul(w, m, right=True) == mat_mul(m, r), (w, m)

    def test_size_mismatch(self):
        with pytest.raises(ShapeMismatch):
            weyl_mul(weyl.identity(3), identity_mat(2))
        with pytest.raises(ShapeMismatch):
            weyl_mul(weyl.identity(2), identity_mat(3), right=True)


class TestMinor:
    """A minor is det of its submatrix."""

    def test_identity(self):
        assert det(submatrix(identity_mat(2), [1], [1])) == 1

    def test_single_entry(self):
        a = Rat(7, 2)
        assert det(submatrix(y_product(2, (1,), (a,)), [2], [1])) == a

    def test_leading_2x2(self):
        m = y_product(3, (1, 2, 1), (2, 3, 5))
        assert det(submatrix(m, [1, 2], [1, 2])) == 1


class TestBruhatFactor:
    @staticmethod
    def _right_factor_is_upper(g, b1, w):
        # b2 = rep(w)^-1 * b1^-1 * g, so g = b1 * rep(w) * b2 exactly
        b2 = mat_mul(transpose(rep_weyl(w)), mat_mul(mat_inv(b1), g))
        return linalg.is_upper_triangular(b2)

    def test_upper_triangular(self):
        g = mat([[1, 2], [0, 1]])
        b1, w = bruhat_factor_plus(g)
        assert w == weyl.identity(2)
        assert b1 == identity_mat(2)
        assert self._right_factor_is_upper(g, b1, w)

    def test_rep_weyl_input(self):
        for w in weyl.all_perms(3):
            _, got = bruhat_factor_plus(rep_weyl(w))
            assert got == w

    def test_sl2_lower(self):
        _, w = bruhat_factor_plus(y_product(2, (1,), (1,)))
        assert w == simple(2, 1)

    def test_singular(self):
        with pytest.raises(Singular):
            bruhat_factor_plus(mat([[1, 1], [1, 1]]))

    def test_roundtrip_random(self):
        # exact factorization of random rational matrices, all ranks to 5
        for n in (2, 3, 4, 5):
            rng = random.Random(100 + n)
            for _ in range(200):
                g = random_sl(n, rng)
                b1, w = bruhat_factor_plus(g)
                assert linalg.is_upper_triangular(b1)
                assert self._right_factor_is_upper(g, b1, w)

    def test_left_factor_in_u_w(self):
        # b1 is the unique left factor in U_w: unitriangular, with
        # off-diagonal entries only at (i, l) with i < l and w^-1(i) > w^-1(l)
        rng = random.Random(11)
        for n in (2, 3, 4):
            for w in weyl.all_perms(n):
                inv = weyl.inverse(w)
                for _ in range(3):
                    b1, got = bruhat_factor_plus(cell_point(w, rng))
                    assert got == w
                    for i in range(n):
                        assert b1[i][i] == 1
                        for l in range(n):
                            if i != l and b1[i][l] != 0:
                                assert i < l and inv[i] > inv[l], (w, b1)


def _scaled_to_det_one(entries):
    """The matrix with its first column divided by its determinant, or None."""
    d = leibniz_det(entries)
    if d == 0:
        return None
    return mat([[x / d if j == 0 else x for j, x in enumerate(row)]
                for row in entries])


def _dense_sl(n, rng):
    """Large numerators and denominators of both signs in every entry."""
    while True:
        entries = [[Rat(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
                    for _ in range(n)] for _ in range(n)]
        g = _scaled_to_det_one(entries)
        if g is not None:
            return g


def _mostly_zero_sl(n, rng):
    """A signed permutation matrix with up to n extra nonzero entries."""
    while True:
        images = rng.sample(range(n), n)
        entries = [[Rat(rng.choice((1, -1))) if images[i] == j else Rat(0)
                    for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(0, n)):
            entries[rng.randrange(n)][rng.randrange(n)] = rand_rat(rng)
        g = _scaled_to_det_one(entries)
        if g is not None:
            return g


def _conjugated_chart_image(n, rng):
    """y * b for a mixed-sign chart image b and a positive y-conjugator, as in psi."""
    pairs = weyl.bruhat_pairs(n)
    w, wp = pairs[rng.randrange(len(pairs))]
    chart = richardson.build_chart(w, wp)
    b = richardson.eval_chart(chart, [rand_rat(rng) for _ in range(chart.dim)])
    word = richardson.conjugator_word(w)
    return borel_from(y_mul(word, [Rat(1)] * len(word), b.rep)).rep


class TestOppositeBigCell:
    def test_w0_rep(self):
        x = opposite_big_cell_factor(rep_weyl(weyl.longest_element(3)))
        assert x == identity_mat(3)

    def test_sl2_line(self):
        x = opposite_big_cell_factor(y_product(2, (1,), (1,)))
        assert x == x_product(2, (1,), (1,))

    def test_identity_not_in_big_cell(self):
        with pytest.raises(NotInBigCell):
            opposite_big_cell_factor(identity_mat(2))

    def test_reconstruction(self):
        rng = random.Random(7)
        w0_inv = transpose(rep_weyl(weyl.longest_element(3)))
        for _ in range(50):
            g = random_sl(3, rng)
            try:
                x = opposite_big_cell_factor(g)
            except NotInBigCell:
                continue
            assert is_upper_unitriangular(x)
            rest = mat_mul(mat_mul(mat_inv(x), g), w0_inv)
            assert linalg.is_lower_triangular(rest)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_against_minor_oracle(self, n):
        # g is in B^+ w0 B^+ iff every lower-left k x k minor, k < n, is
        # nonzero; the oracle shares no code with the factorization
        rng = random.Random(40 + n)
        w0 = weyl.longest_element(n)
        inputs = [_dense_sl(n, rng) for _ in range(15)]
        inputs += [_mostly_zero_sl(n, rng) for _ in range(30)]
        inputs += [_conjugated_chart_image(n, rng) for _ in range(15)]
        outcomes = set()
        for g in inputs:
            in_cell = all(leibniz_minor(g, range(n - k + 1, n + 1), range(1, k + 1))
                          for k in range(1, n))
            outcomes.add(in_cell)
            if not in_cell:
                with pytest.raises(NotInBigCell):
                    opposite_big_cell_factor(g)
                continue
            x = opposite_big_cell_factor(g)
            assert is_upper_unitriangular(x)
            assert borel_from(mat_mul(x, rep_weyl(w0))) == borel_from(g)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_same_witness_on_the_coset(self, n):
        # U_{w0} = U^+, so x depends only on g * B^+: right multiplying by a
        # det-1 upper triangular t changes nothing, or the cell misses both
        rng = random.Random(60 + n)
        inputs = [_dense_sl(n, rng) for _ in range(10)]
        inputs += [_mostly_zero_sl(n, rng) for _ in range(20)]
        inputs += [_conjugated_chart_image(n, rng) for _ in range(10)]
        outcomes = set()
        for g in inputs:
            diag = [rand_rat(rng) for _ in range(n - 1)]
            prod = Rat(1)
            for d in diag:
                prod *= d
            diag.append(1 / prod)
            t = mat(tuple(
                tuple(diag[i] if i == j else
                      (rand_rat(rng) if j > i and rng.random() < 0.7 else Rat(0))
                      for j in range(n))
                for i in range(n)))
            try:
                x = opposite_big_cell_factor(g)
            except NotInBigCell:
                outcomes.add(False)
                with pytest.raises(NotInBigCell):
                    opposite_big_cell_factor(mat_mul(g, t))
                continue
            outcomes.add(True)
            assert opposite_big_cell_factor(mat_mul(g, t)) == x
        assert outcomes == {True, False}


class TestTNNSemigroupMinors:
    def _all_minors_nonneg(self, m, n):
        for k in range(1, n + 1):
            for rows in itertools.combinations(range(1, n + 1), k):
                for cols in itertools.combinations(range(1, n + 1), k):
                    if leibniz_minor(m, rows, cols) < 0:
                        return False
        return True

    def test_positive_products_are_tnn(self):
        for n in (2, 3, 4):
            rng = random.Random(n)
            word = weyl.reduced_word(weyl.longest_element(n))
            for _ in range(10):
                u = y_product(n, word, [rand_rat(rng, positive=True) for _ in word])
                assert self._all_minors_nonneg(u, n)

    def test_positive_products_are_tnn_n5_sampled(self):
        rng = random.Random(5)
        word = weyl.reduced_word(weyl.longest_element(5))
        u = y_product(5, word, [rand_rat(rng, positive=True) for _ in word])
        for _ in range(300):
            k = rng.randint(1, 5)
            rows = rng.sample(range(1, 6), k)
            cols = rng.sample(range(1, 6), k)
            assert leibniz_minor(u, rows, cols) >= 0


class TestSerialization:
    def test_rat_strings(self):
        assert linalg.mat_to_json(((Rat(3, 4),),)) == [["3/4"]]
        assert linalg.mat_to_json(((Rat(5),),)) == [["5"]]
        assert linalg.rat("-7/2") == Rat(-7, 2)

    @pytest.mark.parametrize("value, expected", [
        (3, Rat(3)), ("-7/21", Rat(-1, 3)), (" 12 ", Rat(12)), ("-1.25", Rat(-5, 4)),
        (".5", Rat(1, 2)), (Rat(2, 3), Rat(2, 3)),
        # surrounding whitespace, as Fraction reads it
        (" 3/4", Rat(3, 4)), ("3/4\n", Rat(3, 4)), ("\t-1.25 ", Rat(-5, 4)),
    ])
    def test_rat_accepts(self, value, expected):
        assert linalg.rat(value) == expected

    @pytest.mark.parametrize("value", [
        True, False, 2.0, 0.5, "1e2", "1E2", "2.5e-1", "1/0", None, [1],
        # digit separators, which Fraction accepts only from Python 3.11 on
        "1_0", "1_000/3", "1/1_0", "0.2_5", " 1_0 ",
    ])
    def test_rat_rejects(self, value):
        with pytest.raises(ValueError):
            linalg.rat(value)

    # Fraction reads any Unicode digit or space: an Arabic-Indic one, a
    # no-break space and an em space
    @pytest.mark.parametrize("value", ["\u0661", "\xa01", "1\u2003", "1/\u0662"])
    def test_rat_rejects_non_ascii(self, value):
        with pytest.raises(ValueError, match="not an exact rational"):
            linalg.rat(value)

    def test_rat_rejects_a_huge_exponent_at_once(self):
        # Fraction("1e10000000") alone takes seconds, and more with the exponent
        start = time.perf_counter()
        with pytest.raises(ValueError):
            linalg.rat("1e10000000")
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("value", [0.5, 2.0, True])
    def test_mat_rejects_inexact_entries(self, value):
        with pytest.raises(ValueError):
            mat([[value, 0], [0, 2]])

    def test_mat_roundtrip(self):
        m = mat([[1, Rat(1, 2)], [Rat(-3, 4), 1]])
        assert linalg.mat_from_json(linalg.mat_to_json(m)) == m
        assert linalg.mat_to_json(m) == [["1", "1/2"], ["-3/4", "1"]]


# Matrix families for the product test: mostly zeros, signed permutations,
# unitriangular, and dense mixed-sign rationals with large numerators and
# denominators.
_small = st.builds(Rat, st.integers(-9, 9), st.integers(1, 9))
_large = st.builds(Rat, st.integers(-10**30, 10**30), st.integers(1, 10**30))


@st.composite
def _mostly_zero(draw, n):
    entries = [[Rat(0)] * n for _ in range(n)]
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(cells, max_size=n + 1)):
        entries[i][j] = draw(_small)
    return mat(entries)


@st.composite
def _signed_perm(draw, n):
    images = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return mat([[signs[i] if images[i] == j else 0 for j in range(n)]
                for i in range(n)])


@st.composite
def _unitriangular(draw, n):
    lower = draw(st.booleans())
    return mat([[1 if i == j else draw(_small) if (i > j) == lower else 0
                 for j in range(n)] for i in range(n)])


@st.composite
def _dense(draw, n):
    return mat([[draw(_large) for _ in range(n)] for _ in range(n)])


_FAMILIES = {
    "mostly_zero": _mostly_zero, "signed_perm": _signed_perm,
    "unitriangular": _unitriangular, "dense": _dense,
}


class TestMatMul:
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_dense_reference(self, family, data):
        n = data.draw(st.integers(1, 6))
        a = data.draw(_FAMILIES[family](n))
        b = data.draw(st.sampled_from(sorted(_FAMILIES)).flatmap(
            lambda other: _FAMILIES[other](n)))
        assert mat_mul(a, b) == ref_mat_mul(a, b)
        assert mat_mul(b, a) == ref_mat_mul(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mat_mul(identity_mat(2), identity_mat(3))


class TestMulX:
    @pytest.mark.parametrize("family", ["mostly_zero", "dense"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_product_with_gen_x(self, family, data):
        # x_i(a) built with no mul_x, as the transpose of y_i(a)
        n = data.draw(st.integers(2, 5))
        m = data.draw(_FAMILIES[family](n))
        a = data.draw(_small | _large)
        for i in range(1, n):
            x = transpose(y_product(n, (i,), (a,)))
            assert mul_x(m, i, a) == mat_mul(m, x)


class TestYMul:
    """y_mul against the product of y_i(a) matrices in tests/conftest.py,
    on the conjugator word of psi for every w."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_product_on_every_conjugator_word(self, n):
        rng = random.Random(90 + n)
        for w in weyl.all_perms(n):
            word = richardson.conjugator_word(w)
            ones, minus_ones = [Rat(1)] * len(word), [Rat(-1)] * len(word)
            params = [rand_rat(rng) for _ in word]
            for m in (random_sl(n, rng), sparse_sl(n, rng)):
                for letters, ps in ((word, ones), (word[::-1], minus_ones),
                                    (word, params), (word[::-1], params)):
                    assert y_mul(letters, ps, m) == ref_y_mul(letters, ps, m), (w, m)
                # y_{i_k}(-1)...y_{i_1}(-1) undoes y_{i_1}(1)...y_{i_k}(1)
                assert y_mul(word[::-1], minus_ones, y_mul(word, ones, m)) == m, (w, m)

    # parameters 1 and -1 add or subtract the row with no product; each word
    # mixes them, as ints and as rationals, with other parameters
    def test_unit_parameters_match_the_product(self):
        rng = random.Random(95)
        units = (1, -1, Rat(1), Rat(-1), Rat(2, 2), Rat(-3, 3))
        for n in (2, 3, 4, 5):
            for _ in range(20):
                letters = [rng.randint(1, n - 1) for _ in range(rng.randint(1, 8))]
                params = [rng.choice(units) if rng.random() < 0.7 else rand_rat(rng)
                          for _ in letters]
                for m in (random_sl(n, rng), sparse_sl(n, rng)):
                    assert y_mul(letters, params, m) == ref_y_mul(letters, params, m)

    def test_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            y_mul((1, 2), (1,), identity_mat(3))
        with pytest.raises(ShapeMismatch):
            y_product(3, (1,), ())


# Inputs for the echelon oracle, n in 1..6.  The seeded families draw n and
# a seed for a generator from conftest; "huge" draws its entries directly.
_huge = st.builds(Rat, st.integers(-10**20, 10**20), st.integers(1, 10**20))


def _seeded(make):
    return st.builds(lambda n, seed: make(n, random.Random(seed)),
                     st.integers(1, 6), st.integers(0, 2**32))


def _random_sl_any(n, rng):
    return random_sl(n, rng) if n > 1 else identity_mat(1)


def _small_integer(n, rng):
    """Small integers, mostly zero, of any determinant, singular included."""
    return mat([[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)]
                for _ in range(n)])


def _chart_image(n, rng):
    pairs = weyl.bruhat_pairs(n)
    chart = richardson.build_chart(*pairs[rng.randrange(len(pairs))])
    return richardson.eval_chart(chart, [rand_rat(rng) for _ in range(chart.dim)]).rep


def _dependent_column(n, rng):
    """Singular: one column a rational combination of the others (or zero)."""
    g = [list(row) for row in _random_sl_any(n, rng)]
    j = rng.randrange(n)
    weights = [rand_rat(rng) if k != j and rng.random() < 0.7 else Rat(0)
               for k in range(n)]
    for row in g:
        row[j] = sum((w * x for w, x in zip(weights, row)), Rat(0))
    return mat(g)


def _scaled_column(n, rng):
    """Determinant != 1 (usually): one column of an SL_n matrix scaled."""
    g = [list(row) for row in _random_sl_any(n, rng)]
    j, f = rng.randrange(n), rand_rat(rng)
    for row in g:
        row[j] *= f
    return mat(g)


@st.composite
def _huge_entries(draw):
    n = draw(st.integers(1, 6))
    return mat([[draw(_huge) for _ in range(n)] for _ in range(n)])


_ECHELON_INPUTS = {
    "random_sl": _seeded(_random_sl_any), "sparse_sl": _seeded(sparse_sl),
    "small_integer": _seeded(_small_integer), "huge": _huge_entries(),
    "chart_image": _seeded(_chart_image), "singular": _seeded(_dependent_column),
    "det_not_one": _seeded(_scaled_column),
}


def _upper_triangular_invertible(n, rng):
    return mat([[rand_rat(rng) if j > i and rng.random() < 0.7 else
                 rand_rat(rng) if i == j else Rat(0) for j in range(n)]
                for i in range(n)])


class TestColumnEchelon:
    """The integer echelon against the rational one in tests/conftest.py."""

    @pytest.mark.parametrize("family", sorted(_ECHELON_INPUTS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_rational_reference(self, family, data):
        g = data.draw(_ECHELON_INPUTS[family])
        try:
            c_ref, w_ref, u_ref = ref_column_echelon(g)
        except Singular:
            with pytest.raises(Singular):
                linalg.column_echelon(g)
            return
        c, w, pivot_product = linalg.column_echelon(g)
        assert (c, w) == (c_ref, w_ref)
        assert pivot_product == math.prod(u_ref[j][j] for j in range(len(g)))
        sign = -1 if weyl.length(w) % 2 else 1
        assert pivot_product == sign * leibniz_det(g)

    @pytest.mark.parametrize("family", ["chart_image", "huge", "random_sl", "sparse_sl"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32))
    def test_depends_only_on_the_coset(self, family, data, seed):
        # c(g * t) == c(g) for invertible upper triangular t; the pivot
        # product picks up det(t)
        g = data.draw(_ECHELON_INPUTS[family])
        t = _upper_triangular_invertible(len(g), random.Random(seed))
        try:
            c, w, pivot_product = linalg.column_echelon(g)
        except Singular:
            with pytest.raises(Singular):
                linalg.column_echelon(mat_mul(g, t))
            return
        c_t, w_t, pivot_product_t = linalg.column_echelon(mat_mul(g, t))
        assert (c_t, w_t) == (c, w)
        assert pivot_product_t == pivot_product * leibniz_det(t)

    def test_singular_inputs_raise(self):
        for g in (mat([[0]]), mat([[1, 2], [2, 4]]), mat([[0] * 3] * 3)):
            with pytest.raises(Singular):
                linalg.column_echelon(g)

    @staticmethod
    def _proof_states(monkeypatch, g, hook="_prove_column"):
        """The integer state that column_echelon(g) hands to ``hook``, one
        per call: G_j, sigma, the multipliers u and the proved columns, then
        for ``_prove_column`` their pivots and the new column's c, p and
        content.  Deep copies: the echelon grows after each call, and a
        column that needed no elimination may be shared between G and C."""
        states = []
        prove = getattr(linalg, hook)

        def spy(*state):
            states.append(copy.deepcopy(state))
            prove(*state)

        monkeypatch.setattr(linalg, hook, spy)
        try:
            linalg.column_echelon(g)
        except Singular:
            pass
        monkeypatch.undo()
        return states

    @pytest.mark.parametrize("fault", [
        "t_above", "t_below", "t_diagonal", "s_scaled", "c_entry",
        "pivot_negated", "pivot_content_negated", "entry_below_pivot",
    ])
    def test_proof_rejects_a_broken_invariant(self, monkeypatch, fault):
        # the proof of column j checks sigma * G_j == content * C_j +
        # sum(u[k] * C_k for k < j), sigma > 0, content != 0 and C_j's
        # echelon shape
        g = mat([[2, Rat(1, 3), 5], [Rat(-1, 2), 1, 0], [4, 7, Rat(1, 5)]])
        states = self._proof_states(monkeypatch, g)
        assert len(states) == 3
        for state in states:
            linalg._prove_column(*state)
        j = 2
        g_col, sigma, u, echelon, pivots, c, p, content = states[j]
        if fault == "t_above":
            # a multiplier off by one
            u[0] += 1
        elif fault == "t_below":
            # a term on a later column: U is not triangular
            u.append(1)
        elif fault == "t_diagonal":
            # a zero diagonal entry content / sigma of U
            content = 0
        elif fault == "s_scaled":
            sigma *= 2
        elif fault == "c_entry":
            c[pivots[0]] += 1
        elif fault == "pivot_negated":
            # the identity still holds; sigma > 0 and the pivot's sign do not
            c, sigma, u = [-x for x in c], -sigma, [-x for x in u]
        elif fault == "pivot_content_negated":
            # the identity and sigma > 0 still hold; the pivot's sign does not
            c, content = [-x for x in c], -content
        else:
            # an entry below a pivot, in a row that no earlier pivot holds,
            # with G_j moved so that the identity holds
            upper = mat([[2, Rat(1, 3), 5], [0, 1, 0], [0, 0, Rat(1, 5)]])
            g_col, sigma, u, echelon, pivots, c, p, content = self._proof_states(
                monkeypatch, upper)[0]
            c[p + 1] += 1
            g_col = [sigma * x for x in g_col]
            g_col[p + 1] += content
            sigma = 1
        with pytest.raises(InternalInconsistency):
            linalg._prove_column(g_col, sigma, u, echelon, pivots, c, p, content)

    # column 1 is twice column 0, so it reduces to zero with a certificate
    _SINGULAR = ((1, 2, 0), (Rat(1, 2), 1, 3), (2, 4, Rat(1, 7)))

    @pytest.mark.parametrize("fault", ["t_diagonal", "t_below", "not_in_kernel"])
    def test_singular_proof_rejects_a_broken_certificate(self, monkeypatch, fault):
        # sigma * G_j == sum(u[k] * C_k for k < j) with sigma > 0 gives the
        # kernel vector of G that the proved columns C_k, k < j, determine
        states = self._proof_states(monkeypatch, mat(self._SINGULAR), "_prove_singular")
        assert len(states) == 1
        g_col, sigma, u, echelon = states[0]
        assert len(echelon) == 1
        linalg._prove_singular(g_col, sigma, u, echelon)
        if fault == "t_diagonal":
            # the zero certificate: 0 * G_j == 0 holds for every column
            sigma, u = 0, [0] * len(u)
        elif fault == "t_below":
            u.append(1)
        else:
            u[0] += 1
        with pytest.raises(InternalInconsistency):
            linalg._prove_singular(g_col, sigma, u, echelon)

    def test_a_zero_content_is_refused(self, monkeypatch):
        # with content 0 the identity holds for any c once G_j is spanned by
        # the earlier columns: U would have a zero on its diagonal
        g_col, sigma, u, echelon = self._proof_states(
            monkeypatch, mat(self._SINGULAR), "_prove_singular")[0]
        c = [0, 1, 0]  # echelon shape next to the first column's pivot row 3
        linalg._prove_singular(g_col, sigma, u, echelon)
        with pytest.raises(InternalInconsistency):
            linalg._prove_column(g_col, sigma, u, echelon, [2], c, 1, 0)

    def test_a_corrupted_multiplier_on_a_zero_column_is_not_singular(self, monkeypatch):
        # the column still reduced to zero, but its certificate is refused,
        # so the verdict is an internal error, never Singular
        prove = linalg._prove_singular

        def corrupt(g_col, sigma, u, echelon):
            prove(g_col, sigma, [f + 1 for f in u], echelon)

        monkeypatch.setattr(linalg, "_prove_singular", corrupt)
        with pytest.raises(InternalInconsistency):
            linalg.column_echelon(mat(self._SINGULAR))

    def test_matches_rational_reference_on_the_walks_inputs(self, monkeypatch):
        # every echelon that the decomposition audit runs at n = 4: charts
        # evaluated and inverted on every cell, with their peel checks,
        # witnesses and borel_from calls
        inputs = []
        echelon = linalg._integer_echelon

        def record(g):
            inputs.append(g)
            return echelon(g)

        monkeypatch.setattr(linalg, "_integer_echelon", record)
        audit.audit_decomposition(4, 1, 1)
        monkeypatch.undo()
        assert len(inputs) > 2000
        for g in inputs:
            c_ref, w_ref, u_ref = ref_column_echelon(g)
            c, w, pivot_product = linalg.column_echelon(g)
            assert (c, w) == (c_ref, w_ref), g
            assert pivot_product == math.prod(u_ref[j][j] for j in range(len(g))), g

    def test_faulty_elimination_is_caught(self, monkeypatch):
        # a content that does not divide the column breaks the elimination;
        # the proof, not a later failure, must report it
        faulty = types.SimpleNamespace(
            lcm=math.lcm, gcd=lambda *args: 2 * math.gcd(*args))
        monkeypatch.setattr(linalg, "math", faulty)
        for g in (identity_mat(2), mat([[1, 2], [3, 7]])):
            with pytest.raises(InternalInconsistency):
                linalg.column_echelon(g)


class TestBruhatCell:
    """bruhat_cell is the w of column_echelon, read without rebuilding c."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_column_echelon(self, n):
        rng = random.Random(70 + n)
        for _ in range(15):
            dense = mat([[rand_rat(rng) for _ in range(n)] for _ in range(n)])
            for g in (dense, sparse_sl(n, rng), _dependent_column(n, rng)):
                try:
                    w = linalg.column_echelon(g)[1]
                except Singular:
                    with pytest.raises(Singular):
                        bruhat_cell(g)
                    continue
                assert bruhat_cell(g) == w, g

    def test_singular_carries_a_proved_kernel_vector(self, monkeypatch):
        proved = []
        prove = linalg._prove_singular

        def spy(*state):
            prove(*state)
            proved.append(state)

        monkeypatch.setattr(linalg, "_prove_singular", spy)
        with pytest.raises(Singular):
            bruhat_cell(mat([[1, 2, 0], [Rat(1, 2), 1, 3], [2, 4, Rat(1, 7)]]))
        assert len(proved) == 1

    def test_stratum_runs_no_rational_rebuild(self, monkeypatch):
        rng = random.Random(75)
        points = [borel_from(random_sl(4, rng)) for _ in range(5)]
        expected = [ref_stratum(b) for b in points]
        origin = borel_from(identity_mat(4))
        monkeypatch.setattr(linalg, "column_echelon", None)
        monkeypatch.setattr(flag, "column_echelon", None)
        assert [stratum(b) for b in points] == expected
        assert [relative_position(origin, b) for b in points] == [
            b.position for b in points]


class TestDet:
    """det reads the column echelon, integer_minors expands every minor by
    Laplace; the Leibniz sum in tests/conftest.py is the independent
    oracle."""

    @staticmethod
    def _inputs(n, rng):
        # dense rationals of any determinant, mostly zero ones, and
        # singular ones with a dependent column
        for _ in range(10):
            yield mat([[rand_rat(rng) for _ in range(n)] for _ in range(n)])
            yield mat([[rand_rat(rng) if rng.random() < 0.3 else Rat(0)
                        for _ in range(n)] for _ in range(n)])
            yield _dependent_column(n, rng)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_leibniz(self, n):
        rng = random.Random(80 + n)
        singular = set()
        for g in self._inputs(n, rng):
            expected = leibniz_det(g)
            singular.add(expected == 0)
            assert det(g) == expected, g
        assert singular == {True, False}

    def test_minor_on_every_index_set(self):
        rng = random.Random(86)
        g = mat([[rand_rat(rng) for _ in range(4)] for _ in range(4)])
        for k in range(1, 5):
            for rows in itertools.combinations(range(1, 5), k):
                for cols in itertools.combinations(range(1, 5), k):
                    sub = submatrix(g, rows, cols)
                    assert det(sub) == leibniz_minor(g, rows, cols), (rows, cols)

    def test_every_singular_minor_is_proved(self, monkeypatch):
        def refuse(*state):
            raise InternalInconsistency("proof refused")

        assert det(mat([[1, 2], [2, 4]])) == 0
        monkeypatch.setattr(linalg, "_prove_singular", refuse)
        with pytest.raises(InternalInconsistency):
            det(mat([[1, 2], [2, 4]]))
        with pytest.raises(InternalInconsistency):
            borel_from(mat([[1, 2], [2, 4]]))

    def test_det_runs_no_rational_rebuild(self, monkeypatch):
        # det stops at the proved pivot product; only column_echelon builds c
        monkeypatch.setattr(linalg, "column_echelon", None)
        assert det(mat([[2, Rat(1, 3)], [Rat(-1, 2), 1]])) == Rat(13, 6)

    def test_every_nonsingular_minor_is_proved(self, monkeypatch):
        def refuse(*state):
            raise InternalInconsistency("proof refused")

        monkeypatch.setattr(linalg, "_prove_column", refuse)
        g = mat([[2, Rat(1, 3), 5], [Rat(-1, 2), 1, 0], [4, 7, Rat(1, 5)]])
        for rows, cols in (([1], [2]), ([1, 3], [2, 3]), ([1, 2, 3], [1, 2, 3])):
            with pytest.raises(InternalInconsistency):
                det(submatrix(g, rows, cols))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_table_matches_leibniz_on_every_index_set(self, n):
        rng = random.Random(90 + n)
        for g in self._inputs(n, rng):
            scales, levels = linalg.integer_minors(g)
            assert all(d > 0 for d in scales)
            seen = 0
            for k, level in enumerate(levels, 1):
                index_sets = list(itertools.combinations(range(1, n + 1), k))
                assert sorted(level) == sorted(itertools.product(index_sets, index_sets))
                for (rows, cols), value in level.items():
                    sub = [[g[i - 1][j - 1] for j in cols] for i in rows]
                    scale = math.prod(scales[j - 1] for j in cols)
                    assert Rat(value, scale) == leibniz_det(sub), (g, rows, cols)
                seen += len(level)
            assert seen == math.comb(2 * n, n) - 1

    def test_table_holds_to_the_rank_bound(self, monkeypatch):
        # refused before any column is cleared, so no level is built
        def refuse(g):
            raise AssertionError("columns cleared above the rank bound")

        monkeypatch.setattr(linalg, "_clear_columns", refuse)
        for n in (weyl.MAX_RANK + 1, 16):
            with pytest.raises(RankTooLarge):
                linalg.integer_minors(identity_mat(n))
        monkeypatch.undo()
        _, levels = linalg.integer_minors(identity_mat(weyl.MAX_RANK))
        assert len(list(levels)) == weyl.MAX_RANK

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_table_top_is_the_signed_pivot_product(self, n):
        # the expansion's full-size minor against the echelon's proved one
        rng = random.Random(100 + n)
        singular = set()
        for g in itertools.chain(self._inputs(n, rng), (sparse_sl(n, rng),)):
            scales, levels = linalg.integer_minors(g)
            *_, top = levels
            (value,) = top.values()
            try:
                _, w, pivot_product = linalg._integer_echelon(g)
            except Singular:
                singular.add(True)
                assert value == 0, g
                continue
            singular.add(False)
            expected = (-1) ** weyl.length(w) * pivot_product
            assert Rat(value, math.prod(scales)) == expected != 0, g
        assert singular == {True, False}
