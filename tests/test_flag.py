import dataclasses
import random

import pytest

from conftest import (
    cell_point, codim_check, leibniz_det, rand_params, rand_rat, random_sl,
    rank_relative_position, ref_bruhat_leq, ref_mat_mul, simple, sparse_sl, transpose,
)
from tnnflag import flag, linalg, richardson, weyl
from tnnflag.errors import InternalInconsistency, Singular
from tnnflag.flag import borel_from, relative_position, stratum
from tnnflag.linalg import (
    Rat, identity_mat, mat, mat_from_json, mat_inv, mat_mul, rep_weyl, y_product,
)


class TestBorelFrom:
    def test_identity(self):
        assert borel_from(identity_mat(3)).rep == identity_mat(3)

    def test_upper_triangular_absorbed(self):
        b = mat([[1, 5, Rat(1, 3)], [0, Rat(1, 2), 7], [0, 0, 2]])
        assert borel_from(b) == borel_from(identity_mat(3))

    def test_coset_invariance_random(self):
        rng = random.Random(1)
        for _ in range(30):
            g = random_sl(3, rng)
            t = mat([[1, rand_rat(rng), rand_rat(rng)],
                     [0, Rat(2), rand_rat(rng)],
                     [0, 0, Rat(1, 2)]])
            assert borel_from(g) == borel_from(mat_mul(g, t))

    def test_b_minus_sl2(self):
        assert borel_from(rep_weyl(simple(2, 1))).rep == mat([[0, -1], [1, 0]])

    def test_non_unimodular_rejected(self):
        with pytest.raises(Singular):
            borel_from(mat([[2, 0], [0, 1]]))

    def test_rep_is_the_left_bruhat_factor(self):
        # the canonical rep is b1 * P_w, its last column negated when w is odd
        rng = random.Random(3)
        for n in (2, 3, 4):
            for w in weyl.all_perms(n):
                for _ in range(3):
                    g = cell_point(w, rng)
                    b1, _ = linalg.bruhat_factor_plus(g)
                    sign = -1 if weyl.length(w) % 2 else 1
                    expected = tuple(
                        tuple(row[w[j] - 1] * (sign if j == n - 1 else 1)
                              for j in range(n))
                        for row in b1)
                    assert borel_from(g).rep == expected

    def test_position_is_the_bruhat_cell(self):
        rng = random.Random(4)
        for n in (2, 3, 4, 5):
            gs = [random_sl(n, rng) for _ in range(10)]
            gs += [sparse_sl(n, rng) for _ in range(10)]
            gs += [cell_point(rng.choice(weyl.all_perms(n)), rng) for _ in range(10)]
            origin = borel_from(identity_mat(n))
            for g in gs:
                b = borel_from(g)
                assert b.position == linalg.bruhat_factor_plus(g)[1]
                assert b.position == relative_position(origin, b)

    def test_position_takes_no_part_in_equality(self):
        b = borel_from(y_product(3, (1,), (2,)))
        other = dataclasses.replace(b, position=weyl.identity(3))
        assert other == b and hash(other) == hash(b)

    def test_det_one(self):
        rng = random.Random(2)
        for _ in range(20):
            assert leibniz_det(borel_from(random_sl(4, rng)).rep) == 1


class TestBorelFromDeterminant:
    """borel_from reads det(g) from its echelon; the Leibniz sum is the reference."""

    DET_ONE_MESSAGE = "representative must have determinant 1"
    DETS = (Rat(1), Rat(-1), Rat(2), Rat(-1, 3))

    def _inputs(self, n, rng):
        # random elements of SL_n times rep_weyl(w) for a random w, so the
        # pivot pattern varies, scaled to each determinant; then singular
        # matrices with two proportional columns, and the zero matrix
        for d in self.DETS:
            for _ in range(6):
                w = tuple(rng.sample(range(1, n + 1), n))
                k = rng.randrange(n)
                scale = mat([[d if i == j == k else int(i == j) for j in range(n)]
                             for i in range(n)])
                yield ref_mat_mul(ref_mat_mul(random_sl(n, rng), rep_weyl(w)), scale)
        for _ in range(6):
            g = [list(row) for row in random_sl(n, rng)]
            j, k = rng.sample(range(n), 2)
            f = rand_rat(rng)
            for row in g:
                row[j] = f * row[k]
            yield mat(g)
        yield mat([[0] * n for _ in range(n)])

    def test_rejects_exactly_non_det1(self):
        seen = set()
        for n in (2, 3, 4, 5):
            rng = random.Random(40 + n)
            for g in self._inputs(n, rng):
                d = leibniz_det(g)
                seen.add(d)
                if d != 1:
                    with pytest.raises(Singular) as exc:
                        borel_from(g)
                    assert str(exc.value) == self.DET_ONE_MESSAGE
                    continue
                rep = borel_from(g).rep
                assert linalg.is_upper_triangular(ref_mat_mul(mat_inv(g), rep))
                assert leibniz_det(rep) == 1
        assert seen == {*self.DETS, Rat(0)}


class TestAct:
    """The action g * b is the coset of g * b.rep, borel_from(mat_mul(g, b.rep))."""

    def test_identity(self):
        b = borel_from(y_product(2, (1,), (3,)))
        assert borel_from(mat_mul(identity_mat(2), b.rep)) == b

    def test_flag_line(self):
        b = borel_from(y_product(2, (1,), (Rat(5, 2),)))
        # the flag line span(1, 5/2), scaled so the bottom pivot is 1
        assert b.rep[0][0] == Rat(2, 5) and b.rep[1][0] == 1

    def test_w0_gives_b_minus(self):
        # w0 * B^+ is B^-, the Borel that lower triangular matrices fix
        rng = random.Random(12)
        for n in (2, 3):
            b_minus = borel_from(rep_weyl(weyl.longest_element(n)))
            for _ in range(5):
                t = transpose(mat([[rand_rat(rng) if j > i else int(i == j)
                                    for j in range(n)] for i in range(n)]))
                assert borel_from(mat_mul(t, b_minus.rep)) == b_minus

    def test_action_compatible(self):
        rng = random.Random(3)
        for _ in range(20):
            g, h = random_sl(3, rng), random_sl(3, rng)
            b = borel_from(random_sl(3, rng))
            hb = borel_from(mat_mul(h, b.rep))
            assert borel_from(mat_mul(g, hb.rep)) == \
                borel_from(mat_mul(mat_mul(g, h), b.rep))


class TestRelativePosition:
    def test_self(self):
        b = borel_from(random_sl(3, random.Random(4)))
        assert relative_position(b, b) == weyl.identity(3)

    def test_opposite(self):
        for n in (2, 3, 4):
            w0 = weyl.longest_element(n)
            b_plus, b_minus = borel_from(identity_mat(n)), borel_from(rep_weyl(w0))
            assert relative_position(b_plus, b_minus) == w0

    def test_sl2_distinct_lines(self):
        b = borel_from(y_product(2, (1,), (1,)))
        b_minus = borel_from(rep_weyl(simple(2, 1)))
        assert relative_position(b_minus, b) == simple(2, 1)

    def test_calibration_exhaustive(self):
        # pins the orientation convention: B^+ --w--> w * B^+
        for n in (2, 3, 4):
            b_plus = borel_from(identity_mat(n))
            for w in weyl.all_perms(n):
                assert relative_position(b_plus, borel_from(rep_weyl(w))) == w

    def test_antisymmetry(self):
        rng = random.Random(5)
        for _ in range(15):
            b1 = borel_from(random_sl(3, rng))
            b2 = borel_from(random_sl(3, rng))
            assert relative_position(b1, b2) == \
                weyl.inverse(relative_position(b2, b1))

    def test_g_invariance(self):
        for n in (3, 4):
            rng = random.Random(n + 6)
            for _ in range(10):
                g = random_sl(n, rng)
                b1 = borel_from(random_sl(n, rng))
                b2 = borel_from(random_sl(n, rng))
                gb1 = borel_from(mat_mul(g, b1.rep))
                gb2 = borel_from(mat_mul(g, b2.rep))
                assert relative_position(gb1, gb2) == relative_position(b1, b2)

    def test_agrees_with_rank_oracle(self):
        # random flags, and chart images with mixed-sign parameters in
        # sampled boundary cells and the open cell, each paired both ways
        # with B^+, B^- and a random flag
        for n in (2, 3, 4, 5):
            rng = random.Random(20 + n)
            pairs = weyl.bruhat_pairs(n)
            points = [borel_from(random_sl(n, rng)) for _ in range(8)]
            open_cell = (weyl.identity(n), weyl.longest_element(n))
            for w, wp in rng.sample(pairs, min(len(pairs), 8)) + [open_cell]:
                chart = richardson.build_chart(w, wp)
                points.append(richardson.eval_chart(chart, rand_params(rng, chart.dim)))
            b_plus = borel_from(identity_mat(n))
            b_minus = borel_from(rep_weyl(weyl.longest_element(n)))
            for b in points:
                for other in (b_plus, b_minus, borel_from(random_sl(n, rng))):
                    assert relative_position(other, b) == rank_relative_position(other, b)
                    assert relative_position(b, other) == rank_relative_position(b, other)


class TestStratum:
    def test_b_plus(self):
        idx = stratum(borel_from(identity_mat(3)))
        w0 = weyl.longest_element(3)
        assert idx.w == w0 and idx.wp == w0

    def test_b_minus(self):
        idx = stratum(borel_from(rep_weyl(weyl.longest_element(3))))
        e = weyl.identity(3)
        assert idx.w == e and idx.wp == e

    def test_sl2_open(self):
        idx = stratum(borel_from(y_product(2, (1,), (1,))))
        assert idx.w == weyl.identity(2) and idx.wp == simple(2, 1)

    def test_always_comparable(self):
        rng = random.Random(8)
        for _ in range(40):
            idx = stratum(borel_from(random_sl(3, rng)))
            assert weyl.bruhat_leq(idx.w, idx.wp)

    def test_w_component_constant_under_upper_action(self):
        rng = random.Random(9)
        for _ in range(20):
            b = borel_from(random_sl(3, rng))
            t = mat([[2, rand_rat(rng), rand_rat(rng)],
                     [0, Rat(1, 4), rand_rat(rng)],
                     [0, 0, 2]])
            assert stratum(borel_from(mat_mul(t, b.rep))).w == stratum(b).w


    def test_agrees_with_rank_oracle(self):
        # w from the B^+ side and w' from the B^- side, each by ranks
        for n in (2, 3, 4, 5):
            rng = random.Random(60 + n)
            w0 = weyl.longest_element(n)
            points = [borel_from(random_sl(n, rng)) for _ in range(8)]
            for w, wp in rng.sample(weyl.bruhat_pairs(n), 8 if n > 2 else 3):
                chart = richardson.build_chart(w, wp)
                points.append(richardson.eval_chart(chart, rand_params(rng, chart.dim)))
            b_plus, b_minus = borel_from(identity_mat(n)), borel_from(rep_weyl(w0))
            for b in points:
                expected = flag.CellIndex(
                    weyl.multiply(w0, rank_relative_position(b_plus, b)),
                    rank_relative_position(b_minus, b))
                assert stratum(b) == expected


class TestCellIndex:
    def test_incomparable_pair_raises(self):
        perms = weyl.all_perms(4)
        pairs = [(u, w) for u in perms for w in perms]
        incomparable = [(u, w) for u, w in pairs if not ref_bruhat_leq(u, w)]
        assert len(incomparable) == len(pairs) - len(weyl.bruhat_pairs(4))
        for u, w in incomparable:
            with pytest.raises(InternalInconsistency):
                flag.CellIndex(u, w)


class TestCodim:
    def test_b_plus(self):
        assert codim_check(borel_from(identity_mat(3))) == (3, 0)

    def test_b_minus(self):
        assert codim_check(borel_from(rep_weyl(weyl.longest_element(3)))) == (0, 0)

    def test_sl2_open_cell(self):
        assert codim_check(borel_from(y_product(2, (1,), (1,)))) == (0, 1)


class TestSerialization:
    def test_roundtrip(self):
        b = borel_from(y_product(3, (1,), (Rat(2, 3),)))
        assert borel_from(mat_from_json(b.to_json()["borel_rep"])) == b
