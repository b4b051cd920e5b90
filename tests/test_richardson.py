import gc
import io
import json
import random
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import (
    cell_point, chart_value, flag_minors_tnn, key_chart_lower, key_chart_upper,
    marsh_rietsch_point, rand_params, rand_rat, random_sl, ref_build_chart,
    ref_classify, ref_phi_up, ref_pi, ref_psi_inv, ref_shape, ref_stratum, simple,
    sparse_sl, subword_leq, x_product,
)
from tnnflag import errors, linalg, richardson, weyl
from tnnflag.cli import main
from tnnflag.errors import (
    InternalInconsistency, NotComparable, NotInBigCell, NotInChartImage,
    ParamCountMismatch, RankTooLarge, WrongCell, WrongStratum, ZeroParameter,
)
from tnnflag.flag import CellIndex, borel_from, opposite_position, stratum
from tnnflag.linalg import (
    Rat, identity_mat, mat_mul, mul_x, rep_weyl, y_mul, y_product,
)
from tnnflag.richardson import (
    base_point, build_chart, classify, conjugator_word, eval_chart,
    invert_chart, phi_down, phi_up, psi, psi_inv,
)


def positive_point(w, wp, rng):
    chart = build_chart(w, wp)
    params = rand_params(rng, chart.dim, positive=True)
    return eval_chart(chart, params), params, chart


def splits(wp):
    """All (u, v) with wp = u*v and lengths additive, via subword suffixes."""
    n = len(wp)
    word = weyl.reduced_word(wp)
    for j in range(len(word) + 1):
        u = weyl.word_to_perm(n, word[:j])
        v = weyl.word_to_perm(n, word[j:])
        yield u, v


def _descent_pairs(n):
    """Every (w, w', i) with w s_i > w, w' s_i < w' and w <= w'."""
    return [(w, wp, i) for w, wp in weyl.bruhat_pairs(n) for i in range(1, n)
            if weyl.is_right_ascent(w, i) and not weyl.is_right_ascent(wp, i)]


_nonzero_rat = st.builds(
    lambda p, q, negative: Rat(-p if negative else p, q),
    st.integers(1, 10**20), st.integers(1, 10**20), st.booleans())


class TestPhiDown:
    def test_v_identity(self):
        b = borel_from(y_product(3, (1,), (2,)))
        wp = stratum(b).wp
        assert borel_from(phi_down(wp, weyl.identity(3), b.rep)) == b

    def test_sl2_collapse(self):
        b = borel_from(y_product(2, (1,), (1,)))
        s1 = simple(2, 1)
        assert borel_from(phi_down(weyl.identity(2), s1, b.rep)) == borel_from(rep_weyl(s1))

    def test_phi_truncation_composes(self):
        # phi applied to a positive point of R_{1,w'} stays positive in R_{1,w'v}
        rng = random.Random(11)
        for wp in weyl.all_perms(3):
            word, evaluate = key_chart_upper(wp)
            b = evaluate(rand_params(rng, len(word), positive=True))
            for u, v in splits(wp):
                if v == weyl.identity(3):
                    continue
                image = borel_from(phi_down(u, v, b.rep))
                result = classify(image)
                assert result.nonneg
                assert result.index == CellIndex(weyl.identity(3), u)
                assert all(c > 0 for c in result.coords)
                assert chart_value(result) == image


class TestPhiUp:
    def test_v_identity(self):
        b = borel_from(y_product(3, (2,), (3,)))
        w = stratum(b).w
        assert borel_from(phi_up(w, weyl.identity(3), b)) == b

    def test_sl2(self):
        s1 = simple(2, 1)
        b = borel_from(mat_mul(x_product(2, (1,), (1,)), rep_weyl(s1)))
        assert borel_from(phi_up(weyl.identity(2), s1, b)) == borel_from(identity_mat(2))

    def test_inverse_of_phi_down(self):
        rng = random.Random(12)
        for w, wp in weyl.bruhat_pairs(3):
            v, _, _ = weyl.peel(w, wp)
            if v == weyl.identity(3):
                continue
            wv, wpv = weyl.multiply(w, v), weyl.multiply(wp, v)
            inner_pt, _, _ = positive_point(wv, wpv, rng)
            outer = borel_from(phi_down(wp, v, inner_pt.rep))
            assert borel_from(phi_up(w, v, outer)) == inner_pt


def phi_up_point(w, v, b):
    """The point of phi_up's representative."""
    return borel_from(phi_up(w, v, b))


class TestFactorizationReferences:
    """phi_up and stratum read the stored position; the references factor
    the representative again (tests/conftest.py)."""

    @staticmethod
    def _outcome(f, *args):
        try:
            b = f(*args)
        except WrongCell as exc:
            return "WrongCell", str(exc)
        return b.rep, b.position

    # every chart step at n <= 4, on points with mixed-sign parameters; each
    # peel step is also tried on every point of the same walk, so that
    # WrongCell is raised on the same inputs
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_chart_step(self, n):
        rng = random.Random(70 + n)
        wrong_cell = 0
        for w, wp in weyl.bruhat_pairs(n):
            chart = build_chart(w, wp)
            b = eval_chart(chart, rand_params(rng, chart.dim))
            walk, peels = [b], []
            for kind, sw, swp, arg in reversed(chart.steps):
                if kind == "peel":
                    peels.append((sw, arg))
                    b = phi_up_point(sw, arg, b)
                else:
                    b, _ = psi_inv(sw, swp, arg, b.rep)
                walk.append(b)
            for point in walk:
                assert stratum(point) == ref_stratum(point)
                for sw, v in peels:
                    got = self._outcome(phi_up_point, sw, v, point)
                    assert got == self._outcome(ref_phi_up, sw, v, point)
                    wrong_cell += got[0] == "WrongCell"
        assert wrong_cell > 0 or n == 2  # no chart of SL_2 peels

    def test_random_flags(self):
        rng = random.Random(77)
        for n in (2, 3, 4, 5):
            e = weyl.identity(n)
            for _ in range(20):
                b = borel_from(random_sl(n, rng))
                assert stratum(b) == ref_stratum(b)
                v = rng.choice(weyl.all_perms(n))
                assert self._outcome(phi_up_point, e, v, b) == \
                    self._outcome(ref_phi_up, e, v, b)


class TestMarshRietsch:
    """classify against a second chart with no recursion: the Marsh-Rietsch
    parametrization of R_{v,w} lands in the code's cell (w0 w, w0 v)."""

    PAIRS = [pair for n in (2, 3, 4) for pair in weyl.bruhat_pairs(n)]

    @pytest.mark.parametrize("pairs", [PAIRS, weyl.bruhat_pairs(5)[::25]],
                             ids=["n2-4", "n5-every-25th"])
    def test_positive_parameters(self, pairs):
        rng = random.Random(len(pairs))
        for v, w in pairs:
            w0 = weyl.longest_element(len(w))
            t = rand_params(rng, weyl.length(w) - weyl.length(v), positive=True)
            b = marsh_rietsch_point(v, w, t)
            result = classify(b)
            assert result.nonneg, (v, w)
            assert result.index == CellIndex(weyl.multiply(w0, w), weyl.multiply(w0, v))
            assert len(result.coords) == len(t) and all(c > 0 for c in result.coords)
            assert result == ref_classify(b)
            assert chart_value(result) == b

    def test_a_negative_parameter(self):
        rng = random.Random(80)
        for k, (v, w) in enumerate(self.PAIRS):
            dim = weyl.length(w) - weyl.length(v)
            if dim == 0:
                continue
            t = list(rand_params(rng, dim, positive=True))
            t[k % dim] *= -1
            b = marsh_rietsch_point(v, w, t)
            result = classify(b)
            assert not result.nonneg, (v, w, t)
            assert result == ref_classify(b)
            if result.coords:
                assert chart_value(result) == b


class TestPi:
    def test_sl2(self):
        s1 = simple(2, 1)
        for a in (Rat(1), Rat(-2), Rat(5, 3)):
            b = borel_from(y_product(2, (1,), (a,)))
            assert ref_pi(weyl.identity(2), s1, 1, b) == borel_from(rep_weyl(s1))

    def test_pi_keeps_positive_points_in_left_cell(self):
        rng = random.Random(13)
        w0 = weyl.longest_element(3)
        b, _, _ = positive_point(weyl.identity(3), w0, rng)
        for i in (1, 2):
            image = ref_pi(weyl.identity(3), w0, i, b)
            assert stratum(image) == \
                CellIndex(weyl.identity(3), weyl.right_mult_simple(w0, i))

    def test_negative_point_can_jump(self):
        # with negative coordinates, pi may land in R_{ws,w's}
        w0 = weyl.longest_element(3)
        e = weyl.identity(3)
        chart = build_chart(e, w0)
        b = eval_chart(chart, (Rat(-10, 7), Rat(-5), Rat(-7, 2)))
        idx = stratum(ref_pi(e, w0, 2, b))
        assert idx.w == simple(3, 2)
        assert idx.wp == weyl.right_mult_simple(w0, 2)


class TestKeyCharts:
    def test_upper_constant(self):
        word, evaluate = key_chart_upper(weyl.identity(2))
        assert word == () and evaluate(()) == borel_from(rep_weyl(simple(2, 1)))

    def test_upper_sl2(self):
        s1 = simple(2, 1)
        word, evaluate = key_chart_upper(s1)
        b = evaluate((Rat(1),))
        assert b == borel_from(mat_mul(x_product(2, (1,), (1,)), rep_weyl(s1)))

    def test_upper_stratum_exhaustive(self):
        rng = random.Random(15)
        for wp in weyl.all_perms(3):
            word, evaluate = key_chart_upper(wp)
            b = evaluate(rand_params(rng, len(word), positive=True))
            assert stratum(b) == CellIndex(weyl.identity(3), wp)

    def test_lower_constant(self):
        word, evaluate = key_chart_lower(weyl.longest_element(3))
        assert word == () and evaluate(()) == borel_from(identity_mat(3))

    def test_lower_sl2(self):
        word, evaluate = key_chart_lower(weyl.identity(2))
        assert evaluate((Rat(1),)) == borel_from(y_product(2, (1,), (1,)))

    def test_lower_stratum_exhaustive(self):
        rng = random.Random(16)
        for w in weyl.all_perms(3):
            word, evaluate = key_chart_lower(w)
            b = evaluate(rand_params(rng, len(word), positive=True))
            assert stratum(b) == CellIndex(w, weyl.longest_element(3))

    def test_param_count(self):
        word, evaluate = key_chart_lower(weyl.identity(3))
        with pytest.raises(ParamCountMismatch):
            evaluate((Rat(1),))


class TestPsi:
    def test_sl2_from_base(self):
        e, s1 = weyl.identity(2), simple(2, 1)
        b_minus = borel_from(rep_weyl(s1))
        for a in (Rat(2), Rat(-1, 3)):
            b = borel_from(psi(e, s1, 1, b_minus.rep, a))
            assert b == borel_from(mat_mul(x_product(2, (1,), (a,)), rep_weyl(s1)))

    def test_conjugator_inverse_is_the_reversed_word(self):
        for n in range(2, 6):
            for w in weyl.all_perms(n):
                word = conjugator_word(w)
                y_inv = y_mul(word[::-1], [-1] * len(word), identity_mat(n))
                assert y_mul(word, [1] * len(word), y_inv) == identity_mat(n), w

    def test_zero_parameter(self):
        s1 = simple(2, 1)
        with pytest.raises(ZeroParameter):
            psi(weyl.identity(2), s1, 1, borel_from(rep_weyl(s1)).rep, 0)

    def test_diagram_commutes(self):
        # pi(psi(B, a)) = B for nonzero a of both signs (ref_pi, tests/conftest.py)
        rng = random.Random(17)
        for w, wp in weyl.bruhat_pairs(3):
            for i in range(1, 3):
                if not (weyl.is_right_ascent(w, i)
                        and not weyl.is_right_ascent(wp, i)):
                    continue
                wps = weyl.right_mult_simple(wp, i)
                b, _, _ = positive_point(w, wps, rng)
                for a in (rand_rat(rng, positive=True), -rand_rat(rng, positive=True)):
                    assert ref_pi(w, wp, i, borel_from(psi(w, wp, i, b.rep, a))) == b

    def test_positive_extension_is_nonneg(self):
        rng = random.Random(18)
        w = simple(3, 2)
        wp = weyl.longest_element(3)
        wps = weyl.right_mult_simple(wp, 1)
        b, _, _ = positive_point(w, wps, rng)
        out = borel_from(psi(w, wp, 1, b.rep, Rat(3, 2)))
        assert classify(out).nonneg


class TestPsiInv:
    def test_sl2(self):
        b = borel_from(y_product(2, (1,), (1,)))
        p, a = psi_inv(weyl.identity(2), simple(2, 1), 1, b.rep)
        assert p == borel_from(rep_weyl(simple(2, 1))) and a == 1

    def test_roundtrip(self):
        rng = random.Random(19)
        for w, wp in weyl.bruhat_pairs(3):
            for i in range(1, 3):
                if not (weyl.is_right_ascent(w, i)
                        and not weyl.is_right_ascent(wp, i)):
                    continue
                wps = weyl.right_mult_simple(wp, i)
                b, _, _ = positive_point(w, wps, rng)
                a = rand_rat(rng)
                out = psi(w, wp, i, b.rep, a)
                assert psi_inv(w, wp, i, out) == (b, a)

    # each example sweeps every descent pair, so shrinking a failure would
    # replay hundreds of sweeps; the unshrunk draws are reported instead
    @pytest.mark.parametrize("n", [2, 3, 4])
    @settings(max_examples=4, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(data=st.data())
    def test_roundtrip_every_descent_pair(self, n, data):
        # mixed-sign inner points and values of a, with large numerators
        # and denominators
        for w, wp, i in _descent_pairs(n):
            chart = build_chart(w, weyl.right_mult_simple(wp, i))
            params = data.draw(st.lists(_nonzero_rat, min_size=chart.dim,
                                        max_size=chart.dim))
            b = eval_chart(chart, params)
            a = data.draw(_nonzero_rat)
            assert psi_inv(w, wp, i, psi(w, wp, i, b.rep, a)) == (b, a)

    # the public entry checks the descent pair and then the input's
    # position; on an input that fails both, the descent check wins
    def test_checks_the_descent_pair_before_the_position(self):
        n = 3
        g = identity_mat(n)  # B^+, at w0 from B^-
        s1, s2 = simple(n, 1), simple(n, 2)
        with pytest.raises(errors.LengthNotAdditive, match="does not lengthen"):
            psi_inv(s1, s2, 1, g)
        with pytest.raises(errors.LengthNotAdditive, match="does not shorten"):
            psi_inv(weyl.identity(n), s2, 1, g)
        with pytest.raises(WrongCell, match=r"^point is at position \(3, 2, 1\) from B\^-, "
                                            r"expected \(2, 1, 3\)$"):
            psi_inv(weyl.identity(n), s1, 1, g)

    def test_b_plus_not_in_cell(self):
        with pytest.raises((NotInBigCell, NotInChartImage)):
            psi_inv(weyl.identity(2), simple(2, 1), 1, borel_from(identity_mat(2)).rep)

    def test_residual_check_compares_every_entry(self, monkeypatch):
        # the residual check of ref_psi_inv (tests/conftest.py), which
        # psi_inv replaces by a construction: the big-cell witnesses are
        # injected, x_full = x_partial * x_{i'}(a) is accepted with that a,
        # and changing any entry of x_full other than (i', i'+1), which only
        # changes a, is rejected
        rng = random.Random(140)
        n = 4
        for w, wp, i in _descent_pairs(n)[::9]:
            b = eval_chart(build_chart(w, wp), rand_params(rng, weyl.length(wp) - weyl.length(w)))
            ip = n - i
            x_partial = tuple(tuple(Rat(1) if r == c else rand_rat(rng) if c > r else Rat(0)
                                    for c in range(n)) for r in range(n))
            a = rand_rat(rng)
            x_full = mul_x(x_partial, ip, a)
            cases = [(x_full, True)]
            for r in range(n):
                for c in range(n):
                    if (r, c) != (ip - 1, ip):
                        rows = [list(row) for row in x_full]
                        rows[r][c] += 1
                        cases.append((tuple(map(tuple, rows)), False))
            for x, accepted in cases:
                witnesses = iter([x, x_partial])
                with monkeypatch.context() as patch:
                    patch.setattr(linalg, "opposite_big_cell_factor",
                                  lambda g: next(witnesses))
                    if accepted:
                        assert ref_psi_inv(w, wp, i, b)[1] == a
                    else:
                        with pytest.raises(NotInChartImage):
                            ref_psi_inv(w, wp, i, b)

    @staticmethod
    def _outcome(f, *args):
        try:
            return f(*args)
        except errors.TnnError as exc:
            return type(exc)

    # psi_inv against ref_psi_inv (tests/conftest.py), which takes pi's point
    # and a from the residual of a second witness: the same (p, a) or the
    # same exception class, on every descent pair at n <= 4 with mixed-sign
    # points, and on random and sparse flags at n <= 5 with their own pair
    # and every s_i (LengthNotAdditive off the descents) and with a random
    # descent pair (mostly WrongCell)
    def test_matches_the_two_witness_reference(self):
        rng = random.Random(160)
        cases = []
        for n in (2, 3, 4):
            for w, wp, i in _descent_pairs(n):
                chart = build_chart(w, wp)
                cases.append((w, wp, i, eval_chart(chart, rand_params(rng, chart.dim))))
        for n in (2, 3, 4, 5):
            pairs = _descent_pairs(n)
            for _ in range(12):
                for make in (random_sl, sparse_sl):
                    b = borel_from(make(n, rng))
                    idx = stratum(b)
                    cases += [(idx.w, idx.wp, i, b) for i in range(1, n)]
                    cases.append(rng.choice(pairs) + (b,))
        outcomes = Counter()
        for w, wp, i, b in cases:
            got = self._outcome(psi_inv, w, wp, i, b.rep)
            assert got == self._outcome(ref_psi_inv, w, wp, i, b), (w, wp, i, b)
            if got is NotInBigCell:
                # the first witness missing, or a zero denominator: the
                # second witness of ref_psi_inv missing
                with pytest.raises(NotInBigCell) as caught:
                    psi_inv(w, wp, i, b.rep)
                got = "zero denominator" if "inner" in str(caught.value) else got
            outcomes[got if not isinstance(got, tuple) else "ok"] += 1
        assert set(outcomes) == {"ok", NotInBigCell, "zero denominator", WrongCell,
                                 errors.LengthNotAdditive}


class TestBasePoints:
    def test_b_plus_base(self):
        w0 = weyl.longest_element(3)
        assert base_point(w0) == borel_from(identity_mat(3))

    def test_all_verify(self):
        for n in (2, 3, 4):
            for w in weyl.all_perms(n):
                assert stratum(base_point(w)) == CellIndex(w, w)

    def test_base_points_are_weyl_conjugates(self):
        for n in (2, 3):
            bases = {base_point(w) for w in weyl.all_perms(n)}
            conjugates = {borel_from(rep_weyl(w)) for w in weyl.all_perms(n)}
            assert bases == conjugates


class TestCharts:
    def test_base_chart(self):
        w = simple(3, 1)
        chart = build_chart(w, w)
        assert chart.steps == () and chart.base == w and chart.dim == 0
        assert eval_chart(chart, ()) == base_point(w)

    def test_sl2_chart(self):
        chart = build_chart(weyl.identity(2), simple(2, 1))
        assert chart.dim == 1
        assert chart.base == weyl.identity(2)
        assert [step[0] for step in chart.steps] == ["extend"]
        b = eval_chart(chart, (Rat(1),))
        assert b == borel_from(y_product(2, (1,), (1,)))

    def test_all_charts_n3(self):
        for w, wp in weyl.bruhat_pairs(3):
            chart = build_chart(w, wp)
            assert chart.dim == weyl.length(wp) - weyl.length(w)

    def test_param_validation(self):
        chart = build_chart(weyl.identity(2), simple(2, 1))
        with pytest.raises(ParamCountMismatch):
            eval_chart(chart, ())
        with pytest.raises(ZeroParameter):
            eval_chart(chart, (Rat(0),))

    @pytest.mark.parametrize("value", [0.1, True])
    def test_inexact_parameter(self, value):
        # the arithmetic stays exact: floats and bools are refused, as in the CLI
        chart = build_chart(weyl.identity(2), simple(2, 1))
        with pytest.raises(ValueError):
            eval_chart(chart, (value,))

    def test_roundtrip_n3(self):
        rng = random.Random(20)
        for w, wp in weyl.bruhat_pairs(3):
            chart = build_chart(w, wp)
            for _ in range(5):
                params = rand_params(rng, chart.dim)
                b = eval_chart(chart, params)
                assert invert_chart(chart, b) == params
                assert eval_chart(chart, params) == b

    def test_wrong_stratum(self):
        chart = build_chart(weyl.identity(2), simple(2, 1))
        with pytest.raises(WrongStratum):
            invert_chart(chart, borel_from(identity_mat(2)))

    def test_open_cell_matches_key_chart(self):
        # chart points of (e, w0) classify like key-chart points
        rng = random.Random(21)
        e = weyl.identity(3)
        w0 = weyl.longest_element(3)
        word, evaluate = key_chart_lower(e)
        b = evaluate(rand_params(rng, len(word), positive=True))
        result = classify(b)
        assert result.nonneg and result.index == CellIndex(e, w0)

    def test_serialization(self):
        chart = build_chart(weyl.identity(3), weyl.longest_element(3))
        assert chart.shape() == ("extend(s1) -> peel(2,1,3) -> extend(s2) -> "
                                 "peel(1,3,2) -> extend(s1) -> base")
        assert chart.dim == 3

    def test_steps_chain_from_base_to_index(self):
        # each step starts where the previous one ended and the last ends
        # at the chart's own pair
        for n in (2, 3, 4):
            for w, wp in weyl.bruhat_pairs(n):
                chart = build_chart(w, wp)
                cur = (chart.base, chart.base)
                for kind, sw, swp, arg in chart.steps:
                    if kind == "peel":
                        assert cur == (weyl.multiply(sw, arg), weyl.multiply(swp, arg))
                    else:
                        assert kind == "extend"
                        assert cur == (sw, weyl.right_mult_simple(swp, arg))
                    cur = (sw, swp)
                assert cur == (w, wp)
                assert chart.dim == sum(1 for s in chart.steps if s[0] == "extend")

    # shrinking would replay whole-chart inversions many times over
    @settings(max_examples=60, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(data=st.data())
    def test_whole_chart_roundtrip(self, data):
        # mixed-sign parameters with large numerators and denominators
        n = data.draw(st.integers(2, 4))
        pairs = weyl.bruhat_pairs(n)
        w, wp = pairs[data.draw(st.integers(0, len(pairs) - 1))]
        chart = build_chart(w, wp)
        params = tuple(data.draw(st.lists(_nonzero_rat, min_size=chart.dim,
                                          max_size=chart.dim)))
        b = eval_chart(chart, params)
        assert invert_chart(chart, b) == params
        result = classify(b)
        assert result.index == CellIndex(w, wp) and result.coords == params
        assert result.nonneg == all(p > 0 for p in params)
        assert result.reason == ("ok" if result.nonneg else "NegativeCoordinate")


def inner_pair(chart):
    """The pair that a chart's last step starts from, read from the step."""
    w, wp = chart.index.w, chart.index.wp
    if chart.kind == "peel":
        return weyl.multiply(w, chart.arg), weyl.multiply(wp, chart.arg)
    assert chart.kind == "extend"
    return w, weyl.right_mult_simple(wp, chart.arg)


class TestChartLinks:
    """A chart is its last step linked to the cached chart of its inner pair."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_step_copying_reference(self, n):
        for w, wp in weyl.bruhat_pairs(n):
            chart = build_chart(w, wp)
            dim, base, steps = ref_build_chart(w, wp)
            assert chart.index == CellIndex(w, wp)
            assert (chart.dim, chart.base, chart.steps) == (dim, base, steps)
            assert chart.shape() == ref_shape(steps)

    def test_inner_is_the_cached_chart_of_the_inner_pair(self):
        for n in (2, 3, 4, 5):
            for w, wp in weyl.bruhat_pairs(n):
                chart = build_chart(w, wp)
                if w == wp:
                    assert (chart.inner, chart.kind, chart.arg) == (None, None, None)
                    continue
                assert chart.inner is build_chart(*inner_pair(chart))

    def test_equal_permutations_are_one_object(self):
        # rebuilt from empty caches, so that every chart is built here
        build_chart.cache_clear()
        weyl._table.cache_clear()
        richardson._step.cache_clear()
        objects = {}
        for n in (2, 3, 4, 5):
            for w, wp in weyl.bruhat_pairs(n):
                # fresh copies, as a caller parsing its input would pass
                link = build_chart(tuple(list(w)), tuple(list(wp)))
                while link is not None:
                    stored = [link.index.w, link.index.wp, link.base]
                    if link.kind == "peel":
                        stored.append(link.arg)
                    for p in stored:
                        assert objects.setdefault(p, p) is p
                    link = link.inner

    def test_step_records_are_shared(self):
        for n in (2, 3, 4):
            for w, wp in weyl.bruhat_pairs(n):
                for link in build_chart(w, wp).links():
                    assert link.step is richardson._step(link.kind, link.arg)
        base = build_chart(weyl.identity(3), weyl.identity(3))
        assert (base.step, base.shape()) == ((None, None, "base"), "base")

    def test_labels_need_no_json_escape(self):
        # cmd_cells quotes each shape as it is, with no json.dumps
        labels = [richardson._step("extend", i)[2] for i in range(1, 6)]
        labels.append(richardson._step(None, None)[2])
        for n in range(1, weyl.MAX_RANK + 1):
            labels += [richardson._step("peel", v)[2] for v in weyl.all_perms(n)]
        assert len(labels) == 5 + 1 + weyl.PERMS_UNDER_RANK_BOUND
        for label in labels:
            assert json.dumps(label) == f'"{label}"', label
        assert json.dumps(" -> ") == '" -> "'

    def test_incomparable_pairs_raise(self):
        perms = weyl.all_perms(3)
        incomparable = [(u, w) for u in perms for w in perms if not subword_leq(u, w)]
        assert len(incomparable) == 36 - 19
        for u, w in incomparable:
            with pytest.raises(NotComparable):
                build_chart(u, w)


def live_charts():
    return sum(isinstance(obj, richardson.Chart) for obj in gc.get_objects())


class TestChartTable:
    """The census builds its charts through a table that dies with its run."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_the_cached_charts(self, n):
        table = richardson.ChartTable()
        for w, wp in weyl.bruhat_pairs(n):
            chart, cached = table.chart(w, wp), build_chart(w, wp)
            assert chart is not cached
            assert chart.index == cached.index
            assert (chart.dim, chart.base, chart.steps) == \
                (cached.dim, cached.base, cached.steps)
            assert chart.shape() == cached.shape()

    def test_inner_is_the_table_chart_of_the_inner_pair(self):
        table = richardson.ChartTable()
        for n in (2, 3, 4, 5):
            for w, wp in weyl.bruhat_pairs(n):
                chart = table.chart(w, wp)
                assert table[w][wp] is chart is table.chart(w, wp)
                if w == wp:
                    assert chart.inner is None
                    continue
                iw, iwp = inner_pair(chart)
                # looked up, not built: the table built it with the chart
                assert chart.inner is table[iw][iwp]

    def test_the_census_keeps_no_chart(self, capsys, monkeypatch):
        tables = []

        class Recorded(richardson.ChartTable):
            def __init__(self):
                super().__init__()
                tables.append(weakref.ref(self))

        monkeypatch.setattr(richardson, "ChartTable", Recorded)
        gc.collect()
        before, cached = live_charts(), build_chart.cache_info().currsize
        assert main(["cells", "--n", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 213
        # the table holds no reference cycle, so it is freed on return
        assert len(tables) == 1 and tables[0]() is None
        gc.collect()
        assert live_charts() == before
        assert build_chart.cache_info().currsize == cached

    def test_rank_bound(self):
        # refused before any chart is built or cached: the caches are sized
        # for the pairs up to the rank bound
        n = weyl.MAX_RANK + 1
        w, wp = weyl.identity(n), weyl.longest_element(n)
        cached = build_chart.cache_info().currsize
        with pytest.raises(RankTooLarge):
            build_chart(w, wp)
        assert build_chart.cache_info().currsize == cached
        table = richardson.ChartTable()
        with pytest.raises(RankTooLarge):
            table.chart(w, wp)
        assert not any(table.values())

    @pytest.mark.parametrize("w, wp, error", [
        (weyl.identity(weyl.MAX_RANK + 1), weyl.longest_element(weyl.MAX_RANK + 1),
         RankTooLarge),
        ((2, 1), (1, 2), NotComparable),
    ], ids=["RankTooLarge", "NotComparable"])
    def test_a_refused_chart_leaves_no_row(self, w, wp, error):
        table = richardson.ChartTable()
        with pytest.raises(error):
            table.chart(w, wp)
        assert table == {}

    def test_the_census_reaches_peel_and_bruhat_leq_by_name(self, capsys, monkeypatch):
        # the benchmark's tracer counts these two by patching the module
        # attributes; listing the pairs must add no bruhat_leq call
        calls = {"peel": 0, "bruhat_leq": 0}

        def counted(name):
            original = getattr(weyl, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(weyl, name, counted(name))
        assert main(["cells", "--n", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 213
        # a peel for each of the 213 - 24 pairs w < w', each checking
        # w <= w', and a CellIndex check for each of the 213 charts
        assert calls == {"peel": 189, "bruhat_leq": 189 + 213}


class TestEquivariance:
    def test_phi_commutes_with_y_conjugation(self):
        # phi_down(w', v, y.B) = y.phi_down(w', v, B) for positive y-elements
        rng = random.Random(22)
        n = 3
        checked = 0
        for w, wpv_full in weyl.bruhat_pairs(n):
            for u, v in splits(wpv_full):
                if v == weyl.identity(n) or not weyl.bruhat_leq(w, wpv_full):
                    continue
                b, _, _ = positive_point(w, wpv_full, rng)
                yw = conjugator_word(w)
                y = y_product(n, yw, rand_params(rng, len(yw), positive=True))
                lhs = borel_from(phi_down(u, v, mat_mul(y, b.rep)))
                rhs = borel_from(mat_mul(y, phi_down(u, v, b.rep)))
                assert lhs == rhs
                checked += 1
        assert checked > 20


class TestClassify:
    def test_b_plus(self):
        result = classify(borel_from(identity_mat(3)))
        w0 = weyl.longest_element(3)
        assert result.index == CellIndex(w0, w0)
        assert result.coords == () and result.nonneg
        assert chart_value(result) == borel_from(identity_mat(3))

    def test_sl2_both_signs(self):
        pos_point = borel_from(y_product(2, (1,), (1,)))
        pos = classify(pos_point)
        assert pos.nonneg and pos.coords == (1,)
        assert chart_value(pos) == pos_point
        neg_point = borel_from(y_product(2, (1,), (-1,)))
        neg = classify(neg_point)
        assert not neg.nonneg and neg.coords == (-1,)
        assert neg.reason == "NegativeCoordinate"
        assert chart_value(neg) == neg_point

    def test_sl3_open(self):
        u = y_product(3, (1, 2, 1), (1, 1, 1))
        b = borel_from(u)
        result = classify(b)
        assert result.nonneg
        assert result.index == CellIndex(weyl.identity(3), weyl.longest_element(3))
        assert all(c > 0 for c in result.coords)
        assert chart_value(result) == b

    def test_y_conjugation_preserves_verdict(self):
        rng = random.Random(23)
        n = 3
        for w, wp in weyl.bruhat_pairs(n):
            chart = build_chart(w, wp)
            if chart.dim == 0:
                continue
            params = list(rand_params(rng, chart.dim, positive=True))
            yw = conjugator_word(w)
            y = y_product(n, yw, rand_params(rng, len(yw), positive=True))
            b = eval_chart(chart, params)
            assert classify(borel_from(mat_mul(y, b.rep))).nonneg
            params[rng.randrange(chart.dim)] *= -1
            b_neg = eval_chart(chart, params)
            assert not classify(b_neg).nonneg
            assert not classify(borel_from(mat_mul(y, b_neg.rep))).nonneg

    # random flags and chart images of random pairs, boundary cells included,
    # half of them with mixed-sign parameters; sparse small-integer flags
    # reach the failure verdict NotInBigCell at every n
    @pytest.mark.parametrize("n, count", [(3, 100), (4, 80), (5, 40)])
    def test_verdict_matches_flag_minor_oracle(self, n, count):
        rng = random.Random(60 + n)
        pairs = weyl.bruhat_pairs(n)
        flags = [borel_from(random_sl(n, rng)) for _ in range(count)]
        for _ in range(count):
            chart = build_chart(*rng.choice(pairs))
            positive = rng.random() < 0.5
            flags.append(eval_chart(chart, rand_params(rng, chart.dim, positive)))
        flags += [borel_from(sparse_sl(n, rng)) for _ in range(count)]
        verdicts, reasons = set(), set()
        for b in flags:
            expected = flag_minors_tnn(b.rep)
            result = classify(b)
            assert result.nonneg == expected, linalg.mat_to_json(b.rep)
            assert result == ref_classify(b)
            if result.coords:
                assert chart_value(result) == b
            verdicts.add(expected)
            reasons.add(result.reason)
        assert verdicts == {True, False}
        assert "NotInBigCell" in reasons

    @pytest.mark.parametrize("u, expected", [
        (((1, "2"), (2, "-1/3"), (1, "5")),
         {"w": "1,2,3", "wp": "3,2,1", "coords": ["1/2", "-3/2", "-6/5"],
          "nonneg": False, "reason": "NegativeCoordinate"}),
        (((2, "7/2"), (1, "2")),
         {"w": "1,3,2", "wp": "3,2,1", "coords": ["2/7", "1/7"],
          "nonneg": True, "reason": "ok"}),
    ])
    def test_result_is_slotted_and_shares_the_chart_index(self, u, expected):
        letters, params = zip(*u)
        g = y_product(3, letters, [Rat(a) for a in params])
        b = borel_from(g)
        result = classify(b)
        assert chart_value(result) == b
        assert not hasattr(result, "__dict__")
        w, wp = result.index.w, result.index.wp
        assert result.index is build_chart(w, wp).index
        assert result.to_json() == expected

    def test_result_serialization(self):
        b = borel_from(y_product(2, (1,), (Rat(1, 3),)))
        result = classify(b)
        assert chart_value(result) == b
        data = result.to_json()
        # the chart coordinate of the line span(1, a) is 1/a (the x-side
        # big-cell coordinate of the same point)
        assert data == {"w": "1,2", "wp": "2,1", "coords": ["3"],
                        "nonneg": True, "reason": "ok"}


class TestOneWalkRoundTrip:
    """classify and invert_chart share one walk that proves its round trip
    step by step; ref_classify (tests/conftest.py) evaluates the chart again."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_the_full_re_evaluation(self, n):
        rng = random.Random(120 + n)
        count = {2: 20, 3: 30, 4: 20, 5: 10}[n]
        perms = weyl.all_perms(n)
        flags = [borel_from(random_sl(n, rng)) for _ in range(count)]
        flags += [borel_from(sparse_sl(n, rng)) for _ in range(count)]
        flags += [borel_from(cell_point(rng.choice(perms), rng)) for _ in range(count)]
        reasons = set()
        for b in flags:
            result = classify(b)
            assert result == ref_classify(b), linalg.mat_to_json(b.rep)
            if result.coords:
                assert chart_value(result) == b
            chart = build_chart(result.index.w, result.index.wp)
            if result.reason in ("ok", "NegativeCoordinate"):
                assert invert_chart(chart, b) == result.coords
            else:
                with pytest.raises(errors.TnnError) as caught:
                    invert_chart(chart, b)
                assert caught.type is getattr(errors, result.reason)
            reasons.add(result.reason)
        assert "ok" in reasons and len(reasons) > 1

    @staticmethod
    def _round_trips(w, wp, v, outer):
        """phi_down(w', v, phi_up(w, v, outer)) == outer, False on WrongCell."""
        try:
            return borel_from(phi_down(wp, v, phi_up(w, v, outer))) == outer
        except WrongCell:
            return False

    # every peel step of every chart at n <= 4 (SL_2 has none), on the
    # walk's own points from mixed-sign parameters and on flags at the
    # step's position w0 w from B^+ and a random position from B^-
    @pytest.mark.parametrize("n", [3, 4])
    def test_the_peel_check_is_the_phi_down_round_trip(self, n):
        rng = random.Random(140 + n)
        pairs = weyl.bruhat_pairs(n)
        w0 = weyl.longest_element(n)
        outcomes = {"walk": set(), "random": set()}
        for w, wp in pairs:
            chart = build_chart(w, wp)
            b = eval_chart(chart, rand_params(rng, chart.dim))
            for step in chart.links():
                sw, swp = step.index.w, step.index.wp
                if step.kind == "extend":
                    b, _ = psi_inv(sw, swp, step.arg, b.rep)
                    continue
                upper = rng.choice([u for x, u in pairs if x == sw])
                others = [borel_from(cell_point(weyl.multiply(w0, sw), rng)),
                          eval_chart(build_chart(sw, upper),
                                     rand_params(rng, weyl.length(upper) - weyl.length(sw)))]
                for kind, outer in [("walk", b)] + [("random", o) for o in others]:
                    assert outer.position == weyl.multiply(w0, sw)
                    check = opposite_position(outer.rep) == swp
                    assert check == self._round_trips(sw, swp, step.arg, outer)
                    outcomes[kind].add(check)
                b = phi_up_point(sw, step.arg, b)
        assert outcomes == {"walk": {True}, "random": {True, False}}

    # peel(2,1,3) -> extend(s2) -> peel(1,3,2) -> extend(s1) -> base: the
    # outer peel checks the flag itself, the inner one psi_inv's output
    CHART = ((1, 2, 3), (2, 3, 1))

    @staticmethod
    def _assert_internal_error(chart, b, monkeypatch, capsys):
        """classify and invert_chart raise InternalInconsistency on b, and
        tnnflag classify exits 7 with one stderr line and no stdout."""
        with pytest.raises(InternalInconsistency, match="from B\\^-"):
            classify(b)
        with pytest.raises(InternalInconsistency, match="from B\\^-"):
            invert_chart(chart, b)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(linalg.mat_to_json(b.rep))))
        assert main(["classify", "-"]) == 7
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.endswith("\n")

    def _points(self):
        """The chart and a positive and a mixed-sign point of it, with
        their verdicts checked before any fault is injected."""
        rng = random.Random(131)
        chart = build_chart(*self.CHART)
        points = []
        for positive in (True, False):
            params = rand_params(rng, chart.dim, positive=positive)
            b = eval_chart(chart, params)
            assert classify(b) == richardson.ClassifyResult(
                chart.index, params, positive, "ok" if positive else "NegativeCoordinate")
            assert invert_chart(chart, b) == params
            points.append(b)
        return chart, points

    @staticmethod
    def _corrupt_parameter(patch, step):
        """Shift the a that the walk's psi_inv recovers at ``step`` by 1/1000
        before it builds the inner point.  That moves the inner point along
        the fibre of psi: psi(inner, a + 1/1000) is still the outer point,
        but the inner point is no longer at w's from B^-."""
        real_psi_inv, real_parameter = richardson._psi_inv_with, richardson._extend_parameter
        at_step = [False]
        # the conjugator word determines w
        key = (richardson.conjugator_word(step.index.w), step.index.wp, step.arg)

        def _psi_inv_with(y_word, wp, s_index, g):
            at_step[0] = (y_word, wp, s_index) == key
            return real_psi_inv(y_word, wp, s_index, g)

        def _extend_parameter(x, ip, rows):
            a = real_parameter(x, ip, rows)
            return a + Rat(1, 1000) if at_step[0] else a

        patch.setattr(richardson, "_psi_inv_with", _psi_inv_with)
        patch.setattr(richardson, "_extend_parameter", _extend_parameter)

    def test_a_corrupted_pi_output_is_an_internal_inconsistency(self, monkeypatch, capsys):
        # the inner point of the extend step inside the inner peel (pi's
        # output in the name), corrupted through its parameter
        chart, points = self._points()
        (step,) = [s for s in chart.links() if s.kind == "extend" and s.inner.kind == "peel"]
        self._corrupt_parameter(monkeypatch, step)
        for b in points:
            self._assert_internal_error(chart, b, monkeypatch, capsys)

    # every extend step of every chart at n <= 4, on a positive and a
    # mixed-sign point: the next step, a peel or the base (no extend follows
    # an extend), catches the shifted a, so no verdict has coordinates
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_corrupted_parameter_never_gives_coordinates(self, monkeypatch, n):
        rng = random.Random(150 + n)
        caught = set()
        for w, wp in weyl.bruhat_pairs(n):
            chart = build_chart(w, wp)
            points = [eval_chart(chart, rand_params(rng, chart.dim, positive=positive))
                      for positive in (True, False)]
            for step in chart.links():
                if step.kind != "extend":
                    continue
                with monkeypatch.context() as patch:
                    self._corrupt_parameter(patch, step)
                    for b in points:
                        try:
                            result = classify(b)
                        except InternalInconsistency:
                            caught.add("InternalInconsistency")
                            continue
                        assert result.coords == () and not result.nonneg, (step.index, result)
                        caught.add(result.reason)
        assert caught == ({"NotInChartImage"} if n == 2 else
                          {"InternalInconsistency", "NotInChartImage"})

    # phi_up returning its input untranslated on every chart with a peel at
    # n <= 4, on a positive and a mixed-sign point (v != id, so the inner
    # point is wrong): the next extend reads its input's position from the
    # walk's induction, so a later check catches the fault and no verdict
    # has coordinates
    def test_a_corrupted_translate_never_gives_coordinates(self, monkeypatch):
        rng = random.Random(180)
        real = richardson.phi_up

        def untranslated(w, v, b):
            real(w, v, b)
            return b.rep

        caught = Counter()
        for n in (3, 4):
            for w, wp in weyl.bruhat_pairs(n):
                chart = build_chart(w, wp)
                if all(step.kind != "peel" for step in chart.links()):
                    continue
                points = [eval_chart(chart, rand_params(rng, chart.dim, positive=positive))
                          for positive in (True, False)]
                with monkeypatch.context() as patch:
                    patch.setattr(richardson, "phi_up", untranslated)
                    for b in points:
                        try:
                            result = classify(b)
                        except InternalInconsistency:
                            caught["InternalInconsistency"] += 1
                            continue
                        assert result.coords == () and not result.nonneg, (w, wp, result)
                        caught[result.reason] += 1
        assert sum(caught.values()) == 2 * 187
        assert set(caught) == {"InternalInconsistency", "NotInBigCell", "NotInChartImage"}

    @pytest.mark.parametrize("depth", [0, 2], ids=["outer-peel", "inner-peel"])
    def test_a_corrupted_position_check_is_an_internal_inconsistency(
            self, monkeypatch, capsys, depth):
        chart, points = self._points()
        step = list(chart.links())[depth]
        assert step.kind == "peel"
        real = richardson.opposite_position

        def opposite_position(g):
            u = real(g)
            return weyl.longest_element(len(g)) if u == step.index.wp else u

        monkeypatch.setattr(richardson, "opposite_position", opposite_position)
        for b in points:
            self._assert_internal_error(chart, b, monkeypatch, capsys)


class TestWalkCost:
    """The chart walks' cost pinned as counts: n x n integer echelons
    (``linalg._integer_echelon``; psi_inv reads its two minors from one
    elimination of its own) and canonical points (``borel_from``)."""

    @staticmethod
    def _counter(monkeypatch, n):
        counts = Counter()
        real_echelon, real_borel_from = linalg._integer_echelon, richardson.borel_from

        def echelon(g):
            counts["echelon"] += len(g) == n
            return real_echelon(g)

        def borel_from_counted(g):
            counts["borel_from"] += 1
            return real_borel_from(g)

        monkeypatch.setattr(linalg, "_integer_echelon", echelon)
        monkeypatch.setattr(richardson, "borel_from", borel_from_counted)
        return counts

    def test_eval_chart_builds_one_point(self, monkeypatch):
        rng = random.Random(170)
        for n in (2, 3, 4):
            for w, wp in weyl.bruhat_pairs(n):
                chart = build_chart(w, wp)
                base_point(chart.base)
                with monkeypatch.context() as patch:
                    counts = self._counter(patch, n)
                    eval_chart(chart, rand_params(rng, chart.dim))
                assert counts["borel_from"] == 1, (w, wp)

    def test_open_cell_at_n6(self, monkeypatch):
        n = 6
        chart = build_chart(weyl.identity(n), weyl.longest_element(n))
        assert (chart.dim, sum(s.kind == "peel" for s in chart.links())) == (15, 14)
        params = rand_params(random.Random(171), chart.dim)
        base_point(chart.base)
        counts = self._counter(monkeypatch, n)
        b = eval_chart(chart, params)
        # a witness per extend, a Bruhat factor per peel, the point
        assert counts == {"echelon": 15 + 14 + 1, "borel_from": 1}
        # the stratum; per peel its B^- check; per extend the witness and the
        # inner point (the walk's induction places each extend's input)
        walk = {"echelon": 1 + 14 + 2 * 15, "borel_from": 15}
        counts.clear()
        assert classify(b).coords == params
        assert counts == walk
        counts.clear()
        assert invert_chart(chart, b) == params
        assert counts == walk

    # _invert hands phi_up's representative to psi_inv as it is: every peel
    # reaches a pair with no common ascent, whose step is an extend
    def test_a_peel_is_followed_by_an_extend(self):
        for n in range(2, 6):
            table = richardson.ChartTable()
            for w, wp in weyl.bruhat_pairs(n):
                for step in table.chart(w, wp).links():
                    assert step.kind == "extend" or step.inner.kind == "extend"
