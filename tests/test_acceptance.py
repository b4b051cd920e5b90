"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is exact: all arithmetic is
rational and every comparison is equality of canonical representatives.
"""

import itertools
import random

import pytest

from conftest import (
    chart_value, leibniz_minor, rand_params, rand_rat, ref_pi, report_text, subword_leq,
)
from tnnflag import audit, linalg, richardson, weyl
from tnnflag.audit import audit_decomposition, audit_semigroup
from tnnflag.flag import CellIndex, borel_from, stratum
from tnnflag.linalg import Rat, mat_mul, rep_weyl, y_product
from tnnflag.richardson import (
    base_point, build_chart, classify, conjugator_word, eval_chart,
    invert_chart, psi, phi_down,
)


def _criterion(num, desc, body):
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def _positive_y(n, w, rng):
    word = conjugator_word(w)
    return y_product(n, word, rand_params(rng, len(word), positive=True))


def test_criterion_01_cell_census():
    def body():
        assert len(weyl.bruhat_pairs(2)) == 3
        # independent Bruhat-order brute force for n = 3 and n = 4
        oracle3 = sum(1 for u in weyl.all_perms(3) for w in weyl.all_perms(3)
                      if subword_leq(u, w))
        assert oracle3 == 19 and len(weyl.bruhat_pairs(3)) == 19
        oracle4 = sum(1 for u in weyl.all_perms(4) for w in weyl.all_perms(4)
                      if subword_leq(u, w))
        assert len(weyl.bruhat_pairs(4)) == oracle4
        for n in (2, 3, 4):
            for w, wp in weyl.bruhat_pairs(n):
                assert build_chart(w, wp).dim == \
                    weyl.length(wp) - weyl.length(w)

    _criterion(1, "cell census (3 / 19 / brute-forced n=4) and chart dims", body)


def test_criterion_02_roundtrip_identity():
    def body():
        for n in (2, 3, 4):
            rng = random.Random(200 + n)
            for w, wp in weyl.bruhat_pairs(n):
                chart = build_chart(w, wp)
                for _ in range(25):
                    params = rand_params(rng, chart.dim)
                    b = eval_chart(chart, params)
                    recovered = invert_chart(chart, b)
                    assert recovered == params
                    assert eval_chart(chart, recovered) == b

    _criterion(2, "exact chart round trips, 25 vectors per chart, n <= 4", body)


def test_criterion_03_positivity_contract():
    def body():
        for n in (2, 3):
            rng = random.Random(300 + n)
            for w, wp in weyl.bruhat_pairs(n):
                chart = build_chart(w, wp)
                if chart.dim == 0:
                    continue
                for _ in range(10):
                    params = list(rand_params(rng, chart.dim, positive=True))
                    result = classify(eval_chart(chart, params))
                    assert result.nonneg
                    assert result.index == CellIndex(w, wp)
                    params[rng.randrange(chart.dim)] *= -1
                    result = classify(eval_chart(chart, params))
                    assert not result.nonneg

    _criterion(3, "positive params => nonneg in (w,w'); one negative => not", body)


def test_criterion_04_pi_stratum_property():
    def body():
        n = 3
        rng = random.Random(4)
        for w, wp in weyl.bruhat_pairs(n):
            if w == wp:
                continue
            for i in range(1, n):
                if not (weyl.is_right_ascent(w, i)
                        and not weyl.is_right_ascent(wp, i)):
                    continue
                chart = build_chart(w, wp)
                wps = weyl.right_mult_simple(wp, i)
                for _ in range(100):
                    b = eval_chart(chart, rand_params(rng, chart.dim, positive=True))
                    assert stratum(ref_pi(w, wp, i, b)) == CellIndex(w, wps)

    _criterion(4, "pi maps positive points of R_{w,w'} into R_{w,w's}", body)


def test_criterion_05_equivariance_and_diagram():
    def body():
        n = 3
        rng = random.Random(5)
        # conjugation equivariance of phi
        cases = 0
        while cases < 100:
            w, wpv = weyl.bruhat_pairs(n)[rng.randrange(len(weyl.bruhat_pairs(n)))]
            word = weyl.reduced_word(wpv)
            if not word:
                continue
            j = rng.randrange(len(word))
            u = weyl.word_to_perm(n, word[:j])
            v = weyl.word_to_perm(n, word[j:])
            chart = build_chart(w, wpv)
            b = eval_chart(chart, rand_params(rng, chart.dim, positive=True))
            y = _positive_y(n, w, rng)
            assert borel_from(phi_down(u, v, mat_mul(y, b.rep))) == \
                borel_from(mat_mul(y, phi_down(u, v, b.rep)))
            cases += 1
        # commuting square: pi(psi(B, a)) = B, both signs of a (ref_pi,
        # tests/conftest.py)
        cases = 0
        while cases < 100:
            w, wp = weyl.bruhat_pairs(n)[rng.randrange(len(weyl.bruhat_pairs(n)))]
            eligible = [i for i in range(1, n)
                        if weyl.is_right_ascent(w, i)
                        and not weyl.is_right_ascent(wp, i)]
            if w == wp or not eligible:
                continue
            i = rng.choice(eligible)
            wps = weyl.right_mult_simple(wp, i)
            chart = build_chart(w, wps)
            b = eval_chart(chart, rand_params(rng, chart.dim))
            a = rand_rat(rng)
            assert ref_pi(w, wp, i, borel_from(psi(w, wp, i, b.rep, a))) == b
            cases += 1

    _criterion(5, "phi commutes with y-conjugation; pi(psi(B,a)) = B", body)


def test_criterion_06_open_cell_and_boundary():
    def body():
        for n in (2, 3):
            word = weyl.reduced_word(weyl.longest_element(n))
            for mask in range(1 << len(word)):
                rng = random.Random(f"6:{n}:{mask}")
                _check_mask(n, mask, rng)
        word = weyl.reduced_word(weyl.longest_element(4))
        rng = random.Random("6:4")
        for _ in range(200):
            _check_mask(4, rng.randrange(1 << len(word)), rng)

    def _check_mask(n, mask, rng):
        w0 = weyl.longest_element(n)
        v = weyl.demazure_product(n, audit.mask_letters(n, mask))
        b = audit.sample_tnn_flag(n, rng, mask)
        result = classify(b)
        assert result.nonneg
        assert result.index == CellIndex(weyl.multiply(w0, v), w0)
        assert all(c > 0 for c in result.coords)
        assert chart_value(result) == b

    _criterion(6, "subword samples classify into ((w0 v, w0), positive)", body)


def test_criterion_07_base_points():
    def body():
        for n in (2, 3, 4):
            bases = set()
            for w in weyl.all_perms(n):
                b = base_point(w)
                result = classify(b)
                assert result.index == CellIndex(w, w)
                assert result.coords == () and result.nonneg
                assert chart_value(result) == b
                bases.add(b)
            conjugates = {borel_from(rep_weyl(w)) for w in weyl.all_perms(n)}
            assert bases == conjugates

    _criterion(7, "base points classify as ((w,w),[],true) and are the "
                  "W-conjugates of B^+", body)


def test_criterion_08_conjugation_preserves_verdict():
    def body():
        n = 3
        rng = random.Random(8)
        neg_done = pos_done = 0
        pairs = [p for p in weyl.bruhat_pairs(n) if p[0] != p[1]]
        while neg_done < 100 or pos_done < 100:
            w, wp = pairs[rng.randrange(len(pairs))]
            chart = build_chart(w, wp)
            y = _positive_y(n, w, rng)
            if neg_done < 100:
                params = list(rand_params(rng, chart.dim, positive=True))
                params[rng.randrange(chart.dim)] *= -1
                b = eval_chart(chart, params)
                assert not classify(b).nonneg
                assert not classify(borel_from(mat_mul(y, b.rep))).nonneg
                neg_done += 1
            if pos_done < 100:
                b = eval_chart(chart, rand_params(rng, chart.dim, positive=True))
                assert classify(b).nonneg
                assert classify(borel_from(mat_mul(y, b.rep))).nonneg
                pos_done += 1

    _criterion(8, "y-conjugation preserves both verdicts (100 + 100 points)", body)


def test_criterion_09_semigroup_cross_oracle():
    def body():
        for n in (2, 3, 4):
            rng = random.Random(900 + n)
            for w in weyl.all_perms(n):
                words = list(itertools.islice(weyl.all_reduced_words(w), 2))
                for word in words:
                    u = y_product(n, word,
                                  rand_params(rng, len(word), positive=True))
                    for k in range(1, n + 1):
                        for rows in itertools.combinations(range(1, n + 1), k):
                            for cols in itertools.combinations(range(1, n + 1), k):
                                assert leibniz_minor(u, rows, cols) >= 0
                    assert audit.semigroup_cell_of(u) == w

    _criterion(9, "positive y-products are minor-nonnegative and their cell "
                  "is recovered (>= 2 reduced words)", body)


def test_criterion_10_determinism():
    def body():
        a = report_text(audit_decomposition(3, samples=3, seed=42))
        b = report_text(audit_decomposition(3, samples=3, seed=42))
        assert a == b
        a = report_text(audit_semigroup(3, samples=3, seed=42))
        b = report_text(audit_semigroup(3, samples=3, seed=42))
        assert a == b
        # psi does not depend on the reduced word behind its conjugator, so
        # any word serves: every descent pair at n <= 4, a mixed-sign inner
        # point, every reduced word of w0 w^{-1} w0
        rng = random.Random(10)
        multi_word = 0
        for n in (2, 3, 4):
            w0 = weyl.longest_element(n)
            for w, wp in weyl.bruhat_pairs(n):
                for i in range(1, n):
                    if not (weyl.is_right_ascent(w, i)
                            and not weyl.is_right_ascent(wp, i)):
                        continue
                    chart = build_chart(w, weyl.right_mult_simple(wp, i))
                    b = eval_chart(chart, rand_params(rng, chart.dim))
                    a = rand_rat(rng)
                    target = weyl.multiply(weyl.multiply(w0, weyl.inverse(w)), w0)
                    words = list(weyl.all_reduced_words(target))
                    points = set()
                    for word in words:
                        points.add(borel_from(richardson._psi_with(word, i, b.rep, a)))
                    assert points == {borel_from(psi(w, wp, i, b.rep, a))}
                    multi_word += len(words) > 1
        assert multi_word >= 40

    _criterion(10, "byte-identical audit replay; psi is the same for every "
                   "reduced word of its conjugator", body)
