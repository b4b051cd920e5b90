import random

import pytest

from conftest import rand_rat, ref_is_tnn, report_text, simple
from tnnflag import audit, linalg, weyl
from tnnflag.audit import (
    AuditReport, audit_decomposition, audit_semigroup, sample_tnn_flag,
    semigroup_cell_of,
)
from tnnflag.errors import NotTNN, RankTooLarge
from tnnflag.flag import borel_from
from tnnflag.linalg import Rat, identity_mat, mat, y_product


class TestSampleTnnFlag:
    def test_empty_mask(self):
        assert sample_tnn_flag(3, random.Random(0), 0) == borel_from(identity_mat(3))

    def test_full_mask_classifies_open(self):
        from tnnflag.richardson import classify
        b = sample_tnn_flag(3, random.Random(1), (1 << 3) - 1)
        result = classify(b)
        assert result.nonneg
        assert result.index.w == weyl.identity(3)
        assert result.index.wp == weyl.longest_element(3)


class TestSemigroupCellOf:
    def test_identity(self):
        assert semigroup_cell_of(identity_mat(3)) == weyl.identity(3)

    def test_single_generator(self):
        assert semigroup_cell_of(y_product(2, (1,), (Rat(3, 2),))) == simple(2, 1)

    def test_length_three_product(self):
        u = y_product(3, (1, 2, 1), (2, 3, 5))
        assert semigroup_cell_of(u) == weyl.longest_element(3)

    @pytest.mark.parametrize("rows", [
        [[1, 1], [0, 1]],
        [[1, 0], [1, 2]],
        [[1, 0, 0], [2, 1, 0], [3, 0, -1]],
    ], ids=["upper", "diagonal-2", "diagonal-minus-1"])
    def test_not_unitriangular_rejected(self, rows):
        with pytest.raises(NotTNN, match="not lower unitriangular"):
            semigroup_cell_of(mat(rows))

    def test_negative_minor_rejected(self):
        u = y_product(3, (1, 1), (1, -2))
        with pytest.raises(NotTNN):
            semigroup_cell_of(u)

    def test_negative_minor_rejected_n5(self):
        # one of its 251 minors is negative (rows 2..5, columns 1..4), which
        # a sampled check can miss
        word = weyl.reduced_word(weyl.longest_element(5))
        params = [Rat(-1, 50), Rat(1, 3), Rat(2, 7), Rat(3), Rat(5, 7),
                  Rat(7, 2), Rat(1), Rat(7, 6), Rat(9, 5), Rat(9, 4)]
        u = y_product(5, word, params)
        assert not audit.is_tnn_lower(u)
        with pytest.raises(NotTNN):
            semigroup_cell_of(u)

    def test_word_independence(self):
        rng = random.Random(2)
        for w in weyl.all_perms(3):
            for word in weyl.all_reduced_words(w):
                from tnnflag.linalg import y_product
                u = y_product(3, word,
                              [Rat(rng.randint(1, 9)) for _ in word])
                assert semigroup_cell_of(u) == w


class TestIsTnnLower:
    """is_tnn_lower against an exhaustive Leibniz loop over every minor."""

    # the counterexample of test_negative_minor_rejected_n5
    COUNTEREXAMPLE = [Rat(-1, 50), Rat(1, 3), Rat(2, 7), Rat(3), Rat(5, 7),
                      Rat(7, 2), Rat(1), Rat(7, 6), Rat(9, 5), Rat(9, 4)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_positive_products(self, n):
        rng = random.Random(40 + n)
        perms = weyl.all_perms(n)
        for w in rng.sample(perms, min(6, len(perms))):
            word = weyl.reduced_word(w)
            u = y_product(n, word, [rand_rat(rng, positive=True) for _ in word])
            assert audit.is_tnn_lower(u) and ref_is_tnn(u), u

    def test_signed_products(self):
        rng = random.Random(46)
        verdicts = []
        for n in (2, 3, 4, 5):
            perms = weyl.all_perms(n)
            for w in rng.sample(perms, min(6, len(perms))):
                word = weyl.reduced_word(w)
                u = y_product(n, word, [rand_rat(rng) for _ in word])
                verdicts.append(audit.is_tnn_lower(u))
                assert verdicts[-1] == ref_is_tnn(u), u
        assert set(verdicts) == {True, False}

    def test_counterexample_n5(self):
        word = weyl.reduced_word(weyl.longest_element(5))
        u = y_product(5, word, self.COUNTEREXAMPLE)
        assert not audit.is_tnn_lower(u) and not ref_is_tnn(u)

    def test_one_table_per_call(self, monkeypatch):
        tables = []
        build = linalg.integer_minors
        monkeypatch.setattr(linalg, "integer_minors",
                            lambda g: tables.append(g) or build(g))
        monkeypatch.setattr(linalg, "det", None)
        word = weyl.reduced_word(weyl.longest_element(4))
        us = [y_product(4, word, [Rat(k + 1) for k in range(len(word))]),
              y_product(5, weyl.reduced_word(weyl.longest_element(5)),
                        self.COUNTEREXAMPLE)]
        for u in us:
            audit.is_tnn_lower(u)
        assert tables == us

    def test_rank_bound(self):
        # level k holds C(n, k)^2 minors, so an unbounded n = 16 would not finish
        for n in (weyl.MAX_RANK + 1, 16):
            with pytest.raises(RankTooLarge):
                audit.is_tnn_lower(identity_mat(n))
            with pytest.raises(RankTooLarge):
                semigroup_cell_of(identity_mat(n))

    def test_negative_table_entry_is_a_failure(self, monkeypatch):
        # fault injection: one minor of the last level reads negative
        build = linalg.integer_minors

        def corrupted(g):
            scales, levels = build(g)
            levels = list(levels)
            key = next(iter(levels[-1]))
            levels[-1][key] = -1
            return scales, iter(levels)

        assert audit_semigroup(3, samples=1, seed=1).failures == []
        monkeypatch.setattr(linalg, "integer_minors", corrupted)
        report = audit_semigroup(3, samples=1, seed=1)
        assert report.samples_passed == 0
        assert len(report.failures) == report.samples_total > 0


class TestAuditDecomposition:
    def test_n2_clean(self):
        report = audit_decomposition(2, samples=3, seed=11)
        assert len(report.cell_census) == 3
        assert report.failures == []
        assert report.samples_passed == report.samples_total

    def test_n3_clean(self):
        report = audit_decomposition(3, samples=2, seed=11)
        assert len(report.cell_census) == 19
        assert report.failures == []

    def test_deterministic(self):
        a = report_text(audit_decomposition(2, samples=4, seed=5))
        b = report_text(audit_decomposition(2, samples=4, seed=5))
        assert a == b

    def test_seed_changes_report(self):
        a = report_text(audit_decomposition(2, samples=4, seed=5))
        b = report_text(audit_decomposition(2, samples=4, seed=6))
        assert a != b

    def test_rank_bound(self):
        with pytest.raises(RankTooLarge):
            audit_decomposition(5, samples=1, seed=0)


class TestAuditSemigroup:
    def test_n2_clean(self):
        report = audit_semigroup(2, samples=5, seed=3)
        assert report.failures == []

    def test_n3_clean(self):
        report = audit_semigroup(3, samples=3, seed=3)
        assert report.failures == []

    def test_deterministic(self):
        a = report_text(audit_semigroup(3, samples=2, seed=9))
        b = report_text(audit_semigroup(3, samples=2, seed=9))
        assert a == b

    def test_rank_bound(self):
        with pytest.raises(RankTooLarge):
            audit_semigroup(6, samples=1, seed=0)

    def test_one_minor_check_per_matrix(self, monkeypatch):
        calls = []
        check = audit.is_tnn_lower
        monkeypatch.setattr(audit, "is_tnn_lower", lambda u: calls.append(u) or check(u))
        report = audit_semigroup(3, samples=2, seed=1)
        assert len(calls) == report.samples_total

    def test_negative_minor_is_a_failure(self, monkeypatch):
        monkeypatch.setattr(audit, "is_tnn_lower", lambda u: False)
        report = audit_semigroup(2, samples=2, seed=1)
        assert report.samples_passed == 0
        assert len(report.failures) == report.samples_total


class TestSampleCount:
    @pytest.mark.parametrize("audit_fn", [audit_decomposition, audit_semigroup])
    def test_negative_samples_rejected(self, audit_fn):
        with pytest.raises(ValueError):
            audit_fn(2, -3, 0)
        # before the rank bound, as the CLI reports it
        with pytest.raises(ValueError):
            audit_fn(6, -1, 0)

    @pytest.mark.parametrize("audit_fn", [audit_decomposition, audit_semigroup])
    @pytest.mark.parametrize("n", [-1, 0])
    def test_rank_below_one_rejected(self, audit_fn, n):
        with pytest.raises(ValueError):
            audit_fn(n, 1, 0)

    @pytest.mark.parametrize("audit_fn", [audit_decomposition, audit_semigroup])
    def test_more_than_the_bound_rejected_before_sampling(self, audit_fn, monkeypatch):
        def sample(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(audit, "sample_tnn_flag", sample)
        monkeypatch.setattr(audit, "y_product", sample)
        with pytest.raises(ValueError, match="^samples must be at most 10000, got 10001$"):
            audit_fn(2, 10_001, 0)
        # before the rank bound, as the CLI reports it
        with pytest.raises(ValueError):
            audit_fn(6, 10_001, 0)

    # the bound itself is accepted; running it would take minutes
    def test_the_bound_passes_the_check(self):
        assert audit.MAX_SAMPLES == 10_000
        audit._check_arguments(4, audit.MAX_SAMPLES)

    def test_zero_samples_run_no_sample(self):
        assert audit_semigroup(2, 0, 0).samples_total == 0
        # only the census and round-trip records of the 3 cells of SL_2
        assert audit_decomposition(2, 0, 0).samples_total == 2 * 3


class TestReport:
    def test_json_shape(self):
        report = audit_decomposition(2, samples=1, seed=0)
        data = report.to_json()
        assert set(data) == {"n", "seed", "cell_census", "samples_total",
                             "samples_passed", "failures"}
        assert data["samples_passed"] <= data["samples_total"]
