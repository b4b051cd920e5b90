import itertools
import math
import random

import pytest

from conftest import (
    dominance_table, ref_bruhat_leq, ref_find_descent_pair, ref_peel, simple,
    subword_leq,
)
from tnnflag import weyl
from tnnflag.errors import NoDescentPair, NotComparable, RankMismatch, RankTooLarge


def s(n, i):
    return simple(n, i)


class TestMultiply:
    def test_s1_s2(self):
        assert weyl.multiply(s(3, 1), s(3, 2)) == (2, 3, 1)

    def test_identity(self):
        for w in weyl.all_perms(3):
            assert weyl.multiply(w, weyl.identity(3)) == w
            assert weyl.multiply(weyl.identity(3), w) == w

    def test_involution(self):
        assert weyl.multiply(s(3, 1), s(3, 1)) == weyl.identity(3)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            weyl.multiply(s(2, 1), s(3, 1))

    def test_associative(self):
        perms = weyl.all_perms(3)
        for a, b, c in itertools.product(perms[:4], perms[:4], perms[:4]):
            assert weyl.multiply(weyl.multiply(a, b), c) == \
                weyl.multiply(a, weyl.multiply(b, c))


class TestLength:
    def test_identity(self):
        assert weyl.length(weyl.identity(3)) == 0

    def test_231(self):
        assert weyl.length((2, 3, 1)) == 2

    def test_longest(self):
        assert weyl.length(weyl.longest_element(4)) == 6


class TestLongestElement:
    def test_n2(self):
        assert weyl.longest_element(2) == (2, 1)

    def test_n3(self):
        assert weyl.longest_element(3) == (3, 2, 1)

    def test_involution(self):
        w0 = weyl.longest_element(4)
        assert weyl.multiply(w0, w0) == weyl.identity(4)

    def test_length_complement(self):
        # l(w0 w) + l(w) = l(w0) for every w
        for n in (2, 3, 4):
            w0 = weyl.longest_element(n)
            for w in weyl.all_perms(n):
                assert weyl.length(weyl.multiply(w0, w)) + weyl.length(w) \
                    == weyl.length(w0)


class TestReducedWord:
    def test_identity(self):
        assert weyl.reduced_word(weyl.identity(3)) == ()

    def test_simple(self):
        assert weyl.reduced_word(s(3, 1)) == (1,)

    def test_w0_smallest_descent(self):
        word = weyl.reduced_word(weyl.longest_element(3))
        assert len(word) == 3
        assert weyl.word_to_perm(3, word) == (3, 2, 1)
        assert word == (1, 2, 1)

    def test_reduced_and_correct(self):
        for n in (2, 3, 4):
            for w in weyl.all_perms(n):
                word = weyl.reduced_word(w)
                assert len(word) == weyl.length(w)
                assert weyl.word_to_perm(n, word) == w

    def test_all_reduced_words(self):
        w0 = weyl.longest_element(3)
        words = list(weyl.all_reduced_words(w0))
        assert sorted(words) == [(1, 2, 1), (2, 1, 2)]

    def test_all_reduced_words_rank_bound(self):
        # refused before the first word: w0 has 1,100,742,656 at n = 7
        with pytest.raises(RankTooLarge):
            next(weyl.all_reduced_words(weyl.longest_element(weyl.MAX_RANK + 1)))


class TestBruhatOrder:
    def test_identity_below_all(self):
        for w in weyl.all_perms(3):
            assert weyl.bruhat_leq(weyl.identity(3), w)

    def test_incomparable_simples(self):
        assert not weyl.bruhat_leq(s(3, 1), s(3, 2))

    def test_s1_below_s1s2(self):
        assert weyl.bruhat_leq(s(3, 1), weyl.multiply(s(3, 1), s(3, 2)))

    def test_agrees_with_subword_oracle(self):
        for n in (2, 3, 4):
            for u in weyl.all_perms(n):
                for w in weyl.all_perms(n):
                    assert weyl.bruhat_leq(u, w) == subword_leq(u, w), (u, w)

    def test_agrees_with_dominance_oracle_n5(self):
        perms = weyl.all_perms(5)
        tables = {w: dominance_table(w) for w in perms}
        for u in perms:
            for w in perms:
                expected = all(a <= b for a, b in zip(tables[u], tables[w]))
                assert weyl.bruhat_leq(u, w) == expected, (u, w)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_packed_key_matches_the_unpacked_criterion(self, n):
        perms = weyl.all_perms(n)
        for u in perms:
            for w in perms:
                assert weyl.bruhat_leq(u, w) == ref_bruhat_leq(u, w), (u, w)

    @pytest.mark.parametrize("n", [7, 8])
    def test_packed_key_matches_on_random_pairs(self, n):
        # fields are 4 bits wide for n = 4..7 and 5 bits from n = 8; each
        # u is the Demazure product of a subword of w, so u <= w
        rng = random.Random(70 + n)
        verdicts = set()
        for _ in range(300):
            w = tuple(rng.sample(range(1, n + 1), n))
            u = weyl.demazure_product(
                n, [i for i in weyl.reduced_word(w) if rng.random() < 0.7])
            other = tuple(rng.sample(range(1, n + 1), n))
            assert weyl.bruhat_leq(u, w)
            for a, b in ((u, w), (w, u), (other, w)):
                verdicts.add(weyl.bruhat_leq(a, b))
                assert weyl.bruhat_leq(a, b) == ref_bruhat_leq(a, b), (a, b)
        assert verdicts == {True, False}

    def test_rank_mismatch(self):
        for u, w in ((s(2, 1), s(3, 1)), (weyl.identity(3), weyl.identity(4)),
                     ((), (1,))):
            with pytest.raises(RankMismatch):
                weyl.bruhat_leq(u, w)
            with pytest.raises(RankMismatch):
                weyl.bruhat_leq(w, u)

    def test_antisymmetric(self):
        for u in weyl.all_perms(3):
            for w in weyl.all_perms(3):
                if u != w:
                    assert not (weyl.bruhat_leq(u, w) and weyl.bruhat_leq(w, u))


class TestAllPerms:
    def test_rank_bound(self, monkeypatch):
        # refused before any permutation is built: there are n! of them
        def refuse(*args):
            raise AssertionError("permutations built above the rank bound")

        monkeypatch.setattr(weyl.itertools, "permutations", refuse)
        for n in (weyl.MAX_RANK + 1, 16):
            with pytest.raises(RankTooLarge):
                weyl.all_perms(n)
        monkeypatch.undo()
        assert len(weyl.all_perms(weyl.MAX_RANK)) == math.factorial(weyl.MAX_RANK)


class TestBruhatPairs:
    def test_n2(self):
        assert len(weyl.bruhat_pairs(2)) == 3

    def test_n3(self):
        assert len(weyl.bruhat_pairs(3)) == 19

    def test_n4_matches_oracle(self):
        oracle = sum(
            1 for u in weyl.all_perms(4) for w in weyl.all_perms(4)
            if subword_leq(u, w)
        )
        assert len(weyl.bruhat_pairs(4)) == oracle

    # OEIS A007767: the number of Bruhat-comparable pairs in S_n
    @pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 19), (4, 213), (5, 3781)])
    def test_count_matches_oeis(self, n, count):
        assert len(weyl.bruhat_pairs(n)) == count

    # the tableau test must list the brute-force pairs in the brute-force order
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_order_matches_dominance_oracle(self, n):
        perms = weyl.all_perms(n)
        tables = {w: dominance_table(w) for w in perms}
        expected = tuple(
            (u, w) for u in perms for w in perms
            if all(a <= b for a, b in zip(tables[u], tables[w]))
        )
        assert weyl.bruhat_pairs(n) == expected

    def test_rank_bound(self):
        with pytest.raises(RankTooLarge):
            weyl.bruhat_pairs(9)

    # the census walks the pairs lazily, in the order of the held tuple;
    # OEIS A007767 counts them
    @pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 19), (4, 213),
                                          (5, 3781), (6, 98407)])
    def test_lazy_pairs_match(self, n, count):
        pairs = tuple(weyl.iter_bruhat_pairs(n))
        assert pairs == weyl.bruhat_pairs(n) and len(pairs) == count

    def test_lazy_rank_bound(self):
        with pytest.raises(RankTooLarge):
            next(weyl.iter_bruhat_pairs(9))


class TestPeel:
    def test_equal_identity_pair(self):
        v, _, _ = weyl.peel(weyl.identity(3), weyl.identity(3))
        assert v == weyl.longest_element(3)

    def test_identity_w0(self):
        v, _, _ = weyl.peel(weyl.identity(3), weyl.longest_element(3))
        assert v == weyl.identity(3)

    def test_not_comparable(self):
        with pytest.raises(NotComparable):
            weyl.peel(s(3, 2), s(3, 1))

    def test_postconditions_exhaustive(self):
        # both length-additivity equations hold and no common ascent remains
        for n in (2, 3, 4):
            for w, wp in weyl.bruhat_pairs(n):
                v, _, _ = weyl.peel(w, wp)
                wv, wpv = weyl.multiply(w, v), weyl.multiply(wp, v)
                assert weyl.length(wv) == weyl.length(w) + weyl.length(v)
                assert weyl.length(wpv) == weyl.length(wp) + weyl.length(v)
                for i in range(1, n):
                    assert not (weyl.is_right_ascent(wv, i)
                                and weyl.is_right_ascent(wpv, i))

    def test_matches_restarting_scan(self):
        for n in (1, 2, 3, 4, 5):
            for w, wp in weyl.bruhat_pairs(n):
                assert weyl.peel(w, wp)[0] == ref_peel(w, wp), (w, wp)

    def test_returns_the_transported_pair(self):
        for n in (1, 2, 3, 4, 5):
            for w, wp in weyl.bruhat_pairs(n):
                v, wv, wpv = weyl.peel(w, wp)
                assert wv == weyl.multiply(w, v), (w, wp)
                assert wpv == weyl.multiply(wp, v), (w, wp)
                # the shared copies, as charts store them
                for p in (v, wv, wpv):
                    assert p is weyl.canonical(p), (w, wp)

    def test_rank_bound(self):
        # refused before the rank's table is built or any key cached
        n = weyl.MAX_RANK + 1
        w, wp = weyl.identity(n), weyl.longest_element(n)

        def sizes():
            return weyl._table.cache_info().currsize, weyl._prefix_key.cache_info().currsize

        before = sizes()
        with pytest.raises(RankTooLarge):
            weyl.peel(w, wp)
        with pytest.raises(RankTooLarge):
            weyl.canonical(w)
        assert sizes() == before

    def test_v_is_the_unique_maximum(self):
        # every v additive with both w and w' is a prefix of the peeled v,
        # so no choice of letter order could peel a different one
        for n in (2, 3, 4):
            perms = weyl.all_perms(n)
            for w, wp in weyl.bruhat_pairs(n):
                v, _, _ = weyl.peel(w, wp)
                for u in perms:
                    if (weyl.length(weyl.multiply(w, u)) == weyl.length(w) + weyl.length(u)
                            and weyl.length(weyl.multiply(wp, u))
                            == weyl.length(wp) + weyl.length(u)):
                        rest = weyl.multiply(weyl.inverse(u), v)
                        assert weyl.length(u) + weyl.length(rest) == weyl.length(v)


class TestCanonical:
    def test_equal_permutations_are_one_object(self):
        for n in range(1, weyl.MAX_RANK + 1):
            for w in weyl.all_perms(n):
                copy = tuple(list(w))
                assert weyl.canonical(copy) == w
                assert weyl.canonical(copy) is weyl.canonical(w)


class TestFindDescentPair:
    def test_rank2(self):
        assert weyl.find_descent_pair(weyl.identity(2), s(2, 1)) == 1

    def test_identity_w0(self):
        assert weyl.find_descent_pair(weyl.identity(3), weyl.longest_element(3)) == 1

    def test_s2_s2s1(self):
        assert weyl.find_descent_pair(s(3, 2), weyl.multiply(s(3, 2), s(3, 1))) == 1

    def test_none_exists(self):
        with pytest.raises(NoDescentPair):
            weyl.find_descent_pair(s(3, 1), s(3, 1))

    # the ascent masks of the rank table against a scan of both permutations,
    # on every pair, comparable or not
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_the_scan(self, n):
        perms = weyl.all_perms(n)
        for u in perms:
            for w in perms:
                expected = ref_find_descent_pair(u, w)
                if expected is None:
                    with pytest.raises(NoDescentPair):
                        weyl.find_descent_pair(u, w)
                else:
                    assert weyl.find_descent_pair(u, w) == expected

    def test_rank_bound(self):
        n = weyl.MAX_RANK + 1
        with pytest.raises(RankTooLarge):
            weyl.find_descent_pair(weyl.identity(n), weyl.longest_element(n))


class TestSerialization:
    def test_perm_roundtrip(self):
        assert weyl.perm_from_str("2,3,1") == (2, 3, 1)
        assert weyl.perm_to_str((2, 3, 1)) == "2,3,1"
