"""Tests for conjunction evaluation: Figure 1 greedy and Theorem 2."""

import itertools
import random
import sys

import pytest

from repro.bdd import BDD, shared_size
from repro.iclist import ConjList, EvaluationStats, apply_cover, \
    greedy_evaluate, matching_evaluate, optimal_pairwise_cover

from conftest import random_function


class TestGreedy:
    @pytest.mark.parametrize("seed", range(10))
    def test_preserves_semantics(self, manager, seed):
        rng = random.Random(seed)
        fns = [random_function(manager, "abcdef", rng) for _ in range(5)]
        cl = ConjList(manager, fns)
        explicit = cl.evaluate_explicitly()
        greedy_evaluate(cl)
        assert cl.evaluate_explicitly().equiv(explicit)

    def test_merges_redundant_pair(self, manager):
        a, b = manager.var("a"), manager.var("b")
        # (a|b) and (a|~b) conjoin to just a — clearly profitable.
        cl = ConjList(manager, [a | b, a | ~b])
        stats = greedy_evaluate(cl)
        assert stats.merges == 1
        assert len(cl) == 1
        assert cl[0].equiv(a)

    def test_keeps_unprofitable_pairs(self):
        # Two constraints over disjoint interleaved variables: their
        # product is bigger than the threshold allows.
        mgr = BDD()
        bits_a, bits_b = [], []
        for i in range(6):
            bits_a.append(mgr.new_var(f"a{i}"))
            bits_b.append(mgr.new_var(f"b{i}"))
        from repro.expr import BitVec
        va, vb = BitVec(bits_a), BitVec(bits_b)
        cl = ConjList(mgr, [va.ule_const(37), vb.ule_const(37)])
        stats = greedy_evaluate(cl, grow_threshold=1.2)
        assert len(cl) == 2
        assert stats.merges == 0

    def test_threshold_one_is_conservative(self, manager):
        rng = random.Random(3)
        fns = [random_function(manager, "abcdef", rng) for _ in range(4)]
        cl = ConjList(manager, fns)
        before = cl.shared_size()
        greedy_evaluate(cl, grow_threshold=1.0)
        assert cl.shared_size() <= before + 1  # never grows past ratio 1

    def test_huge_threshold_merges_everything(self, manager):
        rng = random.Random(4)
        fns = [random_function(manager, "abcde", rng) for _ in range(4)]
        cl = ConjList(manager, fns)
        explicit = cl.evaluate_explicitly()
        greedy_evaluate(cl, grow_threshold=1e9)
        assert len(cl) <= 1
        assert cl.evaluate_explicitly().equiv(explicit)

    def test_stats_ratios_recorded(self, manager):
        a, b = manager.var("a"), manager.var("b")
        cl = ConjList(manager, [a | b, a | ~b])
        stats = greedy_evaluate(cl)
        assert len(stats.ratios) == stats.merges == 1
        assert stats.ratios[0] <= 1.5

    @pytest.mark.parametrize("seed", range(6))
    def test_bounded_variant_same_semantics(self, manager, seed):
        rng = random.Random(seed + 40)
        fns = [random_function(manager, "abcdef", rng) for _ in range(5)]
        explicit = manager.conj(fns)
        cl = ConjList(manager, fns)
        stats = greedy_evaluate(cl, use_bounded=True, bound_factor=2.0)
        assert cl.evaluate_explicitly().equiv(explicit)
        assert stats.pairs_built + stats.pairs_aborted > 0

    def test_short_lists_untouched(self, manager):
        cl = ConjList(manager, [manager.var("a")])
        stats = greedy_evaluate(cl)
        assert stats.merges == 0 and len(cl) == 1


def brute_force_cover_cost(fns):
    """Minimum additive cost over all covers with subsets of size <= 2."""
    n = len(fns)
    cost = {}
    for i in range(n):
        cost[(i,)] = fns[i].size()
    for i, j in itertools.combinations(range(n), 2):
        cost[(i, j)] = (fns[i] & fns[j]).size()
    best = None
    subsets = list(cost)
    for r in range(1, n + 1):
        for family in itertools.combinations(subsets, r):
            covered = set()
            for subset in family:
                covered.update(subset)
            if len(covered) == n:
                total = sum(cost[s] for s in family)
                if best is None or total < best:
                    best = total
    return best


class TestMatchingCover:
    @pytest.mark.parametrize("seed", range(12))
    def test_optimal_vs_brute_force(self, manager, seed):
        rng = random.Random(seed)
        n = rng.choice([3, 4, 5])
        fns = [random_function(manager, "abcdef", rng) for _ in range(n)]
        cl = ConjList(manager, fns)
        if len(cl) != n:
            return  # normalization merged something; skip this draw
        cover = optimal_pairwise_cover(cl)
        assert cover.cost == brute_force_cover_cost(cl.conjuncts)

    @pytest.mark.parametrize("seed", range(8))
    def test_apply_cover_preserves_semantics(self, manager, seed):
        rng = random.Random(seed + 5)
        fns = [random_function(manager, "abcde", rng) for _ in range(4)]
        cl = ConjList(manager, fns)
        explicit = cl.evaluate_explicitly()
        cover = optimal_pairwise_cover(cl)
        applied = apply_cover(cl, cover)
        assert applied.evaluate_explicitly().equiv(explicit)

    def test_cover_covers_everything(self, manager):
        rng = random.Random(9)
        fns = [random_function(manager, "abcdef", rng) for _ in range(5)]
        cl = ConjList(manager, fns)
        cover = optimal_pairwise_cover(cl)
        covered = set()
        for subset in cover.subsets:
            covered.update(subset)
        assert covered == set(range(len(cl)))

    def test_trivial_sizes(self, manager):
        empty = ConjList(manager)
        assert optimal_pairwise_cover(empty).subsets == ()
        single = ConjList(manager, [manager.var("a")])
        cover = optimal_pairwise_cover(single)
        assert cover.subsets == ((0,),)
        assert cover.cost == manager.var("a").size()

    def test_missing_networkx_names_the_extra(self, manager, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)
        with pytest.raises(ImportError, match=r"repro\[cover\]"):
            optimal_pairwise_cover(ConjList(manager, [manager.var("a")]))

    def test_matching_evaluate_in_place(self, manager):
        a, b = manager.var("a"), manager.var("b")
        cl = ConjList(manager, [a | b, a | ~b, b])
        explicit = cl.evaluate_explicitly()
        matching_evaluate(cl)
        assert cl.evaluate_explicitly().equiv(explicit)
