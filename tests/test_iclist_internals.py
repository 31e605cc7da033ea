"""Deeper tests of the iclist internals: incremental pair reuse,
evaluation statistics, and multi-merge sequences."""

import random

import pytest

from repro.bdd import BDD, Function
from repro.iclist import ConjList, EvaluationStats, greedy_evaluate

from conftest import random_function


def _record_ands(monkeypatch, manager):
    """Log ``(left edge, right edge, built)`` for every ``&`` call;
    ``built`` is whether the product missed the ITE table."""
    calls = []
    original = Function.__and__

    def recording_and(self, other):
        misses = manager._ite_misses
        product = original(self, other)
        calls.append((self.edge, other.edge, manager._ite_misses > misses))
        return product

    monkeypatch.setattr(Function, "__and__", recording_and)
    return calls


class TestIncrementalPairReuse:
    def test_surviving_pairs_reused_across_merge_rounds(self, manager,
                                                        monkeypatch):
        """After a merge, pairs among surviving conjuncts must be table
        hits — only the O(n) pairs touching the new product are built."""
        a, b, c, d = (manager.var(n) for n in "abcd")
        # (a|b) and (a|~b) merge profitably to a; c^d and ~c|~d survive.
        survivors = {(c ^ d).edge, (~c | ~d).edge}
        cl = ConjList(manager, [a | b, a | ~b, c ^ d, ~c | ~d])
        calls = _record_ands(monkeypatch, manager)
        stats = greedy_evaluate(cl)
        assert stats.merges >= 1
        # Round 2 re-prices the survivors' pair without rebuilding it.
        priced = [built for left, right, built in calls
                  if {left, right} == survivors]
        assert len(priced) >= 2
        assert priced[0] and not any(priced[1:])

    def test_pairs_built_bounded_by_fresh_pairs(self, manager,
                                                monkeypatch):
        """Products built can never exceed distinct pairs seen:
        n*(n-1)/2 initial pairs plus n-1 per merge."""
        rng = random.Random(13)
        fns = [random_function(manager, "abcdef", rng) for _ in range(6)]
        cl = ConjList(manager, fns)
        n = len(cl)
        calls = _record_ands(monkeypatch, manager)
        stats = greedy_evaluate(cl, grow_threshold=1e6)
        ceiling = n * (n - 1) // 2 + stats.merges * (n - 1)
        built = sum(built for _left, _right, built in calls)
        assert built <= ceiling
        # Every round prices every pair; the repeats were table hits.
        assert built < stats.pairs_built


class TestMultiMergeSequences:
    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_merges_stay_consistent(self, manager, seed):
        """Force many merges and verify the table bookkeeping never
        corrupts the semantics (huge threshold merges everything)."""
        rng = random.Random(seed)
        fns = [random_function(manager, "abcdef", rng, num_cubes=2)
               for _ in range(7)]
        cl = ConjList(manager, fns)
        explicit = cl.evaluate_explicitly()
        stats = greedy_evaluate(cl, grow_threshold=1e6)
        assert len(cl) <= 1
        assert cl.evaluate_explicitly().equiv(explicit)
        assert stats.merges >= len(fns) - 2  # n-1 merges minus dedup slack

    def test_merge_count_matches_length_drop(self, manager):
        rng = random.Random(42)
        fns = [random_function(manager, "abcde", rng) for _ in range(5)]
        cl = ConjList(manager, fns)
        start = len(cl)
        stats = greedy_evaluate(cl, grow_threshold=2.0)
        # Each merge removes exactly one list entry (normalization may
        # remove more if products collapse to constants/duplicates).
        assert len(cl) <= start - stats.merges


class TestEvaluationStats:
    def test_counters_accumulate_across_calls(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        stats = EvaluationStats()
        cl1 = ConjList(manager, [a | b, a | ~b])
        greedy_evaluate(cl1, stats=stats)
        first = stats.pairs_built
        cl2 = ConjList(manager, [b | c, b | ~c])
        greedy_evaluate(cl2, stats=stats)
        assert stats.pairs_built > first
        assert stats.merges == 2

    def test_bounded_abort_counted(self):
        mgr = BDD()
        vars_ = [mgr.new_var(f"x{i}") for i in range(16)]
        # Both conjuncts span all 16 variables at distance 8, so the
        # bounded product has no early constant cut-offs to hide in.
        f = mgr.true
        g = mgr.true
        for i in range(8):
            f = f & (vars_[i] ^ vars_[i + 8])
            g = g & (vars_[i] | vars_[i + 8])
        cl = ConjList(mgr, [f, g])
        stats = greedy_evaluate(cl, use_bounded=True, bound_factor=1e-4)
        assert stats.pairs_aborted >= 1
        assert len(cl) == 2  # nothing merged; list unchanged
