"""Pair pricing through the manager's computed tables.

Figure 1 prices every pair in every round with ``count_nodes``, an AND
and a ``size()``.  A pair priced before finds its product in the ITE
table and its node counts in the count table, so a warm run must give
*edge identical* conjunct lists to a run after ``clear_caches()`` on
the same manager, and must build nothing.  Garbage collection
renumbers nodes; ``clear_caches`` (called by every collection) must
drop the count table, so a stale count is impossible, not merely
unlikely.
"""

import random

import pytest

from repro.bdd import BDD
from repro.iclist import ConjList, EvaluationStats, greedy_evaluate
from repro.iclist.evaluate import RATIO_RESERVOIR_CAP

from conftest import random_function


def _random_list(manager, rng, n=5, names="abcdef"):
    return [random_function(manager, names, rng) for _ in range(n)]


def _edges(conjlist):
    return [f.edge for f in conjlist.conjuncts]


class TestEdgeIdenticalResults:
    @pytest.mark.parametrize("seed", range(15))
    def test_cached_matches_uncached(self, manager, seed):
        rng = random.Random(seed)
        fns = _random_list(manager, rng)
        greedy_evaluate(ConjList(manager, fns))
        warm = ConjList(manager, fns)
        greedy_evaluate(warm)
        manager.clear_caches()
        cold = ConjList(manager, fns)
        greedy_evaluate(cold)
        assert _edges(warm) == _edges(cold)

    @pytest.mark.parametrize("seed", range(10))
    def test_warm_cache_matches_and_hits(self, manager, seed, monkeypatch):
        """Re-running on the same list (a fixpoint iterate recurring)
        must hit the tables and still produce identical edges."""
        rng = random.Random(seed + 100)
        fns = _random_list(manager, rng)
        reference = ConjList(manager, fns)
        greedy_evaluate(reference)
        before = manager.stats()

        def no_walk(roots):
            raise AssertionError("a warm run walked a node count")

        monkeypatch.setattr(manager, "_walk_count", no_walk)
        second = ConjList(manager, fns)
        greedy_evaluate(second)
        monkeypatch.undo()
        delta = BDD.stats_delta(before, manager.stats())
        assert _edges(second) == _edges(reference)
        # Every product the warm run needs was built by the cold run.
        assert delta["ite_misses"] == 0
        assert delta["nodes_created"] == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_bounded_variant_matches(self, manager, seed):
        rng = random.Random(seed + 200)
        fns = _random_list(manager, rng)
        greedy_evaluate(ConjList(manager, fns), use_bounded=True,
                        bound_factor=2.0)
        warm = ConjList(manager, fns)
        greedy_evaluate(warm, use_bounded=True, bound_factor=2.0)
        manager.clear_caches()
        cold = ConjList(manager, fns)
        greedy_evaluate(cold, use_bounded=True, bound_factor=2.0)
        assert _edges(warm) == _edges(cold)

    @pytest.mark.parametrize("seed", range(8))
    def test_semantics_preserved_with_cache(self, manager, seed):
        rng = random.Random(seed + 300)
        fns = _random_list(manager, rng)
        cl = ConjList(manager, fns)
        explicit = cl.evaluate_explicitly()
        greedy_evaluate(cl)
        assert cl.evaluate_explicitly().equiv(explicit)


class TestEpochSafety:
    def test_gc_flushes_cache(self, manager):
        rng = random.Random(7)
        fns = _random_list(manager, rng)
        greedy_evaluate(ConjList(manager, fns))
        assert manager._count_cache
        manager.garbage_collect()
        assert not manager._count_cache

    @pytest.mark.parametrize("seed", range(8))
    def test_gc_mid_run_never_stale(self, manager, seed):
        """A collection between evaluations renumbers every edge; the
        next evaluation must not see a count from before it."""
        rng = random.Random(seed + 400)
        fns = _random_list(manager, rng)
        before = ConjList(manager, fns)
        greedy_evaluate(before)
        epoch = manager.gc_epoch
        # Keep only the handles alive, then renumber edges.
        manager.garbage_collect()
        assert manager.gc_epoch == epoch + 1
        post = ConjList(manager, fns)
        explicit = post.evaluate_explicitly()
        greedy_evaluate(post)
        # ``before`` was remapped by the collection: same functions.
        assert _edges(post) == _edges(before)
        assert post.evaluate_explicitly().equiv(explicit)

    def test_auto_gc_during_evaluation_is_safe(self):
        """auto_collect fires at the evaluator's safe point; results
        must still match a GC-free reference run."""
        mgr = BDD()
        for index in range(8):
            mgr.new_var(f"v{index}")
        names = [f"v{index}" for index in range(8)]
        rng = random.Random(11)
        fns = [random_function(mgr, names, rng, num_cubes=4)
               for _ in range(6)]
        explicit = ConjList(mgr, fns).evaluate_explicitly()
        # Force a collection on every safe point.
        mgr.auto_gc_min_nodes = 1
        mgr._gc_trigger = None
        runs = mgr.stats()["gc_runs"]
        victim = ConjList(mgr, fns)
        greedy_evaluate(victim)
        mgr.auto_gc_min_nodes = None
        # Edges were renumbered by the collections; compare semantics.
        assert victim.evaluate_explicitly().equiv(explicit)
        assert mgr.stats()["gc_runs"] > runs


class TestBoundsAndStats:
    def test_size_memo_flushes_on_gc(self, manager):
        fn = manager.var("a") | manager.var("b")
        assert fn.size() == 3
        assert manager._count_cache == {(fn.edge >> 1,): 3}
        # Complement bits and root order never change a count.
        assert (~fn).size() == 3
        pair = manager.count_nodes([fn, manager.var("c")])
        assert manager.count_nodes([manager.var("c"), ~fn]) == pair
        assert len(manager._count_cache) == 2
        manager.garbage_collect()
        assert not manager._count_cache
        assert fn.size() == 3

    def test_larger_root_sets_are_walked(self, manager):
        roots = [manager.var(name) for name in "abc"]
        assert manager.count_nodes(roots) == 4
        assert not manager._count_cache


class TestRatioReservoir:
    def test_bounded_growth(self):
        stats = EvaluationStats()
        total = 10_000
        for index in range(total):
            stats.record_ratio(1.0 + (index % 50) / 100.0)
        assert len(stats.ratios) <= RATIO_RESERVOIR_CAP
        assert stats.ratio_count == total
        summary = stats.ratio_summary()
        assert summary["count"] == total
        assert summary["min"] == 1.0
        assert summary["max"] == 1.49
        assert 1.0 <= summary["mean"] <= 1.49

    def test_small_runs_keep_every_ratio(self):
        stats = EvaluationStats()
        values = [1.1, 1.2, 1.3]
        for value in values:
            stats.record_ratio(value)
        assert stats.ratios == values

    def test_empty_summary(self):
        assert EvaluationStats().ratio_summary()["count"] == 0
