"""Manager-wide statistics: counters, flush semantics, run surfacing."""

import pytest

from repro.bdd import BDD, bounded_and
from repro.core import verify

from test_engines import make_fifo_problem


EXPECTED_KEYS = {
    "ite_hits", "ite_misses", "quantify_hits", "quantify_misses",
    "and_exists_hits", "and_exists_misses", "restrict_hits",
    "restrict_misses", "constrain_hits", "constrain_misses",
    "cache_evictions", "cache_flushes", "nodes_created", "nodes_current",
    "nodes_peak", "gc_runs", "gc_freed", "bounded_and_calls",
    "bounded_and_aborts",
}


@pytest.fixture
def mgr():
    manager = BDD()
    for name in "abcdef":
        manager.new_var(name)
    return manager


class TestCounters:
    def test_stats_keys(self, mgr):
        assert set(mgr.stats()) == EXPECTED_KEYS

    def test_ite_hits_and_misses(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        before = mgr.stats()
        _ = a & b
        mid = mgr.stats()
        assert mid["ite_misses"] > before["ite_misses"]
        _ = a & b  # identical op: answered from the ite cache
        after = mgr.stats()
        assert after["ite_hits"] > mid["ite_hits"]
        assert after["ite_misses"] == mid["ite_misses"]

    def test_nodes_created_is_monotone(self, mgr):
        created = mgr.stats()["nodes_created"]
        _ = mgr.var("a") ^ mgr.var("b") ^ mgr.var("c")
        assert mgr.stats()["nodes_created"] > created
        mgr.garbage_collect()
        # Current shrinks; the cumulative creation count does not.
        assert mgr.stats()["nodes_created"] >= created

    def test_restrict_and_constrain_counters(self, mgr):
        f = (mgr.var("a") | mgr.var("b")) & (mgr.var("c") | mgr.var("d"))
        care = mgr.var("a") | mgr.var("c")
        _ = f.restrict(care)
        _ = f.constrain(care)
        stats = mgr.stats()
        assert stats["restrict_misses"] > 0
        assert stats["constrain_misses"] > 0

    def test_quantify_and_andex_counters(self, mgr):
        f = (mgr.var("a") | mgr.var("b")) & (mgr.var("c") | mgr.var("d"))
        g = mgr.var("b") | mgr.var("e")
        _ = f.exists(["a", "b"])
        _ = f.and_exists(g, ["b", "c"])
        stats = mgr.stats()
        assert stats["quantify_misses"] > 0
        assert stats["and_exists_misses"] > 0

    def test_bounded_and_aborts_counted(self, mgr):
        f = (mgr.var("a") | mgr.var("b")) & (mgr.var("c") | mgr.var("d"))
        g = (mgr.var("b") | mgr.var("e")) & (mgr.var("d") | mgr.var("f"))
        assert bounded_and(f, g, 1) is None
        assert bounded_and(f, g, 10_000) is not None
        stats = mgr.stats()
        assert stats["bounded_and_calls"] == 2
        assert stats["bounded_and_aborts"] == 1


class TestFlushSemantics:
    def test_clear_caches_preserves_counters(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        _ = (a & b) | c
        before = mgr.stats()
        assert before["ite_misses"] > 0
        mgr.clear_caches()
        after = mgr.stats()
        assert after["ite_misses"] == before["ite_misses"]
        assert after["ite_hits"] == before["ite_hits"]
        assert after["cache_flushes"] == before["cache_flushes"] + 1
        assert after["cache_evictions"] > before["cache_evictions"]
        # The memo really was dropped: the same op is a fresh miss.
        _ = (a & b) | c
        assert mgr.stats()["ite_misses"] > after["ite_misses"]

    def test_garbage_collect_preserves_counters(self, mgr):
        keep = mgr.var("a") & mgr.var("b")
        _ = mgr.var("c") ^ mgr.var("d")  # becomes garbage
        before = mgr.stats()
        mgr.garbage_collect()
        after = mgr.stats()
        assert after["gc_runs"] == before["gc_runs"] + 1
        assert after["ite_misses"] == before["ite_misses"]
        assert after["nodes_created"] == before["nodes_created"]
        assert after["nodes_peak"] == before["nodes_peak"]
        assert keep.equiv(mgr.var("a") & mgr.var("b"))

    def test_stats_delta(self, mgr):
        before = mgr.stats()
        _ = mgr.var("a") & mgr.var("b")
        delta = BDD.stats_delta(before, mgr.stats())
        assert delta["ite_misses"] >= 1
        # Gauges report the end-of-window value, not a difference.
        assert delta["nodes_current"] == mgr.num_nodes_allocated
        assert delta["nodes_peak"] == mgr.peak_nodes


class TestRunSurfacing:
    def test_verification_result_carries_bdd_stats(self):
        result = verify(make_fifo_problem(), "xici")
        assert result.verified
        assert set(result.bdd_stats) == EXPECTED_KEYS
        assert result.bdd_stats["ite_misses"] > 0
        assert result.bdd_stats["nodes_peak"] > 0
        assert result.extra["evaluation_stats"].pairs_built > 0
        assert "pair_cache_stats" not in result.extra
