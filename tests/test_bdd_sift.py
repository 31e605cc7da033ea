"""Tests for the in-place swap primitive and Rudell sifting.

The key contract under test: a reordering session may relink, kill,
and collect nodes, but every live :class:`Function` handle must keep
denoting the same boolean function, and the manager must stay
internally consistent (unique table, member lists, canonical form) at
every swap boundary — including when a budget aborts a sift halfway.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, BudgetExceededError, order_cost, sift
from repro.bdd.sizing import SizeMemo
from repro.core import Options, verify
from repro.models import typed_fifo
from repro.obs.probe import NULL_PROBE, Probe
from repro.trace import REORDER, RecordingTracer

from conftest import all_assignments, ast_strategy, build_ast, eval_ast, \
    random_function

NAMES = ("a", "b", "c", "d")


def fresh_manager(names=NAMES):
    mgr = BDD()
    for name in names:
        mgr.new_var(name)
    return mgr


def check_consistency(mgr):
    """Unique table, member lists, and canonical form all agree."""
    seen = set()
    for (level, high, low), node in mgr._unique.items():
        assert mgr._level[node] == level
        assert mgr._high[node] == high
        assert mgr._low[node] == low
        assert high & 1 == 0, "stored high edge must be regular"
        assert high != low, "redundant node in the table"
        assert mgr._level[high >> 1] > level or (high >> 1) == 0
        assert mgr._level[low >> 1] > level or (low >> 1) == 0
        seen.add(node)
    member_nodes = set()
    for level, members in enumerate(mgr._level_members):
        for node in members:
            assert mgr._level[node] == level
            member_nodes.add(node)
    assert member_nodes == seen, "member lists out of sync with the table"


def pairing_function(mgr, width=4):
    """x0&y0 | x1&y1 | ... — exponential blocked, linear interleaved."""
    result = mgr.false
    for k in range(width):
        result = result | (mgr.var(f"x{k}") & mgr.var(f"y{k}"))
    return result


class TestSwapLevels:
    @given(ast=ast_strategy(NAMES, max_leaves=10),
           swaps=st.lists(st.integers(min_value=0, max_value=2),
                          max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_denotation_preserved(self, ast, swaps):
        mgr = fresh_manager()
        fn = build_ast(ast, mgr)
        for i in swaps:
            mgr.swap_levels(i)
            check_consistency(mgr)
        for assignment in all_assignments(NAMES):
            assert fn.evaluate(assignment) == eval_ast(ast, assignment)

    def test_swaps_match_scratch_rebuild_cost(self):
        """Sequence of random swaps lands on order_cost's ground truth."""
        mgr = fresh_manager()
        rng = random.Random(7)
        fns = [random_function(mgr, NAMES, rng) for _ in range(4)]
        for _ in range(20):
            mgr.swap_levels(rng.randrange(len(NAMES) - 1))
        mgr.garbage_collect()
        assert mgr.count_nodes(fns) == order_cost(fns, list(mgr.var_names))

    def test_handles_and_ids_stable(self):
        """Nodes are relinked, never renumbered: edges stay valid."""
        mgr = fresh_manager()
        rng = random.Random(3)
        fns = [random_function(mgr, NAMES, rng) for _ in range(5)]
        edges = [fn.edge for fn in fns]
        mgr.swap_levels(1)
        mgr.swap_levels(0)
        mgr.swap_levels(2)
        assert [fn.edge for fn in fns] == edges

    def test_var_names_permuted(self):
        mgr = fresh_manager()
        mgr.swap_levels(0)
        assert mgr.var_names == ("b", "a", "c", "d")
        assert mgr.level_of("a") == 1 and mgr.level_of("b") == 0

    def test_canonicity_after_swap(self):
        mgr = fresh_manager()
        f = (mgr.var("a") & mgr.var("b")) | mgr.var("c")
        mgr.swap_levels(0)
        mgr.swap_levels(1)
        g = (mgr.var("a") & mgr.var("b")) | mgr.var("c")
        assert g.edge == f.edge

    def test_epoch_bumped_per_swap(self):
        mgr = fresh_manager()
        _ = mgr.var("a") & mgr.var("b")
        epoch = mgr.gc_epoch
        mgr.swap_levels(0)
        assert mgr.gc_epoch == epoch + 1
        mgr.swap_levels(0)
        assert mgr.gc_epoch == epoch + 2

    def test_bad_index_rejected(self):
        mgr = fresh_manager()
        with pytest.raises(IndexError):
            mgr.swap_levels(-1)
        with pytest.raises(IndexError):
            mgr.swap_levels(len(NAMES) - 1)

    def test_level_sizes_track_gc(self):
        mgr = fresh_manager()
        rng = random.Random(11)
        keep = random_function(mgr, NAMES, rng)
        for _ in range(20):
            _ = random_function(mgr, NAMES, rng)  # garbage
        mgr.swap_levels(1)
        mgr.garbage_collect()
        # Post-GC the member lists hold exactly the live nodes.
        assert sum(mgr.level_sizes()) + 1 == mgr.num_live_nodes()
        assert keep.size() <= mgr.num_live_nodes()
        check_consistency(mgr)


class TestSift:
    def test_finds_interleaving(self):
        mgr = BDD()
        width = 4
        for k in range(width):
            mgr.new_var(f"x{k}")
        for k in range(width):
            mgr.new_var(f"y{k}")
        fn = pairing_function(mgr, width)
        blocked = fn.size()
        result = sift(mgr)
        assert fn.size() < blocked
        assert fn.size() == 2 * width + 1  # interleaved optimum
        assert result.vars_sifted == 2 * width
        assert result.swaps > 0
        assert result.nodes_after < result.nodes_before
        assert result.aborted is None
        check_consistency(mgr)

    def test_second_pass_stable(self):
        mgr = BDD()
        for k in range(3):
            mgr.new_var(f"x{k}")
        for k in range(3):
            mgr.new_var(f"y{k}")
        fn = pairing_function(mgr, 3)
        sift(mgr)
        settled = fn.size()
        sift(mgr)
        assert fn.size() == settled

    @given(ast=ast_strategy(NAMES, max_leaves=12))
    @settings(max_examples=40, deadline=None)
    def test_denotation_preserved(self, ast):
        mgr = fresh_manager()
        fn = build_ast(ast, mgr)
        mgr.sift()
        check_consistency(mgr)
        for assignment in all_assignments(NAMES):
            assert fn.evaluate(assignment) == eval_ast(ast, assignment)

    def test_cost_matches_scratch_rebuild(self):
        mgr = BDD()
        for k in range(4):
            mgr.new_var(f"x{k}")
        for k in range(4):
            mgr.new_var(f"y{k}")
        fn = pairing_function(mgr)
        mgr.sift()
        assert mgr.count_nodes([fn]) == order_cost([fn],
                                                   list(mgr.var_names))

    def test_stats_and_observer(self):
        mgr = fresh_manager()
        _ = mgr.var("a") & mgr.var("b") | mgr.var("c")
        tracer = RecordingTracer()
        mgr.probe = Probe(mgr, tracer=tracer)
        result = mgr.sift(reason="manual")
        stats = mgr.stats()
        assert stats["reorder_runs"] == 1
        assert stats["reorder_swaps"] == result.swaps
        assert stats["reorder_nodes_before"] == result.nodes_before
        assert stats["reorder_nodes_after"] == result.nodes_after
        seen = tracer.events_of(REORDER)
        assert len(seen) == 1
        assert seen[0]["reason"] == "manual"
        assert seen[0]["swaps"] == result.swaps

    def test_session_bumps_epoch_and_size_memo_recovers(self):
        mgr = fresh_manager()
        f = (mgr.var("a") & mgr.var("b")) ^ mgr.var("d")
        memo = SizeMemo(mgr)
        assert memo.size(f) == f.size()
        epoch = mgr.gc_epoch
        mgr.sift()
        assert mgr.gc_epoch > epoch
        # The epoch guard must invalidate the stale count.
        assert memo.size(f) == f.size()

    def test_budget_abort_leaves_manager_consistent(self):
        mgr = BDD()
        for k in range(5):
            mgr.new_var(f"x{k}")
        for k in range(5):
            mgr.new_var(f"y{k}")
        fn = pairing_function(mgr, 5)
        table = [fn.evaluate(a)
                 for a in all_assignments([f"x{k}" for k in range(5)]
                                          + [f"y{k}" for k in range(5)])]
        mgr.garbage_collect()
        # Below the live size: the first swap boundary must abort.
        mgr.max_nodes = mgr.num_live_nodes() - 4
        with pytest.raises(BudgetExceededError):
            mgr.sift()
        assert not mgr._in_reorder
        assert mgr._sift_refs is None
        check_consistency(mgr)
        mgr.max_nodes = None
        got = [fn.evaluate(a)
               for a in all_assignments([f"x{k}" for k in range(5)]
                                        + [f"y{k}" for k in range(5)])]
        assert got == table
        # Operations still work on the partially reordered manager.
        assert (fn & ~fn).is_false

    def test_trivial_managers(self):
        mgr = BDD()
        assert mgr.sift().swaps == 0
        mgr.new_var("a")
        assert mgr.sift().swaps == 0

    def test_reentrancy_guard(self):
        mgr = fresh_manager()
        mgr._in_reorder = True
        try:
            with pytest.raises(RuntimeError):
                mgr.sift()
        finally:
            mgr._in_reorder = False


class TestMaybeSift:
    def test_noop_unless_armed(self):
        mgr = fresh_manager()
        assert not mgr.maybe_sift()

    def test_fires_past_trigger(self):
        mgr = BDD()
        mgr.auto_sift_trigger = 1.5
        mgr.auto_sift_min_live = 4
        for k in range(4):
            mgr.new_var(f"x{k}")
        for k in range(4):
            mgr.new_var(f"y{k}")
        _ = mgr.var("x0") & mgr.var("y0")
        assert not mgr.maybe_sift()  # establishes the baseline
        baseline = mgr._auto_sift_baseline
        assert baseline is not None
        fn = pairing_function(mgr)
        blocked = fn.size()
        assert mgr.maybe_sift()  # growth well past 1.5x fires a sift
        assert fn.size() < blocked
        assert mgr.stats()["reorder_runs"] == 1
        # Fresh baseline means no immediate re-fire.
        assert not mgr.maybe_sift()

    def test_floor_respected(self):
        mgr = fresh_manager()
        mgr.auto_sift_trigger = 1.1
        mgr.auto_sift_min_live = 10_000
        for _ in range(10):
            _ = random_function(mgr, NAMES, random.Random(1))
        assert not mgr.maybe_sift()  # tiny table never sifts
        assert mgr.stats()["reorder_runs"] == 0


class TestEngineReorder:
    def _problem(self):
        return typed_fifo(depth=2, width=2)

    def test_one_shot_sift(self):
        options = Options(reorder="sift")
        result = verify(self._problem(), "fwd", options)
        assert result.verified
        assert result.reorder_stats["runs"] == 1
        assert result.reorder_stats["vars_sifted"] > 0
        assert result.to_dict()["reorder_stats"]["runs"] == 1

    def test_auto_mode_runs(self):
        options = Options(reorder="auto", reorder_trigger=1.2)
        result = verify(self._problem(), "fwd", options)
        assert result.verified
        assert "runs" in result.reorder_stats

    def test_manager_disarmed_after_run(self):
        problem = self._problem()
        manager = problem.machine.manager
        verify(problem, "fwd", Options(reorder="auto"))
        assert manager.auto_sift_trigger is None
        assert manager.probe is NULL_PROBE

    def test_all_methods_accept_sift(self):
        for method in ("fwd", "bkwd", "ici", "xici"):
            result = verify(self._problem(), method,
                            Options(reorder="sift"))
            assert result.verified, method
            assert result.reorder_stats["runs"] == 1, method

    def test_reorder_trace_event(self):
        tracer = RecordingTracer()
        options = Options(reorder="sift", tracer=tracer)
        result = verify(self._problem(), "xici", options)
        assert result.verified
        events = tracer.events_of(REORDER)
        assert len(events) == 1
        assert events[0]["reason"] == "sift"
        assert events[0]["swaps"] == result.reorder_stats["swaps"]

    def test_options_validation(self):
        with pytest.raises(ValueError):
            Options(reorder="bogus").validate()
        with pytest.raises(ValueError):
            Options(reorder_trigger=1.0).validate()
