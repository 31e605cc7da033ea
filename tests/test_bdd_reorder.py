"""Tests for the early-exit checks ``intersects`` and ``entails``."""

from hypothesis import given, settings

from repro.bdd import BDD

from conftest import ast_strategy, build_ast

NAMES = ("a", "b", "c", "d")


def fresh_manager():
    mgr = BDD()
    for name in NAMES:
        mgr.new_var(name)
    return mgr


class TestEarlyExitChecks:
    @given(ast1=ast_strategy(NAMES, max_leaves=8),
           ast2=ast_strategy(NAMES, max_leaves=8))
    @settings(max_examples=100, deadline=None)
    def test_intersects_matches_conjunction(self, ast1, ast2):
        mgr = fresh_manager()
        f = build_ast(ast1, mgr)
        g = build_ast(ast2, mgr)
        assert f.intersects(g) == (not (f & g).is_false)

    @given(ast1=ast_strategy(NAMES, max_leaves=8),
           ast2=ast_strategy(NAMES, max_leaves=8))
    @settings(max_examples=100, deadline=None)
    def test_entails_matches_implication(self, ast1, ast2):
        mgr = fresh_manager()
        f = build_ast(ast1, mgr)
        g = build_ast(ast2, mgr)
        assert f.entails(g) == f.implies(g).is_true

    def test_intersects_allocates_nothing_on_witness(self):
        mgr = fresh_manager()
        f = mgr.var("a")
        g = mgr.var("b")
        before = mgr.num_nodes_allocated
        assert f.intersects(g)
        assert mgr.num_nodes_allocated == before
