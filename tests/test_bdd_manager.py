"""Unit tests for the BDD manager: construction, operators, canonicity."""

import pytest

from repro.bdd import BDD, BudgetExceededError, Function


class TestConstants:
    def test_true_false_distinct(self, manager):
        assert manager.true.is_true
        assert manager.false.is_false
        assert not manager.true.equiv(manager.false)

    def test_negation_of_constants(self, manager):
        assert (~manager.true).is_false
        assert (~manager.false).is_true

    def test_constants_share_terminal_node(self, manager):
        # Complement edges: False is the complemented edge to the same node.
        assert manager.true.edge ^ 1 == manager.false.edge

    def test_is_constant(self, manager):
        assert manager.true.is_constant
        assert manager.false.is_constant
        assert not manager.var("a").is_constant


class TestVariables:
    def test_new_var_then_lookup(self):
        mgr = BDD()
        x = mgr.new_var("x")
        assert mgr.var("x").equiv(x)
        assert x.top_var == "x"

    def test_duplicate_name_rejected(self):
        mgr = BDD()
        mgr.new_var("x")
        with pytest.raises(ValueError):
            mgr.new_var("x")

    def test_levels_follow_creation_order(self):
        mgr = BDD()
        for index, name in enumerate(["p", "q", "r"]):
            mgr.new_var(name)
            assert mgr.level_of(name) == index
        assert mgr.var_names == ("p", "q", "r")
        assert mgr.name_of_level(1) == "q"

    def test_var_at_level(self, manager):
        assert manager.var_at_level(0).equiv(manager.var("a"))
        with pytest.raises(IndexError):
            manager.var_at_level(99)

    def test_num_vars(self, manager):
        assert manager.num_vars == 6

    def test_unknown_variable(self, manager):
        with pytest.raises(KeyError):
            manager.var("nope")


class TestCanonicity:
    def test_same_function_same_edge(self, manager):
        a, b = manager.var("a"), manager.var("b")
        left = ~(a & b)
        right = ~a | ~b
        assert left.edge == right.edge  # pointer equality, not just equiv

    def test_negation_is_involution(self, manager):
        f = manager.var("a") ^ manager.var("c")
        assert (~~f).edge == f.edge

    def test_complement_edges_make_negation_free(self, manager):
        f = (manager.var("a") & manager.var("b")) | manager.var("c")
        before = manager.num_nodes_allocated
        g = ~f
        assert manager.num_nodes_allocated == before  # no new nodes
        assert g.edge == f.edge ^ 1

    def test_then_edge_always_regular(self, manager):
        # Walk every allocated node and check the canonical form.
        f = (manager.var("a") ^ manager.var("b")) | ~manager.var("c")
        _ = f  # allocate something interesting
        for node in range(1, manager.num_nodes_allocated):
            assert manager._high[node] & 1 == 0

    def test_redundant_node_never_created(self, manager):
        a = manager.var("a")
        same = manager.ite(a, manager.true, manager.true)
        assert same.is_true


class TestOperators:
    def test_and_or_xor_against_semantics(self, manager):
        a, b = manager.var("a"), manager.var("b")
        for x in (False, True):
            for y in (False, True):
                env = {"a": x, "b": y}
                assert (a & b).evaluate(env) == (x and y)
                assert (a | b).evaluate(env) == (x or y)
                assert (a ^ b).evaluate(env) == (x != y)
                assert a.implies(b).evaluate(env) == ((not x) or y)
                assert a.iff(b).evaluate(env) == (x == y)

    def test_absorption_identities(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert (a & (a | b)).equiv(a)
        assert (a | (a & b)).equiv(a)

    def test_excluded_middle(self, manager):
        a = manager.var("a")
        assert (a | ~a).is_true
        assert (a & ~a).is_false

    def test_ite_selects(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        f = manager.ite(a, b, c)
        assert f.cofactor("a", True).equiv(b)
        assert f.cofactor("a", False).equiv(c)

    def test_conj_disj_empty(self, manager):
        assert manager.conj([]).is_true
        assert manager.disj([]).is_false

    def test_conj_disj_many(self, manager):
        vs = [manager.var(n) for n in "abc"]
        assert manager.conj(vs).equiv(vs[0] & vs[1] & vs[2])
        assert manager.disj(vs).equiv(vs[0] | vs[1] | vs[2])

    def test_mixing_managers_rejected(self, manager):
        other = BDD()
        x = other.new_var("x")
        with pytest.raises(ValueError):
            _ = manager.var("a") & x

    def test_bool_is_ambiguous(self, manager):
        with pytest.raises(TypeError):
            bool(manager.var("a"))

    def test_entails(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert (a & b).entails(a)
        assert not a.entails(a & b)

    def test_is_complement_of(self, manager):
        a = manager.var("a")
        assert a.is_complement_of(~a)
        assert not a.is_complement_of(a)


class TestQuantifiers:
    def test_exists_drops_variable(self, manager):
        a, b = manager.var("a"), manager.var("b")
        f = (a & b).exists(["a"])
        assert f.equiv(b)
        assert "a" not in f.support()

    def test_forall_conjunction_semantics(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert (a | b).forall(["a"]).equiv(b)
        assert (a | b).exists(["a"]).is_true

    def test_quantifier_duality(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        f = (a & b) | (b ^ c)
        assert f.exists(["b"]).equiv(~((~f).forall(["b"])))

    def test_quantify_empty_set(self, manager):
        f = manager.var("a") & manager.var("b")
        assert f.exists([]).equiv(f)
        assert f.forall([]).equiv(f)

    def test_multi_variable_quantification(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        f = (a & b) | c
        assert f.exists(["a", "b"]).is_true
        assert f.forall(["a", "b"]).equiv(c)

    def test_and_exists_matches_composition(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        f = a.iff(b)
        g = (a & c) | (b & ~c)
        assert f.and_exists(g, ["a"]).equiv((f & g).exists(["a"]))


class TestComposeRename:
    def test_compose_single(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        f = a & c
        assert f.compose({"a": b | c}).equiv((b | c) & c)

    def test_compose_simultaneous_not_sequential(self, manager):
        # Swapping a and b must be simultaneous.
        a, b = manager.var("a"), manager.var("b")
        f = a & ~b
        swapped = f.compose({"a": b, "b": a})
        assert swapped.equiv(b & ~a)

    def test_rename_disjoint(self, manager):
        a, b, d = manager.var("a"), manager.var("b"), manager.var("d")
        f = a & b
        g = f.rename({"a": "d"})
        assert g.equiv(d & b)

    def test_compose_constant_target(self, manager):
        a, b = manager.var("a"), manager.var("b")
        f = a ^ b
        assert f.compose({"a": manager.true}).equiv(~b)


class TestBudgets:
    def test_node_budget_enforced(self):
        mgr = BDD(max_nodes=20)
        vars_ = [mgr.new_var(f"x{i}") for i in range(12)]
        with pytest.raises(BudgetExceededError) as excinfo:
            acc = mgr.false
            for i in range(0, 12, 2):
                acc = acc | (vars_[i] ^ vars_[i + 1])
        assert excinfo.value.kind == "node"

    def test_time_budget_enforced(self):
        mgr = BDD(time_limit=0.0)
        vars_ = [mgr.new_var(f"x{i}") for i in range(28)]
        with pytest.raises(BudgetExceededError) as excinfo:
            # A known-exponential function (xor ladder across distant
            # variables) guarantees enough allocation to hit the
            # periodic deadline check.
            acc = mgr.true
            for i in range(14):
                acc = acc & (vars_[i] ^ vars_[i + 14])
        assert excinfo.value.kind == "time"

    def test_peak_nodes_monotone(self, manager):
        before = manager.peak_nodes
        _ = manager.var("a") ^ manager.var("b")
        assert manager.peak_nodes >= before

    def test_clear_caches_keeps_functions_valid(self, manager):
        a, b = manager.var("a"), manager.var("b")
        f = a & b
        manager.clear_caches()
        assert (f | ~f).is_true
        assert (a & b).edge == f.edge


class TestClearCaches:
    def test_clear_caches_counts_compose_entries(self):
        # The eviction tally must include in-flight compose caches
        # (they only exist mid-operation, so stage one directly).
        manager = BDD()
        manager._ite_cache.clear()
        manager._quant_cache.clear()
        manager._andex_cache.clear()
        manager._restrict_cache.clear()
        manager._constrain_cache.clear()
        manager._compose_caches[1] = {3: 0, 5: 1, 7: 0}
        before = manager.stats()["cache_evictions"]
        manager.clear_caches()
        evicted = manager.stats()["cache_evictions"] - before
        assert evicted == 3
        assert not manager._compose_caches


class TestStructuralQueries:
    def test_support(self, manager):
        a, c = manager.var("a"), manager.var("c")
        assert (a ^ c).support() == {"a", "c"}
        assert manager.true.support() == frozenset()

    def test_size_single_variable(self, manager):
        # One decision node plus the terminal.
        assert manager.var("a").size() == 2

    def test_size_constant(self, manager):
        assert manager.true.size() == 1

    def test_evaluate_requires_support(self, manager):
        f = manager.var("a") & manager.var("b")
        with pytest.raises(KeyError):
            f.evaluate({"a": True})

    def test_cube(self, manager):
        cube = manager.cube({"a": True, "c": False})
        assert cube.evaluate({"a": True, "b": False, "c": False})
        assert not cube.evaluate({"a": True, "b": False, "c": True})
        assert cube.size() == 3  # two literals + terminal

    def test_repr_smoke(self, manager):
        assert "True" in repr(manager.true)
        assert "top=" in repr(manager.var("a") & manager.var("b"))

    def test_cofactor_below_root(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        f = (a & b) | (~a & c)
        assert f.cofactor("c", True).equiv(a.implies(b) | ~a)
        assert f.cofactor("b", False).equiv(~a & c)
        assert f.cofactor("f", True).equiv(f)  # not in support
