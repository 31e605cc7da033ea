"""Shared test utilities: expression ASTs, oracles, random machines.

The test suite leans on three oracles:

* exhaustive truth-table comparison for BDD operations (<= 6 vars),
* explicit-state enumeration (:mod:`repro.explicit`) for machines,
* explicit conjunction/disjunction BDDs for the implicit-list
  algorithms (which must never change the denoted set).
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, List, Sequence, Tuple

import pytest
from hypothesis import strategies as st

from repro.bdd import BDD, Function
from repro.expr import BitVec
from repro.fsm import Builder, Machine


# ---------------------------------------------------------------------------
# Expression ASTs (shared by hypothesis strategies and seeded-random tests)
# ---------------------------------------------------------------------------

def eval_ast(ast, assignment: Dict[str, bool]) -> bool:
    """Evaluate an expression AST under an assignment."""
    kind = ast[0]
    if kind == "var":
        return assignment[ast[1]]
    if kind == "const":
        return ast[1]
    if kind == "not":
        return not eval_ast(ast[1], assignment)
    if kind == "and":
        return eval_ast(ast[1], assignment) and eval_ast(ast[2], assignment)
    if kind == "or":
        return eval_ast(ast[1], assignment) or eval_ast(ast[2], assignment)
    if kind == "xor":
        return eval_ast(ast[1], assignment) != eval_ast(ast[2], assignment)
    if kind == "ite":
        return (eval_ast(ast[2], assignment) if eval_ast(ast[1], assignment)
                else eval_ast(ast[3], assignment))
    raise ValueError(f"bad AST node {kind!r}")


def build_ast(ast, manager: BDD) -> Function:
    """Compile an expression AST into a BDD function."""
    kind = ast[0]
    if kind == "var":
        return manager.var(ast[1])
    if kind == "const":
        return manager.true if ast[1] else manager.false
    if kind == "not":
        return ~build_ast(ast[1], manager)
    if kind == "and":
        return build_ast(ast[1], manager) & build_ast(ast[2], manager)
    if kind == "or":
        return build_ast(ast[1], manager) | build_ast(ast[2], manager)
    if kind == "xor":
        return build_ast(ast[1], manager) ^ build_ast(ast[2], manager)
    if kind == "ite":
        return manager.ite(build_ast(ast[1], manager),
                           build_ast(ast[2], manager),
                           build_ast(ast[3], manager))
    raise ValueError(f"bad AST node {kind!r}")


def ast_strategy(names: Sequence[str], max_leaves: int = 12):
    """Hypothesis strategy for expression ASTs over the given names."""
    leaves = st.one_of(
        st.sampled_from([("var", name) for name in names]),
        st.sampled_from([("const", False), ("const", True)]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.just("not"), children),
            st.tuples(st.just("and"), children, children),
            st.tuples(st.just("or"), children, children),
            st.tuples(st.just("xor"), children, children),
            st.tuples(st.just("ite"), children, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def all_assignments(names: Sequence[str]):
    """All total assignments over the names (small name lists only)."""
    for values in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, values))


def tables_equal(fn: Function, ast, names: Sequence[str]) -> bool:
    """Compare a BDD against an AST on the full truth table."""
    return all(fn.evaluate(a) == eval_ast(ast, a)
               for a in all_assignments(names))


def random_function(manager: BDD, names: Sequence[str],
                    rng: random.Random, num_cubes: int = 3,
                    cube_len: int = 3) -> Function:
    """A random function as a small DNF over the named variables."""
    result = manager.false
    for _ in range(num_cubes):
        cube = manager.true
        for name in rng.sample(list(names), min(cube_len, len(names))):
            var = manager.var(name)
            cube = cube & (var if rng.random() < 0.5 else ~var)
        result = result | cube
    return result


# ---------------------------------------------------------------------------
# Random machines (seeded), for engine-vs-explicit cross validation
# ---------------------------------------------------------------------------

def random_machine(seed: int, num_state_bits: int = 4,
                   num_input_bits: int = 2, assume: bool = False) -> Machine:
    """A small random deterministic machine with free inputs.

    With ``assume``, the inputs are constrained by a random assumption
    over inputs and state that still leaves every state an allowed
    input (the machine for a seed is otherwise unchanged).
    """
    rng = random.Random(seed)
    builder = Builder(f"random-{seed}")
    inputs = [builder.input_bit(f"i{k}") for k in range(num_input_bits)]
    regs = [builder.register_bit(f"r{k}", init=rng.random() < 0.5)
            for k in range(num_state_bits)]
    names = [fn.top_var for fn in inputs + regs]
    for reg in regs:
        fn = random_function(builder.manager, names, rng,
                             num_cubes=rng.randint(1, 3),
                             cube_len=rng.randint(1, 3))
        builder.next(reg, fn)
    if assume:
        literal = inputs[0] if rng.random() < 0.5 else ~inputs[0]
        builder.assume(literal | random_function(
            builder.manager, names, rng, num_cubes=2, cube_len=2))
    return builder.build()


def random_property(machine: Machine, seed: int, num_conjuncts: int = 2
                    ) -> List[Function]:
    """Random conjuncts over a machine's state bits (may or may not hold)."""
    rng = random.Random(seed * 7919 + 13)
    conjuncts = []
    for _ in range(num_conjuncts):
        # Bias towards properties with a decent chance of holding: each
        # conjunct is a wide clause (single cubes are almost always
        # violated somewhere).
        clause = machine.manager.false
        for name in machine.current_names:
            if rng.random() < 0.6:
                var = machine.manager.var(name)
                clause = clause | (var if rng.random() < 0.5 else ~var)
        if clause.is_false:
            clause = machine.manager.true
        conjuncts.append(clause)
    return conjuncts


@pytest.fixture
def manager() -> BDD:
    """A fresh manager with six general-purpose variables a..f."""
    mgr = BDD()
    for name in "abcdef":
        mgr.new_var(name)
    return mgr
