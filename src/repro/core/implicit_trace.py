"""Counterexample extraction for the implicit-conjunction engines.

The whole point of ICI/XICI is never to build the BDD for ``G_i`` — so
the trace builder must not build ``not G_i`` either.  It doesn't have
to: for a *concrete* state s, partial-evaluating the next-state
functions at s leaves functions over inputs only, and
``not G_{j-1}(delta(s, input))`` becomes a small disjunction of small
input-space BDDs.  Walking forward from a start state outside ``G_i``,
one such pick per step, yields the trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..bdd.manager import Function
from ..bdd.satisfy import pick_one
from ..fsm.machine import Machine
from ..fsm.trace import Step, Trace, pick_inputs

__all__ = ["implicit_backward_counterexample", "find_failing_conjunct"]


def find_failing_conjunct(start: Function,
                          conjuncts: Sequence[Function]) -> Optional[Function]:
    """First conjunct not containing ``start``, or None if all do.

    This is the decomposed violation check ``S <= G_i[j]`` for each j.
    """
    for conjunct in conjuncts:
        if not start.entails(conjunct):
            return conjunct
    return None


def _is_bad(machine: Machine, state: Dict[str, bool],
            good_conjuncts: Sequence[Function]) -> bool:
    return any(not conjunct.evaluate(state)
               for conjunct in good_conjuncts)


def implicit_backward_counterexample(
        machine: Machine,
        history: Sequence[Sequence[Function]]) -> Trace:
    """Build a trace from the conjunct-list history ``G_0 .. G_i``.

    ``history[j]`` is the (possibly simplified — the implied set is
    what matters) conjunct list of ``G_j``; ``history[0]`` must denote
    the good set itself.  The machine's start states must intersect
    ``not G_i``.
    """
    depth = len(history) - 1
    failing = find_failing_conjunct(machine.init, history[depth])
    if failing is None:
        raise ValueError("start states do not violate the last iterate")
    start_region = machine.init & ~failing
    assignment = pick_one(start_region, care_names=machine.current_names)
    assert assignment is not None
    state = {name: assignment[name] for name in machine.current_names}
    steps: List[Step] = []
    for j in range(depth, 0, -1):
        if _is_bad(machine, state, history[0]):
            break
        # not G_{j-1} at the successor, as a disjunction over inputs.
        inputs = pick_inputs(machine, state,
                             (~conjunct for conjunct in history[j - 1]))
        if inputs is None:
            raise RuntimeError(
                "trace extraction failed: iterate history inconsistent")
        steps.append(Step(state=state, inputs=inputs))
        state = machine.step(state, inputs)
    if not _is_bad(machine, state, history[0]):
        raise RuntimeError("trace extraction ended in a good state")
    steps.append(Step(state=state, inputs=None))
    return Trace(steps=steps)
