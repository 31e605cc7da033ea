"""Counterexample extraction.

One of the paper's three attractions of BDD-based verification is that
"most of the proposed algorithms provide counterexamples if the
verification attempt fails".  Both traversal directions provide them:

* Forward traversal keeps the onion rings ``R_0 subset R_1 subset ...``;
  when ``R_k`` leaves G we walk backward from a violating state,
  intersecting preimages with earlier rings.
* Backward traversal keeps ``G_0 superset G_1 superset ...``; when the
  start states leave ``G_i`` we walk *forward* from a start state in
  ``not G_i``, at each step picking an input that keeps the run inside
  the shrinking ``not G_j`` sets until a state outside G is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..bdd.manager import Function
from ..bdd.satisfy import pick_one
from .machine import Machine

__all__ = ["Step", "Trace", "forward_counterexample",
           "backward_counterexample", "pick_inputs"]


@dataclass(frozen=True)
class Step:
    """One trace step: the state, and the input consumed to leave it.

    The final step's ``inputs`` is None.
    """

    state: Dict[str, bool]
    inputs: Optional[Dict[str, bool]]


@dataclass(frozen=True)
class Trace:
    """A concrete run from an initial state to a property violation."""

    steps: List[Step]

    def __len__(self) -> int:
        return len(self.steps)

    def states(self) -> List[Dict[str, bool]]:
        """Just the state assignments along the trace."""
        return [step.state for step in self.steps]

    def pretty(self, include_inputs: bool = True,
               max_columns: int = 12) -> str:
        """Human-readable table, bits regrouped into vectors.

        Bit names of the form ``base[i]`` are decoded back into
        integers; stray single bits print as 0/1.  Input columns (from
        each step's consumed inputs) are appended when requested.
        """
        state_columns = _vector_columns(
            [name for name in self.steps[0].state])
        input_columns: List[str] = []
        if include_inputs and len(self.steps) > 1 \
                and self.steps[0].inputs is not None:
            input_columns = _vector_columns(
                [name for name in self.steps[0].inputs])
        columns = state_columns[:max_columns]
        shown_inputs = input_columns[:max(0, max_columns - len(columns))] \
            if include_inputs else []
        header = ["step"] + columns + [f"in:{c}" for c in shown_inputs]
        rows = [header]
        for index, step in enumerate(self.steps):
            row = [str(index)]
            row += [str(_decode_vector(step.state, base))
                    for base in columns]
            for base in shown_inputs:
                if step.inputs is None:
                    row.append("-")
                else:
                    row.append(str(_decode_vector(step.inputs, base)))
            rows.append(row)
        widths = [max(len(row[i]) for row in rows)
                  for i in range(len(header))]
        lines = ["  ".join(cell.rjust(width)
                           for cell, width in zip(row, widths))
                 for row in rows]
        truncated = len(state_columns) > len(columns)
        if truncated:
            lines.append(f"... ({len(state_columns) - len(columns)} more "
                         "state vectors not shown)")
        return "\n".join(lines)

    def replay_check(self, machine: Machine) -> bool:
        """Validate the trace against the machine's concrete semantics."""
        for index in range(len(self.steps) - 1):
            step = self.steps[index]
            if step.inputs is None:
                return False
            if not machine.input_allowed(step.state, step.inputs):
                return False
            successor = machine.step(step.state, step.inputs)
            if successor != self.steps[index + 1].state:
                return False
        return True


def _vector_columns(names) -> List[str]:
    """Distinct vector base names, in first-appearance order."""
    bases: List[str] = []
    for name in names:
        base = name.split("[", 1)[0] if "[" in name else name
        if base not in bases:
            bases.append(base)
    return bases


def _decode_vector(assignment: Dict[str, bool], base: str) -> int:
    """Integer value of vector ``base`` inside a bit assignment."""
    if base in assignment:  # plain single bit
        return int(assignment[base])
    value = 0
    index = 0
    while f"{base}[{index}]" in assignment:
        if assignment[f"{base}[{index}]"]:
            value |= 1 << index
        index += 1
    return value


def _state_cube(machine: Machine, state: Dict[str, bool]) -> Function:
    return machine.manager.cube(
        {name: state[name] for name in machine.current_names})


def _pick_state(machine: Machine,
                region: Function) -> Optional[Dict[str, bool]]:
    assignment = pick_one(region, care_names=machine.current_names)
    if assignment is None:
        return None
    return {name: assignment[name] for name in machine.current_names}


def pick_inputs(machine: Machine, state: Dict[str, bool],
                targets: Iterable[Function]) -> Optional[Dict[str, bool]]:
    """Allowed inputs that take the concrete ``state`` into the union
    of ``targets`` (None if there are none).

    The next-state functions and the assumption are first constrained
    to ``state``, leaving functions of the inputs alone, so each target
    is composed with those small functions instead of with ``delta``.
    """
    cube = _state_cube(machine, state)
    partial_delta = {name: fn.constrain(cube)
                     for name, fn in machine.delta.items()}
    allowed = machine.assumption.constrain(cube)
    reach = machine.manager.disj(target.compose(partial_delta)
                                 for target in targets)
    assignment = pick_one(allowed & reach, care_names=machine.input_names)
    if assignment is None:
        return None
    return {name: assignment[name] for name in machine.input_names}


def _pick_transition(machine: Machine, source_region: Function,
                     target: Function) -> Optional[Step]:
    """Pick a concrete (state, input) in ``source_region`` whose
    successor lies in ``target``."""
    composed = target.compose(machine.delta)
    witness_set = source_region & machine.assumption & composed
    assignment = pick_one(
        witness_set,
        care_names=list(machine.current_names) + list(machine.input_names))
    if assignment is None:
        return None
    state = {n: assignment[n] for n in machine.current_names}
    inputs = {n: assignment[n] for n in machine.input_names}
    return Step(state=state, inputs=inputs)


def forward_counterexample(machine: Machine, rings: Sequence[Function],
                           good: Function) -> Trace:
    """Build a trace from the forward rings; ``rings[-1]`` must leave G."""
    violating = rings[-1] & ~good
    if violating.is_false:
        raise ValueError("last ring does not violate the property")
    # Find the earliest ring containing a violation (shortest trace).
    first_bad = 0
    while (rings[first_bad] & ~good).is_false:
        first_bad += 1
    final_state = _pick_state(machine, rings[first_bad] & ~good)
    assert final_state is not None
    steps = [Step(state=final_state, inputs=None)]
    target_cube = _state_cube(machine, final_state)
    for index in range(first_bad - 1, -1, -1):
        step = _pick_transition(machine, rings[index], target_cube)
        if step is None:
            raise RuntimeError(
                "trace extraction failed: rings are inconsistent")
        steps.append(step)
        target_cube = _state_cube(machine, step.state)
    steps.reverse()
    return Trace(steps=steps)


def backward_counterexample(machine: Machine,
                            not_good_rings: Sequence[Function]) -> Trace:
    """Build a trace from backward rings.

    ``not_good_rings[j]`` must be the complement of ``G_j`` (states from
    which a violation is reachable within j steps); the start states
    must intersect ``not_good_rings[-1]``.
    """
    depth = len(not_good_rings) - 1
    start_region = machine.init & not_good_rings[depth]
    if start_region.is_false:
        raise ValueError("start states do not violate G_depth")
    state = _pick_state(machine, start_region)
    assert state is not None
    steps: List[Step] = []
    for j in range(depth, 0, -1):
        if not_good_rings[0].evaluate(state):
            break  # already outside G itself
        inputs = pick_inputs(machine, state, [not_good_rings[j - 1]])
        if inputs is None:
            raise RuntimeError(
                "trace extraction failed: backward rings inconsistent")
        steps.append(Step(state=state, inputs=inputs))
        state = machine.step(state, inputs)
    steps.append(Step(state=state, inputs=None))
    return Trace(steps=steps)
