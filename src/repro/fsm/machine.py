"""Symbolic finite-state machines (substrate S3).

The paper's verification paradigm (Section II): a single
non-deterministic finite-state machine with state space Q, transition
relation tau, start states S, and a set of good states G; verify that
no path from S leaves G.

Our machines are *functional*: every state bit has a next-state
function over current-state and input variables, and all
non-determinism lives in the free input variables (optionally
constrained by an input assumption).  This matches how the Ever
verifier compiled high-level descriptions [18], and it is exactly the
form for which Theorem 1 makes ``BackImage`` distribute over implicit
conjunctions at zero cost (vector compose is conjunct-wise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..bdd.manager import BDD, Function

__all__ = ["StateBit", "Machine"]


@dataclass(frozen=True)
class StateBit:
    """One register bit: its current/primed variables and next function."""

    name: str
    next_name: str
    next_fn: Function
    init_value: Optional[bool]


class Machine:
    """A symbolic FSM: functional transitions plus an input assumption.

    Use :class:`repro.fsm.Builder` to construct one; this class is the
    immutable result consumed by the verification engines.
    """

    def __init__(self, manager: BDD, state_bits: Sequence[StateBit],
                 input_names: Sequence[str], assumption: Function,
                 init: Function, name: str = "machine") -> None:
        self.manager = manager
        self.state_bits: Tuple[StateBit, ...] = tuple(state_bits)
        self.input_names: Tuple[str, ...] = tuple(input_names)
        self.assumption = assumption
        self.init = init
        self.name = name
        self.current_names: Tuple[str, ...] = tuple(
            b.name for b in self.state_bits)
        self.next_names: Tuple[str, ...] = tuple(
            b.next_name for b in self.state_bits)
        self.delta: Dict[str, Function] = {
            b.name: b.next_fn for b in self.state_bits}
        self._transition_partition: Optional[List[Function]] = None
        self._part_supports: Optional[List[frozenset]] = None
        self._delta_sizes: Optional[List[int]] = None
        #: Clustered image schedules, filled by :mod:`repro.fsm.image`
        #: on first use and keyed by (cluster limit, quantified names).
        self.schedules: Dict[tuple, list] = {}

    # -- structure ---------------------------------------------------------

    @property
    def num_state_bits(self) -> int:
        """Number of register bits."""
        return len(self.state_bits)

    def prime_map(self) -> Dict[str, str]:
        """Rename map from current to primed variable names."""
        return dict(zip(self.current_names, self.next_names))

    def unprime_map(self) -> Dict[str, str]:
        """Rename map from primed to current variable names."""
        return dict(zip(self.next_names, self.current_names))

    def transition_partition(self) -> List[Function]:
        """Per-bit transition conjuncts ``s' <-> delta_s`` (cached).

        Together with the input assumption these form the partitioned
        transition relation (Burch–Clarke–Long [4]) used by the forward
        traversal baseline; the monolithic relation is never built.
        """
        if self._transition_partition is None:
            parts = []
            for bit in self.state_bits:
                primed = self.manager.var(bit.next_name)
                parts.append(primed.iff(bit.next_fn))
            self._transition_partition = parts
        return self._transition_partition

    def part_supports(self) -> List[frozenset]:
        """Support of each transition conjunct, in state-bit order
        (cached)."""
        if self._part_supports is None:
            self._part_supports = [
                part.support() for part in self.transition_partition()]
        return self._part_supports

    def delta_sizes(self) -> List[int]:
        """Node count of each next-state function, in state-bit order.

        Measured once, at first use, and kept across reorderings: the
        counts only steer :func:`repro.fsm.image.back_image`'s choice
        of algorithm, never its result.
        """
        if self._delta_sizes is None:
            self._delta_sizes = [bit.next_fn.size()
                                 for bit in self.state_bits]
        return self._delta_sizes

    # -- well-formedness -----------------------------------------------------

    def check(self) -> None:
        """Validate internal consistency; raises ValueError on problems."""
        legal = set(self.current_names) | set(self.input_names)
        for bit in self.state_bits:
            extra = bit.next_fn.support() - legal
            if extra:
                raise ValueError(
                    f"next-state function of {bit.name!r} depends on "
                    f"non-state, non-input variables: {sorted(extra)}")
        extra = self.assumption.support() - set(self.input_names) \
            - set(self.current_names)
        if extra:
            raise ValueError(
                f"assumption depends on unexpected variables: "
                f"{sorted(extra)}")
        extra = self.init.support() - set(self.current_names)
        if extra:
            raise ValueError(
                f"init predicate depends on non-state variables: "
                f"{sorted(extra)}")
        if self.init.is_false:
            raise ValueError("machine has no initial states")

    # -- concrete semantics ---------------------------------------------------

    def step(self, state: Mapping[str, bool],
             inputs: Mapping[str, bool]) -> Dict[str, bool]:
        """Concrete successor state (used by the explicit-state oracle)."""
        assignment = dict(state)
        assignment.update(inputs)
        return {bit.name: bit.next_fn.evaluate(assignment)
                for bit in self.state_bits}

    def input_allowed(self, state: Mapping[str, bool],
                      inputs: Mapping[str, bool]) -> bool:
        """Whether an input assignment satisfies the assumption."""
        assignment = dict(state)
        assignment.update(inputs)
        return self.assumption.evaluate(assignment)

    def __repr__(self) -> str:
        return (f"Machine({self.name!r}, state_bits="
                f"{self.num_state_bits}, inputs={len(self.input_names)})")
