"""Forward traversal exploiting functional dependencies — "FD".

A reconstruction of Hu & Dill's DAC 1993 method [16], which appears as
a baseline in the paper's network example (Table 1).  The user names
state bits believed to be *functionally dependent* on the rest (e.g.
each processor's outstanding-request counter, which is determined by
the network contents).  The engine then never stores those bits inside
the reachable-set BDD: the iterate is a reduced BDD over the
independent bits plus one defining function per dependent bit,

    ``R_i  =  R_red  and  (v1 <-> f1(indep))  and  ...``

Images are computed without rebuilding the full-width BDD: dependent
variables are substituted out of the next-state functions that read
them (vector compose), the reduced image ranges over independent
primed variables only, and each dependent bit's new defining function
is recovered from a two-variable-wider image.  The transition parts
that substitution cannot change are clustered once per run.  If a
declared dependency ever fails to hold in some ``R_i``, the run stops
with a DEPENDENCY_FAILED outcome — the method is only as good as the
user's declaration, which is precisely the "user-specified" weakness
the paper's automatic techniques compete against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd.manager import Function
from ..bdd.sizing import format_profile, shared_size
from ..fsm.machine import Machine
from ..fsm.image import cluster_schedule, clustered_image
from ..fsm.trace import Trace, forward_counterexample
from .options import Options
from .result import Outcome, RunRecorder, VerificationResult

__all__ = ["verify_fd", "extract_dependencies", "DEPENDENCY_FAILED"]

DEPENDENCY_FAILED = "declared functional dependency failed"


class DependencyError(Exception):
    """A declared dependent bit was not functionally determined."""

    def __init__(self, name: str) -> None:
        super().__init__(f"bit {name!r} is not functionally dependent")
        self.name = name


def extract_dependencies(region: Function, dependent: Sequence[str]
                         ) -> Tuple[Function, Dict[str, Function]]:
    """Split ``region`` into a reduced BDD and defining functions.

    Returns ``(reduced, funcs)`` with
    ``region == reduced and conj(v <-> funcs[v])`` and every ``funcs[v]``
    free of all dependent variables.  Raises :class:`DependencyError`
    if some declared bit is not functionally determined in ``region``.
    """
    reduced = region
    raw: Dict[str, Function] = {}
    for name in dependent:
        high = reduced.cofactor(name, True)
        low = reduced.cofactor(name, False)
        if not (high & low).is_false:
            raise DependencyError(name)
        raw[name] = high
        reduced = high | low
    # Defining functions may reference dependent bits processed later;
    # resolve back-to-front so every function is independent-only.
    resolved: Dict[str, Function] = {}
    for name in reversed(list(dependent)):
        resolved[name] = raw[name].compose(resolved)
    return reduced, resolved


def verify_fd(machine: Machine, good_conjuncts: Sequence[Function],
              dependent_bits: Sequence[str],
              options: Optional[Options] = None) -> VerificationResult:
    """Forward traversal storing dependent bits as functions."""
    if options is None:
        options = Options()
    recorder = RunRecorder("FD", machine.name, machine.manager, options)
    return recorder.run(_run, machine, list(good_conjuncts),
                        list(dependent_bits), options)


def _profile(reduced: Function, funcs: Dict[str, Function]) -> Tuple[int, str]:
    parts = [reduced] + list(funcs.values())
    return shared_size(parts), format_profile(parts)


def _violates(reduced: Function, funcs: Dict[str, Function],
              good_conjuncts: Sequence[Function]) -> bool:
    """Check R_red against each good conjunct with dependents composed
    out — never materializing the full-width reachable set."""
    for conjunct in good_conjuncts:
        composed = conjunct.compose(funcs)
        if not reduced.entails(composed):
            return True
    return False


def _part(machine: Machine, index: int, funcs: Dict[str, Function]
          ) -> Tuple[Function, frozenset]:
    """State bit ``index``'s transition part ``s' <-> delta_s`` and its
    support, with the dependent bits substituted out by ``funcs``."""
    part = machine.transition_partition()[index]
    support = machine.part_supports()[index]
    if support.isdisjoint(funcs):
        return part, support
    bit = machine.state_bits[index]
    part = machine.manager.var(bit.next_name).iff(
        bit.next_fn.compose(funcs))
    return part, part.support()


def _run(machine: Machine, good_conjuncts: List[Function],
         dependent: List[str], options: Options,
         recorder: RunRecorder) -> VerificationResult:
    recorder.initial_reorder()
    manager = machine.manager
    unknown = [n for n in dependent if n not in machine.current_names]
    if unknown:
        raise ValueError(f"not state bits: {unknown}")
    dependent_set = set(dependent)
    independent = [n for n in machine.current_names
                   if n not in dependent_set]
    prime = machine.prime_map()
    quantify = list(independent) + list(machine.input_names)
    reduced_names = {prime[name]: name for name in independent}

    # Substitution changes only the parts whose next-state function
    # reads a dependent bit.  The other independent parts are clustered
    # once, here; each image adds the moving parts after their clusters.
    supports = machine.part_supports()
    indices = [index for index, name in enumerate(machine.current_names)
               if name not in dependent_set]
    fixed = [i for i in indices if supports[i].isdisjoint(dependent_set)]
    moving = [i for i in indices if i not in fixed]
    parts = machine.transition_partition()
    clusters = [(cluster, cluster.support())
                for cluster, _ in cluster_schedule(
                    [parts[index] for index in fixed], quantify,
                    options.cluster_limit)]
    dependent_index = [machine.current_names.index(n) for n in dependent]
    assumption_moves = not machine.assumption.support().isdisjoint(
        dependent_set)

    probe = recorder.probe
    try:
        reduced, funcs = extract_dependencies(machine.init, dependent)
    except DependencyError:
        return recorder.finish(DEPENDENCY_FAILED, holds=None)
    full_history: List[Tuple[Function, Dict[str, Function]]] = \
        [(reduced, funcs)]
    nodes, profile = _profile(reduced, funcs)
    recorder.record_iterate(nodes, profile,
                            conjuncts=[reduced] + list(funcs.values()))
    if _violates(reduced, funcs, good_conjuncts):
        return _violation(machine, full_history, good_conjuncts,
                          options, recorder)
    while recorder.iterations < options.max_iterations:
        recorder.check_time()
        recorder.iterations += 1
        with probe.span("iteration", index=recorder.iterations):
            # Substitute dependents out of what reads them.
            assumption = machine.assumption
            if assumption_moves:
                assumption = assumption.compose(funcs)
            source = reduced & assumption
            indep_parts = clusters + [_part(machine, index, funcs)
                                      for index in moving]
            with probe.span("image", mode="fd-reduced", input=source) as s:
                image_reduced = clustered_image(
                    source, indep_parts, quantify, reduced_names)
                s.note(output=image_reduced)
            new_funcs: Dict[str, Function] = {}
            failed = False
            for name, index in zip(dependent, dependent_index):
                wide = clustered_image(
                    source, indep_parts + [_part(machine, index, funcs)],
                    quantify, {**reduced_names, prime[name]: name})
                high = wide.cofactor(name, True)
                low = wide.cofactor(name, False)
                if not (high & low).is_false:
                    failed = True
                    break
                new_funcs[name] = high
            if failed:
                return recorder.finish(DEPENDENCY_FAILED, holds=None)
            union_reduced = reduced | image_reduced
            # Merge old and new defining functions.  On states reached
            # both before and now the two definitions must agree;
            # otherwise the accumulated set has two states sharing an
            # independent part and the declared dependency is false.
            merged_funcs: Dict[str, Function] = {}
            consistent = True
            for name in dependent:
                old_fn = funcs[name]
                new_fn = new_funcs[name]
                conflict = reduced & image_reduced & (old_fn ^ new_fn)
                if not conflict.is_false:
                    consistent = False
                    break
                merged = manager.ite(reduced, old_fn, new_fn)
                merged_funcs[name] = merged.restrict(union_reduced)
            if not consistent:
                return recorder.finish(DEPENDENCY_FAILED, holds=None)
            nodes, profile = _profile(union_reduced, merged_funcs)
            recorder.record_iterate(
                nodes, profile,
                conjuncts=[union_reduced] + list(merged_funcs.values()))
            full_history.append((union_reduced, merged_funcs))
            if _violates(union_reduced, merged_funcs, good_conjuncts):
                return _violation(machine, full_history, good_conjuncts,
                                  options, recorder)
            with probe.span("termination_test",
                            tiers={"canonical": 1}) as s:
                converged = union_reduced.equiv(reduced) and all(
                    (reduced & (merged_funcs[n] ^ funcs[n])).is_false
                    for n in dependent)
                s.note(converged=converged)
            if converged:
                return recorder.finish(Outcome.VERIFIED, holds=True)
            reduced, funcs = union_reduced, merged_funcs
    return recorder.finish(Outcome.NO_CONVERGENCE, holds=None)


def _violation(machine: Machine,
               history: List[Tuple[Function, Dict[str, Function]]],
               good_conjuncts: Sequence[Function], options: Options,
               recorder: RunRecorder) -> VerificationResult:
    trace: Optional[Trace] = None
    if options.want_trace:
        # Materialize the full-width rings for trace extraction only.
        manager = machine.manager
        rings = []
        for reduced, funcs in history:
            full = reduced
            for name, fn in funcs.items():
                full = full & manager.var(name).iff(fn)
            rings.append(full)
        good = manager.conj(good_conjuncts)
        trace = forward_counterexample(machine, rings, good)
    return recorder.finish(Outcome.VIOLATED, holds=False, trace=trace)
