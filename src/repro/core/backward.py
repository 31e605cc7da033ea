"""Conventional backward traversal ("Bkwd" in the paper's tables).

Section II.B: initialize ``G_0 = G`` and compute
``G_{i+1} = G_0 and BackImage(tau, G_i)``.  If the start states ever
leave ``G_i`` there is a length-i violation; otherwise the monotone
sequence converges and verification succeeds.  Like the forward
baseline, the iterates here are single, explicit BDDs — termination
testing is a constant-time pointer comparison, and the blowup risk is
in the iterates themselves.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..bdd.manager import Function
from ..fsm.machine import Machine
from ..fsm.image import back_image
from ..fsm.trace import Trace, backward_counterexample
from .options import Options
from .result import Outcome, RunRecorder, VerificationResult

__all__ = ["verify_backward"]


def verify_backward(machine: Machine, good_conjuncts: Sequence[Function],
                    options: Optional[Options] = None) -> VerificationResult:
    """Run backward traversal; the good set is conjoined explicitly."""
    if options is None:
        options = Options()
    recorder = RunRecorder("Bkwd", machine.name, machine.manager, options)
    return recorder.run(_run, machine, good_conjuncts, options)


def _run(machine: Machine, good_conjuncts: Sequence[Function],
         options: Options, recorder: RunRecorder) -> VerificationResult:
    recorder.initial_reorder()
    manager = machine.manager
    probe = recorder.probe
    good = manager.conj(good_conjuncts)
    current = good
    not_rings: List[Function] = [~good]
    nodes = current.size()
    recorder.record_iterate(nodes, str(nodes), conjuncts=[current])
    if not machine.init.entails(current):
        return _violation(machine, not_rings, options, recorder)
    while recorder.iterations < options.max_iterations:
        recorder.check_time()
        recorder.iterations += 1
        with probe.span("iteration", index=recorder.iterations):
            image = back_image(machine, current, options.back_image_mode,
                               options.cluster_limit)
            successor = good & image
            not_rings.append(~successor)
            nodes = successor.size()
            recorder.record_iterate(nodes, str(nodes), conjuncts=[successor])
            with probe.span("termination_test",
                            tiers={"canonical": 1}) as s:
                converged = successor.equiv(current)
                s.note(converged=converged)
            if converged:
                return recorder.finish(Outcome.VERIFIED, holds=True)
            if not machine.init.entails(successor):
                return _violation(machine, not_rings, options, recorder)
            current = successor
    return recorder.finish(Outcome.NO_CONVERGENCE, holds=None)


def _violation(machine: Machine, not_rings: Sequence[Function],
               options: Options,
               recorder: RunRecorder) -> VerificationResult:
    trace: Optional[Trace] = None
    if options.want_trace:
        trace = backward_counterexample(machine, not_rings)
    return recorder.finish(Outcome.VIOLATED, holds=False, trace=trace)
