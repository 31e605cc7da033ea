"""Conventional forward traversal ("Fwd" in the paper's tables).

Section II.B: initialize ``R_0 = S`` and compute
``R_{i+1} = R_0 or Image(tau, R_i)``.  If ``R_i`` ever leaves the good
set, produce a counterexample; otherwise the sequence converges to the
reachable states and verification succeeds.

This engine deliberately builds the *monolithic* BDDs for the good set
and for each ``R_i`` — it is the baseline whose exponential blowups on
the paper's examples motivate implicit conjunctions.  (The transition
relation itself stays partitioned; even the baseline never builds
that.)
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..bdd.manager import Function
from ..fsm.machine import Machine
from ..fsm.image import ImageComputer
from ..fsm.trace import Trace, forward_counterexample
from .options import Options
from .result import Outcome, RunRecorder, VerificationResult

__all__ = ["verify_forward"]


def verify_forward(machine: Machine, good_conjuncts: Sequence[Function],
                   options: Optional[Options] = None) -> VerificationResult:
    """Run forward traversal; the good set is conjoined explicitly."""
    if options is None:
        options = Options()
    recorder = RunRecorder("Fwd", machine.name, machine.manager, options)
    return recorder.run(_run, machine, good_conjuncts, options)


def _run(machine: Machine, good_conjuncts: Sequence[Function],
         options: Options, recorder: RunRecorder) -> VerificationResult:
    recorder.initial_reorder()
    manager = machine.manager
    probe = recorder.probe
    good = manager.conj(good_conjuncts)
    computer = ImageComputer(machine, options.cluster_limit)
    reached = machine.init
    frontier = machine.init
    rings = [reached]
    nodes = reached.size()
    recorder.record_iterate(nodes, str(nodes), conjuncts=[reached])
    if reached.intersects(~good):
        return _violation(machine, rings, good, options, recorder)
    while recorder.iterations < options.max_iterations:
        recorder.check_time()
        recorder.iterations += 1
        with probe.span("iteration", index=recorder.iterations):
            source = frontier if options.use_frontier else reached
            with probe.span("image", mode="clustered", input=source) as s:
                image = computer.image(source)
                s.note(output=image)
            successor = reached | image
            rings.append(successor)
            nodes = successor.size()
            recorder.record_iterate(nodes, str(nodes), conjuncts=[successor])
            if successor.intersects(~good):
                return _violation(machine, rings, good, options, recorder)
            with probe.span("termination_test",
                            tiers={"canonical": 1}) as s:
                converged = successor.equiv(reached)
                s.note(converged=converged)
            if converged:
                return recorder.finish(Outcome.VERIFIED, holds=True)
            frontier = image & ~reached
            reached = successor
    return recorder.finish(Outcome.NO_CONVERGENCE, holds=None)


def _violation(machine: Machine, rings, good: Function, options: Options,
               recorder: RunRecorder) -> VerificationResult:
    trace: Optional[Trace] = None
    if options.want_trace:
        trace = forward_counterexample(machine, rings, good)
    return recorder.finish(Outcome.VIOLATED, holds=False, trace=trace)
