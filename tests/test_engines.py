"""Engine tests: verdicts, traces, agreement across all five methods."""

import random

import pytest

import repro
from repro import RecordingTracer
from repro.bdd import BDD
from repro.expr import BitVec
from repro.fsm import Builder
from repro.core import METHODS, Options, Outcome, Problem, verify
from repro.explicit import explicit_check

from conftest import random_machine, random_property


def make_fifo_problem(depth=3, width=3, buggy=False):
    builder = Builder(f"testfifo{depth}x{width}")
    specs = [("in", width, "input")]
    specs += [(f"q{i}", width, "reg") for i in range(depth)]
    vectors = builder.declare(specs, interleave=True)
    bound = (1 << width) - 2
    builder.assume(vectors["in"].ule_const(bound + (1 if buggy else 0)))
    builder.next(vectors["q0"], vectors["in"])
    for index in range(1, depth):
        builder.next(vectors[f"q{index}"], vectors[f"q{index-1}"])
    for index in range(depth):
        builder.init_const(vectors[f"q{index}"], 0)
    good = [vectors[f"q{i}"].ule_const(bound) for i in range(depth)]
    return Problem(name=builder.name, machine=builder.build(),
                   good_conjuncts=good)


SYMBOLIC_METHODS = ("fwd", "bkwd", "ici", "xici")


class TestVerdicts:
    @pytest.mark.parametrize("method", SYMBOLIC_METHODS)
    def test_holding_property_verified(self, method):
        result = verify(make_fifo_problem(), method)
        assert result.verified
        assert result.holds is True
        assert result.iterations >= 1
        assert result.trace is None

    @pytest.mark.parametrize("method", SYMBOLIC_METHODS)
    def test_violated_property_with_replayable_trace(self, method):
        problem = make_fifo_problem(buggy=True)
        result = verify(problem, method)
        assert result.violated
        assert result.holds is False
        assert result.trace is not None
        assert result.trace.replay_check(problem.machine)
        final = result.trace.steps[-1].state
        assert any(not g.evaluate(final) for g in problem.good_conjuncts)

    @pytest.mark.parametrize("method", SYMBOLIC_METHODS)
    def test_want_trace_off(self, method):
        problem = make_fifo_problem(buggy=True)
        result = verify(problem, method, Options(want_trace=False))
        assert result.violated and result.trace is None

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            verify(make_fifo_problem(), "quantum")

    def test_fd_without_declaration_rejected(self):
        with pytest.raises(ValueError, match="dependent bits"):
            verify(make_fifo_problem(), "fd")


class TestBudgets:
    def test_node_budget_outcome(self):
        problem = make_fifo_problem(depth=5, width=4)
        result = verify(problem, "fwd", Options(max_nodes=300))
        assert result.outcome == Outcome.NODE_BUDGET
        assert result.holds is None
        assert result.exhausted

    def test_time_budget_outcome(self):
        problem = make_fifo_problem(depth=6, width=6)
        result = verify(problem, "fwd", Options(time_limit=0.0))
        assert result.outcome == Outcome.TIME_BUDGET
        assert result.holds is None

    def test_budget_restored_after_run(self):
        problem = make_fifo_problem()
        manager = problem.machine.manager
        verify(problem, "bkwd", Options(max_nodes=10_000_000))
        assert manager.max_nodes is None

    def test_iteration_cap(self):
        problem = make_fifo_problem(depth=4)
        result = verify(problem, "fwd", Options(max_iterations=1))
        assert result.outcome == Outcome.NO_CONVERGENCE


class TestResultMetadata:
    def test_summary_and_time_string(self):
        result = verify(make_fifo_problem(), "xici")
        assert "holds" in result.summary()
        assert ":" in result.time_string()
        assert result.method == "XICI"
        assert result.peak_nodes > 0
        assert result.estimated_memory_kb > 0

    def test_iterate_profiles_recorded(self):
        result = verify(make_fifo_problem(), "ici")
        assert len(result.iterate_profiles) == result.iterations + 1

    def test_assisted_flag_round_trips(self):
        problem = make_fifo_problem()
        problem.assisting_invariants = [problem.machine.manager.true]
        result = verify(problem, "xici", assisted=True)
        assert result.extra["assisted"] is True

    def test_options_validation(self):
        with pytest.raises(ValueError):
            verify(make_fifo_problem(), "xici", Options(evaluator="magic"))
        with pytest.raises(ValueError):
            verify(make_fifo_problem(), "xici", Options(grow_threshold=0))


class TestXiciVariants:
    @pytest.mark.parametrize("kwargs", [
        dict(evaluator="matching"),
        dict(use_bounded_and=True),
        dict(simplifier="constrain"),
        dict(var_choice="lowest-level"),
        dict(var_choice="most-common-top"),
        dict(pairwise_step3="direct"),
        dict(pairwise_step3="off"),
        dict(exploit_monotonicity=True),
        dict(simplify_only_by_smaller=False),
        dict(grow_threshold=1.1),
        dict(grow_threshold=3.0),
        dict(simplifier="multiway"),
        dict(back_image_mode="relational"),
        dict(back_image_mode="relational", simplifier="multiway",
             use_bounded_and=True, exploit_monotonicity=True),
        dict(gc_min_nodes=50),
        dict(gc_min_nodes=None),
    ])
    def test_all_option_combinations_verify(self, kwargs):
        result = verify(make_fifo_problem(), "xici", Options(**kwargs))
        assert result.verified

    @pytest.mark.parametrize("kwargs", [
        dict(evaluator="matching"),
        dict(exploit_monotonicity=True),
        dict(var_choice="lowest-level"),
        dict(back_image_mode="relational"),
        dict(simplifier="multiway"),
    ])
    def test_all_option_combinations_catch_bugs(self, kwargs):
        problem = make_fifo_problem(buggy=True)
        result = verify(problem, "xici", Options(**kwargs))
        assert result.violated
        assert result.trace.replay_check(problem.machine)


class TestAutoBackImage:
    """``back_image_mode="auto"`` picks an algorithm per conjunct and
    must reproduce the compose run exactly."""

    def _run(self, mode, model, method, **params):
        tracer = RecordingTracer()
        problem = repro.build_model(model, **params)
        result = verify(problem, method,
                        Options(back_image_mode=mode, tracer=tracer))
        modes = {event["mode"] for event in tracer.events
                 if event["event"] == "back_image"}
        return problem, result, modes

    def test_pipeline_xici_runs_both_algorithms_with_compose_iterates(self):
        # Conjuncts of 6, 83 and 2,691 nodes: compose takes the small
        # ones, the cone product the large one.
        _, auto, modes = self._run("auto", "pipeline", "xici",
                                   regs=2, bits=1)
        _, compose, _ = self._run("compose", "pipeline", "xici",
                                  regs=2, bits=1)
        assert modes == {"compose", "relational"}
        assert auto.outcome == compose.outcome == Outcome.VERIFIED
        assert auto.iterations == compose.iterations
        assert auto.iterate_profiles == compose.iterate_profiles

    def test_violated_bkwd_trace_replays(self):
        problem, auto, modes = self._run("auto", "movavg", "bkwd",
                                         depth=8, width=4, bug="1")
        _, compose, _ = self._run("compose", "movavg", "bkwd",
                                  depth=8, width=4, bug="1")
        assert "relational" in modes and "auto" not in modes
        assert auto.violated and compose.violated
        assert auto.iterations == compose.iterations
        assert auto.iterate_profiles == compose.iterate_profiles
        assert auto.trace.replay_check(problem.machine)


@pytest.mark.parametrize("seed", range(12))
def test_random_machines_all_methods_agree_with_explicit(seed):
    machine = random_machine(seed, num_state_bits=4, num_input_bits=2)
    good = random_property(machine, seed)
    problem = Problem(name=f"rand{seed}", machine=machine,
                      good_conjuncts=good)
    oracle = explicit_check(machine, good)
    for method in SYMBOLIC_METHODS:
        result = verify(problem, method, Options(max_iterations=200))
        assert not result.exhausted, (method, result.outcome)
        assert result.verified == oracle.holds, (method, seed)
        if result.violated:
            assert result.trace.replay_check(machine)
