"""Targeted tests for engine plumbing and less-travelled paths."""

import time

import pytest

from repro.bdd import BDD, BudgetExceededError
from repro.expr import BitVec
from repro.fsm import Builder, ImageComputer
from repro.core import Options, Outcome, Problem, verify
from repro.core.result import RunRecorder, VerificationResult
from repro.models import typed_fifo


def tiny_machine():
    builder = Builder("tiny")
    x = builder.input_bit("x")
    r = builder.registers("r", 2, init=0)
    builder.next(r, BitVec.mux(x, r.inc(), r))
    return builder.build()


class TestImageComputerInternals:
    def test_clusters_cover_all_bits(self):
        machine = tiny_machine()
        computer = ImageComputer(machine, cluster_limit=1)
        # Tiny limit: one cluster per transition conjunct.
        assert len(computer._clusters) == 2
        computer_big = ImageComputer(machine, cluster_limit=10**6)
        assert len(computer_big._clusters) == 1

    def test_schedule_quantifies_everything(self):
        machine = tiny_machine()
        computer = ImageComputer(machine, cluster_limit=1)
        scheduled = set()
        for _cluster, dying in computer._schedule:
            assert not (scheduled & set(dying))  # no double quantify
            scheduled |= set(dying)
        quantifiable = set(machine.current_names) | set(machine.input_names)
        assert scheduled <= quantifiable

    def test_image_result_over_current_vars_only(self):
        machine = tiny_machine()
        computer = ImageComputer(machine)
        img = computer.image(machine.init)
        assert img.support() <= set(machine.current_names)


class TestRunRecorder:
    def test_budget_saved_and_restored(self):
        machine = tiny_machine()
        manager = machine.manager
        manager.max_nodes = 123456
        options = Options(max_nodes=10, time_limit=60.0, gc_min_nodes=7)
        recorder = RunRecorder("X", "m", manager, options)
        assert manager.max_nodes == 10
        assert manager.auto_gc_min_nodes == 7
        result = recorder.finish(Outcome.VERIFIED, holds=True)
        assert manager.max_nodes == 123456
        assert manager.auto_gc_min_nodes is None
        assert result.verified

    def test_check_time_raises(self):
        machine = tiny_machine()
        options = Options(time_limit=0.0)
        recorder = RunRecorder("X", "m", machine.manager, options)
        time.sleep(0.01)
        with pytest.raises(BudgetExceededError):
            recorder.check_time()
        recorder.finish(Outcome.VERIFIED, holds=True)

    def test_max_iterate_tracking(self):
        machine = tiny_machine()
        recorder = RunRecorder("X", "m", machine.manager, Options())
        recorder.record_iterate(10, "10")
        recorder.record_iterate(50, "50 (a)")
        recorder.record_iterate(20, "20")
        result = recorder.finish(Outcome.VERIFIED, holds=True)
        assert result.max_iterate_nodes == 50
        assert result.max_iterate_profile == "50 (a)"
        assert result.iterate_profiles == ["10", "50 (a)", "20"]


class TestResultPresentation:
    def test_time_string_rounding(self):
        machine = tiny_machine()
        recorder = RunRecorder("X", "m", machine.manager, Options())
        result = recorder.finish(Outcome.VERIFIED, holds=True)
        result.elapsed_seconds = 83.4
        assert result.time_string() == "1:23"

    def test_summary_variants(self):
        machine = tiny_machine()
        recorder = RunRecorder("X", "m", machine.manager, Options())
        verified = recorder.finish(Outcome.VERIFIED, holds=True)
        assert "holds" in verified.summary()
        recorder2 = RunRecorder("X", "m", machine.manager, Options())
        exhausted = recorder2.finish(Outcome.NODE_BUDGET, holds=None)
        assert "budget" in exhausted.summary()
        recorder3 = RunRecorder("X", "m", machine.manager, Options())
        violated = recorder3.finish(Outcome.VIOLATED, holds=False)
        assert "VIOLATED" in violated.summary()


class TestProblem:
    def test_conjuncts_assisted_requires_invariants(self):
        problem = typed_fifo(depth=2, width=3)
        with pytest.raises(ValueError, match="no assisting"):
            problem.conjuncts(assisted=True)

    def test_conjuncts_returns_copies(self):
        problem = typed_fifo(depth=2, width=3)
        conjuncts = problem.conjuncts()
        conjuncts.append(problem.machine.manager.true)
        assert len(problem.good_conjuncts) == 2


class TestOptionsDefaults:
    def test_paper_defaults(self):
        options = Options()
        assert options.grow_threshold == 1.5
        assert options.evaluator == "greedy"
        assert options.simplifier == "restrict"
        assert options.var_choice == "first-top"
        assert options.pairwise_step3 == "simplify"
        assert options.exploit_monotonicity is False
        assert options.back_image_mode == "auto"
        assert options.use_frontier is False
        assert options.auto_decompose is False

    def test_validate_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            Options(back_image_mode="diagonal").validate()


class TestGcDuringEngineRuns:
    def test_aggressive_gc_does_not_change_results(self):
        baseline = verify(typed_fifo(depth=4, width=6), "xici",
                          Options(gc_min_nodes=None))
        aggressive = verify(typed_fifo(depth=4, width=6), "xici",
                            Options(gc_min_nodes=1))
        assert baseline.outcome == aggressive.outcome
        assert baseline.iterations == aggressive.iterations
        assert baseline.max_iterate_nodes == aggressive.max_iterate_nodes

    def test_gc_reduces_peak_on_iterative_run(self):
        no_gc = verify(typed_fifo(depth=6, width=6), "fwd",
                       Options(gc_min_nodes=None))
        with_gc = verify(typed_fifo(depth=6, width=6), "fwd",
                         Options(gc_min_nodes=500))
        assert no_gc.verified and with_gc.verified
        assert with_gc.peak_nodes <= no_gc.peak_nodes
