"""Tests for the functional-dependency engine and extraction."""

import dataclasses
import importlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.bdd import BDD
from repro.expr import BitVec
from repro.fsm import Builder
from repro.core import DEPENDENCY_FAILED, Options, Outcome, Problem, \
    extract_dependencies, verify
from repro.core.fd import DependencyError
from repro.explicit import explicit_check, explicit_reachable
from repro.fsm.machine import Machine, StateBit
from repro.models import build_model

from conftest import random_function, random_machine, random_property

image_module = importlib.import_module("repro.fsm.image")
fd_module = importlib.import_module("repro.core.fd")


class TestExtraction:
    def test_simple_dependency(self, manager):
        a, b, p = manager.var("a"), manager.var("b"), manager.var("c")
        region = (p.iff(a ^ b)) & (a | b)
        reduced, funcs = extract_dependencies(region, ["c"])
        assert reduced.equiv(a | b)
        assert set(funcs) == {"c"}
        rebuilt = reduced & p.iff(funcs["c"])
        assert rebuilt.equiv(region)

    def test_chained_dependencies_resolved(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        # b == a, c == not b: c's definition must come out over a only.
        region = b.iff(a) & c.iff(~b)
        reduced, funcs = extract_dependencies(region, ["b", "c"])
        assert reduced.is_true
        assert funcs["b"].support() <= {"a"}
        assert funcs["c"].support() <= {"a"}
        rebuilt = reduced & b.iff(funcs["b"]) & c.iff(funcs["c"])
        assert rebuilt.equiv(region)

    def test_not_dependent_raises(self, manager):
        a, b = manager.var("a"), manager.var("b")
        region = a | b  # b free given a in part of the region
        with pytest.raises(DependencyError):
            extract_dependencies(region, ["b"])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_regions_roundtrip(self, manager, seed):
        rng = random.Random(seed)
        base = random_function(manager, "abc", rng, num_cubes=4)
        if base.is_false:
            return
        d = manager.var("d")
        definition = random_function(manager, "abc", rng)
        region = base & d.iff(definition)
        reduced, funcs = extract_dependencies(region, ["d"])
        assert (reduced & d.iff(funcs["d"])).equiv(region)


def dependent_pair_problem(bug=""):
    """Counter machine with a mirror register (clearly dependent).

    ``bug="inverted"`` keeps the mirror a *function* of the counter but
    the wrong one (property violated, dependency intact);
    ``bug="offset"`` makes the mirror lag in a way that genuinely
    breaks the functional dependency on the counter.
    """
    builder = Builder("mirror")
    enable = builder.input_bit("en")
    count = builder.registers("cnt", 3, init=0)
    mirror = builder.registers("mir", 3, init=0)
    nxt = BitVec.mux(enable, count.inc(), count)
    builder.next(count, nxt)
    if bug == "inverted":
        builder.next(mirror, ~nxt)
    elif bug == "offset":
        builder.next(mirror, nxt.inc())
    else:
        builder.next(mirror, nxt)
    machine = builder.build()
    good = [count.eq(mirror)]
    return Problem(name="mirror", machine=machine, good_conjuncts=good,
                   fd_dependent_bits=[f"mir[{i}]" for i in range(3)])


class TestFdEngine:
    def test_verifies_dependent_design(self):
        result = verify(dependent_pair_problem(), "fd")
        assert result.verified
        # The stored representation must be smaller than the full
        # reachable set over all six state bits.
        assert result.max_iterate_nodes < 40

    def test_catches_violation_with_trace(self):
        # Dependency intact (mirror == counter throughout); a separate
        # property fails at depth 6, exercising trace reconstruction.
        problem = dependent_pair_problem()
        count_bits = [problem.machine.manager.var(f"cnt[{i}]")
                      for i in range(3)]
        problem.good_conjuncts = [BitVec(count_bits).ule_const(5)]
        result = verify(problem, "fd")
        assert result.violated
        assert result.iterations == 6
        assert result.trace is not None
        assert result.trace.replay_check(problem.machine)

    @pytest.mark.parametrize("bug", ["inverted", "offset"])
    def test_broken_dependency_detected(self, bug):
        # Both bugs reach two states sharing an independent part (the
        # init state obeys mirror == counter, later states don't), so
        # the mirror is genuinely no longer a function of the counter.
        problem = dependent_pair_problem(bug=bug)
        result = verify(problem, "fd")
        assert result.outcome == DEPENDENCY_FAILED
        assert result.holds is None

    def test_agrees_with_explicit(self):
        problem = dependent_pair_problem()
        oracle = explicit_check(problem.machine, problem.good_conjuncts)
        result = verify(problem, "fd")
        assert result.verified == oracle.holds

    def test_dependency_failure_reported(self):
        # Declare the *counter* dependent on the mirror alone — false,
        # since the free-running enable decouples them... actually they
        # mirror exactly; instead declare a genuinely free bit dependent.
        builder = Builder("free")
        x = builder.input_bit("x")
        a = builder.registers("a", 1, init=0)
        b = builder.registers("b", 1, init=0)
        builder.next(a, x)
        builder.next(b, ~x)
        machine = builder.build()
        problem = Problem(name="free", machine=machine,
                          good_conjuncts=[machine.manager.true],
                          fd_dependent_bits=["a[0]"])
        # After one step a is determined by b (a == not b), so this one
        # actually works; declare both dependent to force failure.
        problem.fd_dependent_bits = ["a[0]", "b[0]"]
        result = verify(problem, "fd")
        assert result.outcome == DEPENDENCY_FAILED

    def test_unknown_bit_rejected(self):
        problem = dependent_pair_problem()
        problem.fd_dependent_bits = ["nosuch[0]"]
        with pytest.raises(ValueError):
            verify(problem, "fd")


#: (procs, bug) -> (outcome, iterations, iterate profiles) of FD on the
#: network model; fixed by the reachable sets, not by how images run.
NETWORK_FD = {
    (2, None): ("verified", 7, [
        "13 (1, 1, 1, 1, 13)", "25 (1, 1, 5, 5, 19)",
        "39 (6, 6, 7, 7, 23)", "43 (5, 5, 6, 8, 28)",
        "35 (5, 5, 5, 5, 24)", "29 (5, 5, 5, 5, 18)",
        "24 (5, 5, 5, 5, 13)", "24 (5, 5, 5, 5, 13)"]),
    (3, None): ("verified", 10, [
        "19 (1, 1, 1, 1, 1, 1, 19)", "56 (1, 1, 1, 7, 10, 10, 35)",
        "112 (11, 12, 15, 15, 17, 19, 48)",
        "162 (15, 17, 20, 23, 23, 26, 62)",
        "170 (16, 18, 21, 24, 24, 28, 63)",
        "161 (15, 16, 20, 21, 21, 26, 61)",
        "119 (9, 10, 13, 13, 13, 17, 59)",
        "99 (7, 9, 10, 13, 13, 14, 48)", "85 (7, 9, 10, 13, 13, 14, 34)",
        "73 (7, 9, 10, 13, 13, 14, 22)",
        "73 (7, 9, 10, 13, 13, 14, 22)"]),
    (3, "1"): (DEPENDENCY_FAILED, 3, [
        "19 (1, 1, 1, 1, 1, 1, 19)", "56 (1, 1, 1, 7, 10, 10, 35)",
        "112 (11, 12, 15, 15, 17, 19, 48)"]),
}


class TestNetworkFd:
    @pytest.mark.parametrize("procs,bug", list(NETWORK_FD))
    def test_outcome_iterations_and_profiles(self, procs, bug):
        result = repro.verify(build_model("network", bug=bug, procs=procs),
                              "fd")
        assert (result.outcome, result.iterations,
                result.iterate_profiles) == NETWORK_FD[procs, bug]

    @pytest.mark.parametrize("procs", [2, 3])
    def test_unchanged_parts_are_clustered_once(self, procs, monkeypatch):
        calls = []
        original = image_module.cluster_schedule

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(image_module, "cluster_schedule", counting)
        monkeypatch.setattr(fd_module, "cluster_schedule", counting)
        repro.verify(build_model("network", procs=procs), "fd")
        assert len(calls) == 1


def mirrored_problem(data) -> Problem:
    """A random machine plus mirror registers, declared dependent.

    A mirror copies a register's next-state function and initial value,
    so it equals that register in every reachable state.  Hypothesis
    may also make a register's next state and the assumption read the
    first mirror, and invert the first mirror's next state (keeping its
    initial value), which can break the dependency.
    """
    seed = data.draw(st.integers(0, 10_000))
    base = random_machine(seed, num_state_bits=data.draw(st.integers(3, 6)),
                          num_input_bits=data.draw(st.integers(1, 3)),
                          assume=data.draw(st.booleans()))
    manager = base.manager
    bits = list(base.state_bits)
    sources = data.draw(st.lists(st.integers(0, len(bits) - 1),
                                 min_size=1, max_size=3, unique=True))
    mirrors = [f"m{index}" for index in sources]
    for name in mirrors:
        manager.new_var(name)
        manager.new_var(name + "'")
    first = manager.var(mirrors[0])
    if data.draw(st.booleans(), label="register reads a mirror"):
        index = data.draw(st.integers(0, len(bits) - 1))
        bits[index] = dataclasses.replace(
            bits[index], next_fn=bits[index].next_fn
            ^ (first & manager.var(base.input_names[0])))
    assumption = base.assumption
    if data.draw(st.booleans(), label="assumption reads a mirror"):
        assumption = assumption & (first
                                   | manager.var(base.input_names[-1]))
    inverted = data.draw(st.booleans(), label="first mirror inverted")
    init = base.init
    for position, (index, name) in enumerate(zip(sources, mirrors)):
        source = bits[index]
        next_fn = ~source.next_fn if inverted and position == 0 \
            else source.next_fn
        bits.append(StateBit(name, name + "'", next_fn, source.init_value))
        init = init & (manager.var(name) if source.init_value
                       else ~manager.var(name))
    machine = Machine(manager, bits, base.input_names, assumption, init,
                      name=f"mirrored-{seed}")
    return Problem(name=machine.name, machine=machine,
                   good_conjuncts=random_property(machine, seed),
                   fd_dependent_bits=mirrors)


def functionally_dependent(machine: Machine, dependent) -> bool:
    """Whether the ``dependent`` bits are a function of the other bits
    on the explicitly enumerated reachable states."""
    states, truncated = explicit_reachable(machine)
    assert not truncated
    positions = [machine.current_names.index(name) for name in dependent]
    others = [index for index in range(machine.num_state_bits)
              if index not in positions]
    seen = {}
    for state in states:
        key = tuple(state[index] for index in others)
        value = tuple(state[index] for index in positions)
        if seen.setdefault(key, value) != value:
            return False
    return True


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fd_agrees_with_the_explicit_oracle(data):
    """Declared FD bits: with a true dependency FD gives explicit_check's
    verdict in fwd's iterations; with a false one it reports the failure
    or a violation; every counterexample replays."""
    problem = mirrored_problem(data)
    options = Options(cluster_limit=data.draw(st.sampled_from([1, 2500])))
    result = verify(problem, "fd", options)
    oracle = explicit_check(problem.machine, problem.good_conjuncts)
    if functionally_dependent(problem.machine, problem.fd_dependent_bits):
        assert result.verified == oracle.holds
        forward = verify(problem, "fwd", options)
        assert (result.outcome, result.iterations) == \
            (forward.outcome, forward.iterations)
    else:
        assert result.outcome in (DEPENDENCY_FAILED, Outcome.VIOLATED)
    if result.violated:
        assert not oracle.holds
        assert result.trace.replay_check(problem.machine)
