"""A run collects the model builder's garbage before its first iteration.

Each case builds a model twice: once as is, and once followed by
garbage (cubes of random literals, conjoined and then dropped).  The
garbage must change nothing the run computes.  With collection on (the
default ``Options``), the run's first step frees it, so the run creates
exactly the nodes a fresh build's run creates, and the garbage shows in
the peak only as the table size at the call.  With collection off, the
run never collects and the garbage sits under the whole run.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.bdd import BDD
from repro.core import Options, Problem, verify

from conftest import random_function, random_machine, random_property

#: label -> (model, params, methods)
CASES = {
    "fifo d3": ("fifo", {"depth": 3}, ("fwd", "bkwd", "ici", "xici")),
    "movavg d2": ("movavg", {"depth": 2}, ("fwd", "bkwd", "ici", "xici")),
    "network 2p": ("network", {"procs": 2}, ("fd", "xici")),
}

RUNS = [(label, method) for label, (_, _, methods) in sorted(CASES.items())
        for method in methods]


def make_garbage(manager: BDD, seed: int, cubes: int = 200) -> None:
    """Conjoin random literals into cubes and drop them."""
    rng = random.Random(seed)
    for _ in range(cubes):
        random_function(manager, manager.var_names, rng, num_cubes=1,
                        cube_len=6)


def _answer(result):
    return result.outcome, result.iterations, result.iterate_profiles


def _verify_with_garbage(build, method, options, seed=0):
    """Build, make garbage, verify; also returns the table size at the
    call."""
    problem = build()
    manager = problem.machine.manager
    before = manager.num_nodes_allocated
    make_garbage(manager, seed)
    at_call = manager.num_nodes_allocated
    assert at_call > before
    return verify(problem, method, options), at_call


def _model(label):
    model, params, _ = CASES[label]
    return lambda: repro.build_model(model, **params)


@pytest.mark.parametrize("label,method", RUNS)
def test_garbage_before_a_run_changes_nothing_it_computes(label, method):
    build = _model(label)
    fresh = verify(build(), method, Options())
    dirty, at_call = _verify_with_garbage(build, method, Options())
    assert _answer(dirty) == _answer(fresh)
    assert dirty.bdd_stats["gc_runs"] >= 1
    assert dirty.bdd_stats["nodes_created"] \
        == fresh.bdd_stats["nodes_created"]
    assert dirty.peak_nodes == max(fresh.peak_nodes, at_call)


@pytest.mark.parametrize("label,method", RUNS)
def test_without_collection_the_garbage_stays_in_the_peak(label, method):
    build = _model(label)
    options = Options(gc_min_nodes=None)
    fresh = verify(build(), method, options)
    dirty, at_call = _verify_with_garbage(build, method, options)
    assert _answer(dirty) == _answer(fresh)
    assert dirty.bdd_stats["gc_runs"] == 0
    assert dirty.peak_nodes == at_call + dirty.bdd_stats["nodes_created"]


@given(seed=st.integers(0, 10_000), assume=st.booleans(),
       method=st.sampled_from(("fwd", "bkwd", "ici", "xici")))
@settings(max_examples=40, deadline=None)
def test_random_machines_start_from_a_collected_table(seed, assume, method):
    def build():
        machine = random_machine(seed, assume=assume)
        return Problem(name=f"rand{seed}", machine=machine,
                       good_conjuncts=random_property(machine, seed))

    options = Options(max_iterations=200)
    fresh = verify(build(), method, options)
    dirty, at_call = _verify_with_garbage(build, method, options, seed)
    assert _answer(dirty) == _answer(fresh)
    assert dirty.bdd_stats["nodes_created"] \
        == fresh.bdd_stats["nodes_created"]
    assert dirty.peak_nodes == max(fresh.peak_nodes, at_call)
