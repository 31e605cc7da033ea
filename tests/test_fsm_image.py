"""Image operators vs explicit enumeration, and Theorem 1."""

import importlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, iter_assignments
from repro.expr import BitVec
from repro.fsm import Builder, ImageComputer, back_image, image, pre_image
from repro.fsm.image import cluster_schedule, clustered_image
from repro.explicit import explicit_reachable

from conftest import ast_strategy, build_ast, random_function, \
    random_machine, random_property
import random

# The module, not the ``image`` function ``repro.fsm`` exports.
image_module = importlib.import_module("repro.fsm.image")


def explicit_images(machine, z_states):
    """Concrete Image/PreImage/BackImage over enumerated states."""
    names = machine.current_names
    all_states = []
    import itertools
    for values in itertools.product([False, True], repeat=len(names)):
        all_states.append(dict(zip(names, values)))
    def successors(state):
        out = []
        import itertools as it
        input_names = machine.input_names
        for ivals in it.product([False, True], repeat=len(input_names)):
            inputs = dict(zip(input_names, ivals))
            if machine.input_allowed(state, inputs):
                out.append(machine.step(state, inputs))
        return out
    def key(state):
        return tuple(state[n] for n in names)
    z_keys = {key(s) for s in z_states}
    img, pre, back = set(), set(), set()
    for state in all_states:
        succs = [key(s) for s in successors(state)]
        if key(state) in z_keys:
            img.update(succs)
        if any(s in z_keys for s in succs):
            pre.add(key(state))
        if succs and all(s in z_keys for s in succs):
            back.add(key(state))
        if not succs:
            back.add(key(state))  # vacuous: no allowed transitions
    return img, pre, back


def region_states(machine, region):
    return [dict(a) for a in iter_assignments(region, machine.current_names)]


def region_keys(machine, region):
    names = machine.current_names
    return {tuple(a[n] for n in names)
            for a in iter_assignments(region, names)}


@pytest.mark.parametrize("seed", range(8))
def test_images_match_explicit_semantics(seed):
    machine = random_machine(seed, num_state_bits=3, num_input_bits=2)
    rng = random.Random(seed + 100)
    z = random_function(machine.manager, machine.current_names, rng)
    z_states = region_states(machine, z)
    want_img, want_pre, want_back = explicit_images(machine, z_states)
    computer = ImageComputer(machine)
    got_img = region_keys(machine, computer.image(z))
    got_pre = region_keys(machine, pre_image(machine, z))
    got_back = region_keys(machine, back_image(machine, z))
    assert got_img == want_img
    assert got_pre == want_pre
    assert got_back == want_back


@pytest.mark.parametrize("seed", range(8))
def test_backimage_is_dual_of_preimage(seed):
    machine = random_machine(seed)
    rng = random.Random(seed + 55)
    z = random_function(machine.manager, machine.current_names, rng)
    dual = ~pre_image(machine, ~z)
    assert back_image(machine, z).equiv(dual)


@pytest.mark.parametrize("seed", range(10))
def test_theorem1_backimage_distributes_over_conjunction(seed):
    """Theorem 1: BackImage(tau, Y and Z) ==
    BackImage(tau, Y) and BackImage(tau, Z)."""
    machine = random_machine(seed)
    rng = random.Random(seed + 7)
    y = random_function(machine.manager, machine.current_names, rng)
    z = random_function(machine.manager, machine.current_names, rng)
    combined = back_image(machine, y & z)
    split = back_image(machine, y) & back_image(machine, z)
    assert combined.equiv(split)


@pytest.mark.parametrize("seed", range(6))
def test_image_does_not_distribute_over_conjunction(seed):
    """The dual property fails for Image in general (the paper's point
    is about conjunction and BackImage / disjunction and Image)."""
    machine = random_machine(seed)
    rng = random.Random(seed + 21)
    y = random_function(machine.manager, machine.current_names, rng)
    z = random_function(machine.manager, machine.current_names, rng)
    computer = ImageComputer(machine)
    combined = computer.image(y | z)
    split = computer.image(y) | computer.image(z)
    # Image distributes over DISjunction:
    assert combined.equiv(split)


def test_forward_reachability_matches_explicit():
    machine = random_machine(3, num_state_bits=4, num_input_bits=2)
    computer = ImageComputer(machine)
    reached = machine.init
    while True:
        successor = reached | computer.image(reached)
        if successor.equiv(reached):
            break
        reached = successor
    states, truncated = explicit_reachable(machine)
    assert not truncated
    assert region_keys(machine, reached) == states


def test_cluster_limit_variation_same_result():
    machine = random_machine(11, num_state_bits=5, num_input_bits=2)
    z = machine.init
    images = [ImageComputer(machine, cluster_limit=limit).image(z)
              for limit in (1, 50, 100000)]
    assert images[0].equiv(images[1])
    assert images[1].equiv(images[2])


def test_clustered_image_generic_helper():
    """clustered_image == plain conjoin-then-quantify-then-rename."""
    machine = random_machine(17, num_state_bits=3, num_input_bits=2)
    manager = machine.manager
    source = machine.init & machine.assumption
    parts = machine.transition_partition()
    quantify = list(machine.current_names) + list(machine.input_names)
    naive = source
    for part in parts:
        naive = naive & part
    naive = naive.exists(quantify).rename(machine.unprime_map())
    for limit in (1, 10):
        clusters = [(cluster, cluster.support()) for cluster, _
                    in cluster_schedule(parts, quantify, limit)]
        got = clustered_image(source, clusters, quantify,
                              machine.unprime_map())
        assert got.equiv(naive)


@pytest.mark.parametrize("seed", range(8))
def test_relational_back_image_equals_compose(seed):
    """The two BackImage strategies must agree exactly."""
    machine = random_machine(seed, num_state_bits=4, num_input_bits=2)
    rng = random.Random(seed + 77)
    z = random_function(machine.manager, machine.current_names, rng)
    composed = back_image(machine, z, mode="compose")
    relational = back_image(machine, z, mode="relational")
    assert composed.equiv(relational)
    tight = back_image(machine, z, mode="relational", cluster_limit=1)
    assert composed.equiv(tight)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_every_back_image_algorithm_returns_the_same_edge(data):
    """compose, relational (default and one-part clusters) and auto
    agree for random z, with auto forced onto both of its branches."""
    machine = random_machine(data.draw(st.integers(0, 10_000)),
                             num_state_bits=data.draw(st.integers(3, 6)),
                             num_input_bits=data.draw(st.integers(1, 3)),
                             assume=True)
    # Often a strict subset of the state bits, so the cone is too.
    names = data.draw(st.lists(st.sampled_from(machine.current_names),
                               min_size=1, unique=True))
    z = build_ast(data.draw(ast_strategy(names, max_leaves=16)),
                  machine.manager)
    want = back_image(machine, z, mode="compose").edge
    assert back_image(machine, z, mode="relational").edge == want
    assert back_image(machine, z, mode="relational",
                      cluster_limit=1).edge == want
    assert back_image(machine, z, mode="auto").edge == want
    with mock.patch.object(image_module, "RELATIONAL_COST", 1):
        assert back_image(machine, z, mode="auto").edge == want


def test_auto_takes_the_cone_product_only_when_compose_is_costly():
    machine = random_machine(4, num_state_bits=4, num_input_bits=2,
                             assume=True)
    first, second = (machine.manager.var(name)
                     for name in machine.current_names[:2])
    z = first & ~second
    sizes = machine.delta_sizes()
    cost = z.size() * max(sizes[0], sizes[1])
    with mock.patch.object(image_module, "RELATIONAL_COST", cost):
        assert image_module._costly_cone(machine, z) == [0, 1]
    with mock.patch.object(image_module, "RELATIONAL_COST", cost + 1):
        assert image_module._costly_cone(machine, z) is None
    assert image_module._costly_cone(machine, machine.manager.true) is None


def test_relational_clusters_are_built_once_per_limit():
    machine = random_machine(9, num_state_bits=5, num_input_bits=2)
    z = random_function(machine.manager, machine.current_names,
                        random.Random(9))
    back_image(machine, z, mode="relational")
    schedules = dict(machine.schedules)
    back_image(machine, ~z, mode="relational")
    assert machine.schedules == schedules
    back_image(machine, z, mode="relational", cluster_limit=1)
    ImageComputer(machine)
    assert len(machine.schedules) == len(schedules) + 2


def test_back_image_mode_validation():
    machine = random_machine(0)
    with pytest.raises(ValueError):
        back_image(machine, machine.manager.true, mode="sideways")


def test_back_image_of_true_and_false():
    machine = random_machine(5)
    assert back_image(machine, machine.manager.true).is_true
    # BackImage(False) holds only where no transition is allowed; our
    # random machines have unconstrained inputs, so nowhere.
    assert back_image(machine, machine.manager.false).is_false
