"""Ablation: the Section V future-work items, implemented and measured.

The paper closes with a wish list; this bench quantifies each wish on
the workloads that motivated it:

* **multiway simplification** ("a routine that simplifies using
  multiple BDDs simultaneously") — ``Options(simplifier="multiway")``;
* **size-bounded conjunction** ("abort any of these operations if the
  size exceeds a specified bound") — ``Options(use_bounded_and=True)``;
* **relational BackImage** (the ``BackImage = not PreImage(not Z)``
  duality computed over the partitioned relation, which keeps
  intermediates small exactly where the compose strategy spikes).
"""

import pytest

from repro.bench import chosen_scale, run_case
from repro.core import Options
from repro.models import moving_average, pipelined_processor

SCALE = chosen_scale()

WORKLOADS = {
    "movavg": (lambda: moving_average(depth=8 if SCALE == "paper" else 4,
                                      width=8)),
    "pipeline": (lambda: pipelined_processor(
        num_regs=2, datapath=2 if SCALE == "paper" else 1)),
}

VARIANTS = {
    "baseline": Options(),
    "multiway-simplify": Options(simplifier="multiway"),
    "bounded-and": Options(use_bounded_and=True),
    "relational-backimage": Options(back_image_mode="relational"),
    "all-three": Options(simplifier="multiway", use_bounded_and=True,
                         back_image_mode="relational"),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def bench_section5_wishes(benchmark, workload, variant):
    def run():
        options = VARIANTS[variant]
        options.max_nodes = 6_000_000
        options.time_limit = 300.0
        return run_case(WORKLOADS[workload](), "xici", "-", workload,
                        options=options)

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    result = row.result
    assert result.verified, (workload, variant, result.outcome)
    benchmark.extra_info["peak_nodes"] = result.peak_nodes
    benchmark.extra_info["iterate_nodes"] = result.max_iterate_nodes
    print(f"\n  {workload}/{variant}: peak {result.peak_nodes}, "
          f"iterate {result.max_iterate_profile}")


def bench_auto_decompose_recovers_structure(benchmark):
    """Hand XICI a *single monolithic* property BDD; with
    ``auto_decompose`` it recovers the per-slot implicit conjunction
    (one 9-node factor per FIFO slot) before the traversal starts."""
    from repro.core import Problem, verify
    from repro.models import typed_fifo

    depth = 8 if SCALE == "paper" else 5

    def run():
        base = typed_fifo(depth=depth, width=8)
        mono = base.machine.manager.conj(base.good_conjuncts)
        problem = Problem(name=f"fifo-mono-{depth}",
                          machine=base.machine, good_conjuncts=[mono])
        plain = verify(problem, "xici",
                       Options(max_nodes=4_000_000, time_limit=120.0))
        problem2 = Problem(name=f"fifo-mono-{depth}",
                           machine=base.machine, good_conjuncts=[mono])
        auto = verify(problem2, "xici",
                      Options(auto_decompose=True, max_nodes=4_000_000,
                              time_limit=120.0))
        return plain, auto

    plain, auto = benchmark.pedantic(run, rounds=1, iterations=1)
    assert plain.verified and auto.verified
    print(f"\n  monolithic property: plain iterate "
          f"{plain.max_iterate_profile}, auto-decomposed "
          f"{auto.max_iterate_profile}")
    assert auto.max_iterate_nodes < plain.max_iterate_nodes
    assert f"({depth} x 9 nodes)" in auto.max_iterate_profile


def bench_relational_backimage_cuts_peak(benchmark):
    """The headline effect on the pipeline: relational BackImage
    roughly halves the peak table size at the same answer."""

    def run():
        compose = run_case(
            pipelined_processor(num_regs=2, datapath=2), "xici", "-",
            "compose", options=Options(grow_threshold=1.0,
                                       back_image_mode="compose",
                                       max_nodes=6_000_000,
                                       time_limit=300.0))
        relational = run_case(
            pipelined_processor(num_regs=2, datapath=2), "xici", "-",
            "relational", options=Options(grow_threshold=1.0,
                                          back_image_mode="relational",
                                          max_nodes=6_000_000,
                                          time_limit=300.0))
        return compose, relational

    compose, relational = benchmark.pedantic(run, rounds=1, iterations=1)
    assert compose.result.verified and relational.result.verified
    assert compose.result.max_iterate_nodes == \
        relational.result.max_iterate_nodes  # identical iterates
    ratio = compose.result.peak_nodes / relational.result.peak_nodes
    benchmark.extra_info["peak_ratio"] = round(ratio, 2)
    print(f"\n  peak nodes: compose {compose.result.peak_nodes} vs "
          f"relational {relational.result.peak_nodes} ({ratio:.2f}x)")
    assert relational.result.peak_nodes <= compose.result.peak_nodes
