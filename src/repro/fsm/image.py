"""Image operators — the paper's Definition 1.

* ``Image(tau, Z)``: states reachable from Z in one transition.
* ``PreImage(tau, Z)``: states that *can* reach Z in one transition.
* ``BackImage(tau, Z)``: states that *must* be in Z after any
  transition — the workhorse of backward traversal.

For our functional machines, with next-state functions ``delta`` and
input assumption ``A``:

* ``BackImage(Z) = forall i. A(s, i) -> Z[s := delta(s, i)]``
* ``PreImage(Z)  = exists i. A(s, i) and Z[s := delta(s, i)]``

so the duality ``BackImage(Z) = not PreImage(not Z)`` noted in the
paper holds by construction, and Theorem 1
(``BackImage(Y and Z) = BackImage(Y) and BackImage(Z)``) follows from
compose and forall distributing over conjunction.

``Image`` needs the transition *relation*; we use the partitioned form
with clustered conjuncts and early quantification (Burch–Clarke–Long
[4]) so the monolithic relation is never built.  ``BackImage`` can use
it too, through the duality: :func:`back_image` picks vector compose or
that relational product per call.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..bdd.manager import Function
from .machine import Machine

__all__ = ["back_image", "pre_image", "image", "ImageComputer",
           "BACK_IMAGE_MODES", "RELATIONAL_COST"]

#: The ``back_image`` modes (``Options.back_image_mode``).
BACK_IMAGE_MODES = ("auto", "compose", "relational")

#: Under ``"auto"``, :func:`back_image` takes the relational product
#: for ``z`` when ``|z| * max |delta_s|`` over the state bits ``s`` in
#: ``supp(z)`` reaches this many nodes, and vector compose below it.
RELATIONAL_COST = 4096

#: Each cluster of transition parts, with the names quantified after it.
Schedule = List[Tuple[Function, List[str]]]


def back_image(machine: Machine, z: Function, mode: str = "auto",
               cluster_limit: int = 2500) -> Function:
    """States all of whose (allowed) successors lie in ``z``.

    ``z`` must range over current-state variables only.  Every mode
    returns the same function:

    * ``"compose"`` — substitute the next-state functions into ``z``
      (simultaneous vector compose) and universally quantify the
      inputs.  Cheapest for small ``z``; one conjunct at a time, this
      is what makes Theorem 1 free.
    * ``"relational"`` — the duality the paper notes,
      ``BackImage(Z) = not PreImage(not Z)``, computed over the
      clustered partitioned transition relation with early
      quantification.  The clusters are built once per machine and
      ``cluster_limit``.
    * ``"auto"`` (the default) — per call: the relational product over
      ``z``'s cone when ``|z| * max |delta_s|`` reaches
      :data:`RELATIONAL_COST`, vector compose otherwise.

    Reports a ``back_image`` span whose ``mode`` names the algorithm
    that ran, ``compose`` or ``relational``.
    """
    if mode not in BACK_IMAGE_MODES:
        raise ValueError(f"unknown back_image mode {mode!r}")
    cone = None
    if mode == "auto":
        cone = _costly_cone(machine, z)
        mode = "compose" if cone is None else "relational"
    with machine.manager.probe.span("back_image", mode=mode,
                                    input=z) as span:
        if mode == "compose":
            composed = z.compose(machine.delta)
            constrained = machine.assumption.implies(composed)
            result = constrained.forall(machine.input_names)
        elif cone is not None:
            result = _cone_back_image(machine, z, cone)
        else:
            result = _clustered_back_image(machine, z, cluster_limit)
        span.note(output=result)
    return result


def _costly_cone(machine: Machine, z: Function) -> Optional[List[int]]:
    """Indices of the state bits in ``supp(z)`` when vector compose
    would cost at least :data:`RELATIONAL_COST`, else None.

    Compose runs one ITE over some ``delta_s`` per node of ``z``, so
    ``|z| * max |delta_s|`` bounds its work; the product only pays
    when that is large (ALGORITHMS.md records the measured rule).
    """
    support = z.support()
    cone = [index for index, name in enumerate(machine.current_names)
            if name in support]
    if not cone:
        return None
    sizes = machine.delta_sizes()
    widest = max(sizes[index] for index in cone)
    return cone if z.size() * widest >= RELATIONAL_COST else None


def _cone_back_image(machine: Machine, z: Function,
                     cone: Sequence[int]) -> Function:
    """``not exists i, s'. A and not z[s := s'] and (s' <-> delta_s)``
    over the state bits ``s`` of ``cone`` only.

    A transition part outside the cone can be dropped: its ``s'``
    appears nowhere else, and ``exists s'. (s' <-> delta_s)`` is true.
    The parts are conjoined one per step, unclustered, in state-bit
    order, each input quantified after the last part that mentions it.
    """
    bits = machine.state_bits
    prime = {bits[index].name: bits[index].next_name for index in cone}
    parts = machine.transition_partition()
    supports = machine.part_supports()
    quantify = set(machine.input_names) | set(prime.values())
    schedule = _schedule([parts[index] for index in cone],
                         [supports[index] for index in cone], quantify)
    target = (~z).rename(prime)
    return ~_relational_product(machine.assumption & target, schedule,
                                quantify)


def _clustered_back_image(machine: Machine, z: Function,
                          cluster_limit: int) -> Function:
    """``not PreImage(not z)`` over the whole clustered partition."""
    quantify = machine.input_names + machine.next_names
    schedule = _partition_schedule(machine, cluster_limit, quantify)
    target = (~z).rename(machine.prime_map())
    return ~_relational_product(machine.assumption & target, schedule,
                                quantify)


def pre_image(machine: Machine, z: Function) -> Function:
    """States with at least one allowed successor in ``z``."""
    composed = z.compose(machine.delta)
    constrained = machine.assumption & composed
    return constrained.exists(machine.input_names)


# -- clustering and early quantification -----------------------------------

def cluster_schedule(parts: Sequence[Function],
                     quantify_names: Iterable[str],
                     cluster_limit: int) -> Schedule:
    """Cluster ``parts`` and schedule their early quantification.

    Consecutive parts are conjoined greedily while the product stays
    within ``cluster_limit`` nodes; each cluster is paired with the
    names of ``quantify_names`` that no later cluster mentions.
    """
    clusters: List[Function] = []
    current: Optional[Function] = None
    for part in parts:
        if current is None:
            current = part
            continue
        merged = current & part
        if merged.size() > cluster_limit:
            clusters.append(current)
            current = part
        else:
            current = merged
    if current is not None:
        clusters.append(current)
    return _schedule(clusters, [cluster.support() for cluster in clusters],
                     set(quantify_names))


def _schedule(clusters: Sequence[Function], supports: Sequence[frozenset],
              quantifiable: set) -> Schedule:
    """Pair each cluster with the quantifiable names dying after it."""
    dying: List[List[str]] = [[] for _ in clusters]
    later: set = set()
    for index in range(len(clusters) - 1, -1, -1):
        dying[index] = sorted(name for name in supports[index]
                              if name in quantifiable and name not in later)
        later |= supports[index]
    return list(zip(clusters, dying))


def _partition_schedule(machine: Machine, cluster_limit: int,
                        quantify_names: Tuple[str, ...]) -> Schedule:
    """The machine's transition partition, clustered and scheduled once
    per cluster limit and direction (the names quantified)."""
    key = (cluster_limit, quantify_names)
    schedule = machine.schedules.get(key)
    if schedule is None:
        schedule = cluster_schedule(machine.transition_partition(),
                                    quantify_names, cluster_limit)
        machine.schedules[key] = schedule
    return schedule


def _relational_product(source: Function, schedule: Schedule,
                        quantify_names: Iterable[str]) -> Function:
    """``exists quantify_names. source and every cluster``, each name
    quantified as its schedule says; names no cluster mentions go
    last."""
    result = source
    for cluster, dying in schedule:
        result = result.and_exists(cluster, dying)
    support = result.support()
    leftovers = [name for name in quantify_names if name in support]
    if leftovers:
        result = result.exists(leftovers)
    return result


class ImageComputer:
    """Forward image with clustered partitioned transition relation.

    Clusters the per-bit conjuncts ``s' <-> delta_s`` greedily up to a
    node limit, and schedules early quantification: a variable is
    quantified out in the first step after which no later cluster
    mentions it.  The schedule is built once per machine and limit.
    """

    def __init__(self, machine: Machine,
                 cluster_limit: int = 2500) -> None:
        self.machine = machine
        self.manager = machine.manager
        self.cluster_limit = cluster_limit
        self._quantify = machine.current_names + machine.input_names
        self._schedule = _partition_schedule(machine, cluster_limit,
                                             self._quantify)
        self._clusters = [cluster for cluster, _ in self._schedule]

    def image(self, reached: Function) -> Function:
        """One forward step: successors of ``reached``."""
        machine = self.machine
        successors = _relational_product(reached & machine.assumption,
                                         self._schedule, self._quantify)
        return successors.rename(machine.unprime_map())


def clustered_image(source: Function,
                    clusters: Sequence[Tuple[Function, frozenset]],
                    quantify_names: Sequence[str],
                    rename_map: Dict[str, str]) -> Function:
    """Relational image over ready clusters with early quantification.

    Conjoins ``source`` with each ``(cluster, support)`` of ``clusters``
    in order, existentially quantifying each of ``quantify_names``
    after the last cluster whose support mentions it (names no cluster
    mentions go last), then renames by ``rename_map``.  Used by the FD
    engine, which clusters the transition parts that substitution
    leaves unchanged once per run and appends the parts it rebuilds
    each iteration.
    """
    schedule = _schedule([cluster for cluster, _ in clusters],
                         [support for _, support in clusters],
                         set(quantify_names))
    return _relational_product(source, schedule,
                               quantify_names).rename(rename_map)


def image(machine: Machine, reached: Function,
          cluster_limit: int = 2500) -> Function:
    """One-shot forward image (through an :class:`ImageComputer`).

    The clustering and schedule are cached on the machine, so repeated
    calls with the same ``cluster_limit`` build them once.
    """
    return ImageComputer(machine, cluster_limit).image(reached)
