"""Initial mapping: tile-array shape, qubit placement, bandwidth adjusting.

This implements the three pre-processing steps of Ecmas (Section IV-B1):

1. **Shape determining** — choose the logical tile array shape (e.g. 3×3 vs
   2×4 for eight qubits) with the smallest perimeter that fits on the chip.
2. **Mapping establishing** — map qubits to tiles so that heavily
   communicating qubits are close, by recursive Kernighan–Lin bisection of
   the communication graph (the METIS substitute); several seeded attempts
   are generated and the one with the smallest communication cost
   ``f = Σ γ_ij · l_ij`` is kept.
3. **Bandwidth adjusting** — pre-route every CNOT along its unconstrained
   shortest path, attribute the load to corridors, and hand the chip's spare
   lanes to the most loaded corridors.

Each step is one routine for square and tile-graph chips.  The answers that
depend on the geometry come from the chip layer: the slot regions of
:mod:`repro.chip.regions`, :meth:`~repro.chip.chip.Chip.slot_distance`, the
routing graph's corridor keys and :attr:`~repro.chip.chip.Chip.lane_budget_scope`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chip.chip import Chip
from repro.chip.regions import slot_region
from repro.chip.routing_graph import tile_node_for
from repro.circuits.circuit import Circuit
from repro.circuits.comm_graph import CommunicationGraph
from repro.core.cut_types import CutAssignment
from repro.core.engines import routing_for
from repro.errors import ChipError, MappingError
from repro.partition.placement import (
    Placement,
    best_placement,
    communication_cost,
    random_placement,
    spectral_placement,
    trivial_snake_placement,
)
from repro.routing.paths import CapacityUsage
from repro.routing.router import find_path


@dataclass(frozen=True)
class InitialMapping:
    """The output of the pre-processing stage.

    ``chip`` may differ from the input chip in its corridor bandwidths (the
    bandwidth-adjusting step); the tile array itself never changes.
    """

    chip: Chip
    placement: Placement
    cut_types: CutAssignment | None
    shape: tuple[int, int]
    mapping_cost: float


def determine_shape(num_qubits: int, chip: Chip) -> tuple[int, int]:
    """Choose the tile-array shape with minimum perimeter that fits the chip.

    Among shapes ``r × c`` with ``r*c >= num_qubits`` that fit inside the
    chip's tile array, the one minimising the perimeter ``2(r+c)`` is chosen;
    ties prefer the squarer shape (paper Fig. 10a picks 3×3 over 2×4).

    On a defective chip a shape only qualifies when its window (anchored at
    the tile-array origin) still holds ``num_qubits`` *alive* slots; when no
    compact shape survives the defects, the full tile array is used.  A chip
    without enough alive slots at all raises :class:`ChipError`.  Tile-graph
    chips have no sub-windows; their shape is the whole graph,
    ``(num_nodes, 1)`` in slot addressing.
    """
    if num_qubits > chip.num_tile_slots:
        raise MappingError(
            f"chip has {chip.num_tile_slots} tile slots but the circuit needs {num_qubits}"
        )
    if num_qubits > chip.num_alive_tile_slots:
        raise ChipError(
            f"chip has {chip.num_alive_tile_slots} alive tile slots "
            f"({len(chip.defects.dead_tiles)} dead) but the circuit needs {num_qubits}"
        )
    return slot_region(chip).compact_shape(num_qubits)


def establish_placement(
    graph: CommunicationGraph,
    chip: Chip,
    shape: tuple[int, int] | None = None,
    strategy: str = "ecmas",
    attempts: int = 4,
    seed: int = 0,
    placement_engine: str = "reference",
) -> Placement:
    """Map qubits to the alive tile slots of ``chip`` within ``shape``.

    Strategies: ``"ecmas"`` (multi-attempt recursive bisection, the default),
    ``"metis"`` (single-attempt recursive bisection, the Table II "Metis"
    column), ``"trivial"`` (EDPCI snake), ``"spectral"``, ``"random"``.
    ``shape`` is the window chosen by :func:`determine_shape` (default: the
    whole tile array).  ``placement_engine`` picks the bisection core for
    the bisection-based strategies (classic KL ``reference`` vs multilevel
    ``fast``); the other strategies ignore it.
    """
    if strategy == "ecmas":
        return best_placement(
            graph, chip, shape, attempts=attempts, seed=seed, engine=placement_engine
        )
    if strategy == "metis":
        return best_placement(graph, chip, shape, attempts=1, seed=seed, engine=placement_engine)
    if strategy == "trivial":
        return trivial_snake_placement(graph.num_qubits, chip, shape)
    if strategy == "spectral":
        return spectral_placement(graph, chip, shape)
    if strategy == "random":
        return random_placement(graph.num_qubits, chip, shape, seed=seed)
    raise MappingError(f"unknown placement strategy {strategy!r}")


def corridor_load(
    chip: Chip,
    placement: Placement,
    graph: CommunicationGraph,
    engine: str = "reference",
) -> dict[tuple[str, int], float]:
    """Pre-route every CNOT (ignoring conflicts) and accumulate corridor load.

    Returns the load per corridor, keyed as
    :meth:`~repro.chip.routing_graph.RoutingGraph.corridor_of` names them:
    ``("h", r)`` and ``("v", c)`` on square chips, ``("e", index)`` on
    graph chips.  The load of an edge's corridor increases by the CNOT
    multiplicity of the pair whose unconstrained shortest path uses that
    edge; corridors no path crosses are absent.

    Routing state comes from the :func:`repro.core.engines.routing_for`
    seam, so daemon processes reuse their warm per-chip graphs here instead
    of rebuilding one per compile.  On the fast engine the per-pair search
    is the router's cached static walk over BFS hop tables; both engines
    produce the canonical (lexicographically smallest shortest) path, so
    the accumulated loads are engine-independent.
    """
    routing_graph, router = routing_for(chip, engine)
    load: dict[tuple[str, int], float] = {}
    empty = CapacityUsage()
    for a, b, weight in graph.edges():
        source = tile_node_for(placement.slot_of(a))
        target = tile_node_for(placement.slot_of(b))
        if router is not None:
            path = router.find(empty, source, target)
        else:
            path = find_path(routing_graph, empty, source, target)
        if path is None:
            continue  # disconnected pair (defective chips); no load to record
        for edge_a, edge_b in zip(path.nodes, path.nodes[1:]):
            corridor = routing_graph.corridor_of(edge_a, edge_b)
            if corridor is not None:
                load[corridor] = load.get(corridor, 0.0) + weight
    return load


# perfbench/tracing.py wraps this name; it is the unified function.
edge_load = corridor_load


def adjust_bandwidth(
    chip: Chip, placement: Placement, graph: CommunicationGraph, engine: str = "reference"
) -> Chip:
    """Redistribute spare lanes towards the most loaded corridors.

    Every corridor keeps at least one lane and the chip's physical lane
    budget is respected.  The budget's scope
    (:attr:`~repro.chip.chip.Chip.lane_budget_scope`) selects the policy:

    * ``"axis"`` (square chips) — per-axis largest remainder: each axis's
      spare lanes go to its corridors in proportion to their load;
    * ``"node"`` (graph chips) — per-node greedy: every edge starts at one
      lane, then spare node width goes to edges in descending load order
      while both endpoints have budget left.

    Without spare budget (the minimum viable chip) the chip is returned
    unchanged and no CNOT is pre-routed.
    """
    return _ALLOCATION_POLICIES[chip.lane_budget_scope](chip, placement, graph, engine)


def _allocate_per_axis(
    chip: Chip, placement: Placement, graph: CommunicationGraph, engine: str
) -> Chip:
    h_budget, v_budget = chip.lane_budget_per_axis()
    h_corridors, v_corridors = chip.tile_rows + 1, chip.tile_cols + 1
    if h_budget <= h_corridors and v_budget <= v_corridors:
        return chip
    load = corridor_load(chip, placement, graph, engine=engine)
    h_bandwidths = _distribute([load.get(("h", r), 0.0) for r in range(h_corridors)], h_budget)
    v_bandwidths = _distribute([load.get(("v", c), 0.0) for c in range(v_corridors)], v_budget)
    return chip.with_bandwidths(h_bandwidths, v_bandwidths)


def _distribute(load: list[float], budget: int) -> list[int]:
    """Give every corridor one lane, then spare lanes proportionally to load."""
    corridors = len(load)
    bandwidths = [1] * corridors
    spare = budget - corridors
    if spare <= 0:
        return bandwidths
    total_load = sum(load)
    if total_load <= 0:
        # No recorded traffic: spread the spare lanes evenly from the centre out.
        order = sorted(range(corridors), key=lambda i: abs(i - corridors / 2.0 + 0.5))
        for offset in range(spare):
            bandwidths[order[offset % corridors]] += 1
        return bandwidths
    # Largest-remainder proportional allocation.
    shares = [spare * load[i] / total_load for i in range(corridors)]
    allocated = [int(share) for share in shares]
    remaining = spare - sum(allocated)
    remainder_order = sorted(range(corridors), key=lambda i: shares[i] - allocated[i], reverse=True)
    for i in remainder_order[:remaining]:
        allocated[i] += 1
    return [1 + allocated[i] for i in range(corridors)]


def _allocate_per_node(
    chip: Chip, placement: Placement, graph: CommunicationGraph, engine: str
) -> Chip:
    tile_graph = chip.tile_graph
    budgets = list(tile_graph.effective_node_budgets())
    bandwidths = [1] * tile_graph.num_edges
    for a, b in tile_graph.edges:
        budgets[a] -= 1
        budgets[b] -= 1
    if all(b <= 0 for b in budgets):
        return chip
    corridors = corridor_load(chip, placement, graph, engine=engine)
    load = [corridors.get(("e", index), 0.0) for index in range(tile_graph.num_edges)]
    order = sorted(range(tile_graph.num_edges), key=lambda e: (-load[e], e))
    granted = True
    while granted:
        granted = False
        for index in order:
            if load[index] <= 0:
                continue
            a, b = tile_graph.edges[index]
            if budgets[a] >= 1 and budgets[b] >= 1:
                bandwidths[index] += 1
                budgets[a] -= 1
                budgets[b] -= 1
                granted = True
    if bandwidths == list(tile_graph.bandwidths):
        return chip
    return chip.with_edge_bandwidths(bandwidths)


#: Lane-allocation policy per :attr:`~repro.chip.chip.Chip.lane_budget_scope`.
_ALLOCATION_POLICIES = {"axis": _allocate_per_axis, "node": _allocate_per_node}


def build_initial_mapping(
    circuit: Circuit,
    chip: Chip,
    cut_types: CutAssignment | None,
    placement_strategy: str = "ecmas",
    adjust: bool = True,
    attempts: int = 4,
    seed: int = 0,
    placement_engine: str = "reference",
    routing_engine: str = "reference",
) -> InitialMapping:
    """Run the full pre-processing pipeline for ``circuit`` on ``chip``."""
    graph = circuit.communication_graph()
    shape = determine_shape(circuit.num_qubits, chip)
    placement = establish_placement(
        graph,
        chip,
        shape,
        strategy=placement_strategy,
        attempts=attempts,
        seed=seed,
        placement_engine=placement_engine,
    )
    placement.validate(chip)
    adjusted_chip = adjust_bandwidth(chip, placement, graph, engine=routing_engine) if adjust else chip
    cost = communication_cost(graph, placement, distance=chip.slot_distance)
    return InitialMapping(
        chip=adjusted_chip,
        placement=placement,
        cut_types=cut_types,
        shape=shape,
        mapping_cost=cost,
    )
