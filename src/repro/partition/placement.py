"""Recursive-bisection placement of logical qubits onto a chip's tile slots.

This is the METIS-substitute used by the *mapping establishing* step of
Ecmas: the communication graph is recursively bisected (Kernighan–Lin) while
the region of alive tile slots is split alongside it, so heavily
communicating qubits land in nearby tiles.  The quality measure is the
paper's communication cost ``f = Σ γ_ij · l_ij`` (CNOT count times slot
distance), exposed as :func:`communication_cost`.

Every strategy takes the chip and the shape chosen by shape determining.
The decisions that depend on the chip's geometry — slot order, fill order
and how a region splits — sit behind :func:`repro.chip.regions.slot_region`,
so square and tile-graph chips run the same code.

Also provided:

* :func:`trivial_snake_placement` — the boustrophedon layout EDPCI uses,
* :func:`spectral_placement` — a numpy-based spectral alternative used by the
  ablation benches,
* :func:`random_placement` — the random baseline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.chip.chip import Chip, TileSlot
from repro.chip.regions import slot_region
from repro.circuits.comm_graph import CommunicationGraph
from repro.errors import ChipError, MappingError
from repro.partition.coarsen import multilevel_bisection
from repro.partition.kl import WeightMap, kernighan_lin_bisection

#: Placement engines: ``reference`` = classic KL recursive bisection (the
#: golden baseline), ``fast`` = multilevel coarsen/FM bisection.
PLACEMENT_ENGINES: tuple[str, ...] = ("reference", "fast")

#: Bisection core backing each placement engine.
_BISECTION_CORES = {
    "reference": kernighan_lin_bisection,
    "fast": multilevel_bisection,
}


def check_placement_engine(engine: str) -> str:
    """Validate a placement-engine name, returning it for chaining."""
    if engine not in PLACEMENT_ENGINES:
        raise MappingError(
            f"unknown placement engine {engine!r}; expected one of {PLACEMENT_ENGINES}"
        )
    return engine


def _check_fits(num_qubits: int, region) -> list[TileSlot]:
    """The region's alive slots in canonical order, raising when the circuit cannot fit.

    A region too small even when pristine is a :class:`MappingError`
    (caller's geometry is wrong); a region made too small by dead tiles is a
    :class:`ChipError` (the chip's defects are the problem).
    """
    if region.num_slots < num_qubits:
        raise MappingError(f"{region.describe()} too small for {num_qubits} qubits")
    alive = region.slots()
    if len(alive) < num_qubits:
        raise ChipError(
            f"{region.describe()} has only {len(alive)} alive slots "
            f"({region.num_slots - len(alive)} dead) but the circuit needs {num_qubits} qubits"
        )
    return alive


@dataclass(frozen=True)
class Placement:
    """An assignment of logical qubits to tile slots."""

    qubit_to_slot: dict[int, TileSlot]

    def slot_of(self, qubit: int) -> TileSlot:
        """Tile slot hosting ``qubit``."""
        try:
            return self.qubit_to_slot[qubit]
        except KeyError as exc:
            raise MappingError(f"qubit {qubit} has no tile assignment") from exc

    def slots(self) -> set[TileSlot]:
        """All occupied slots."""
        return set(self.qubit_to_slot.values())

    def num_qubits(self) -> int:
        """Number of placed qubits."""
        return len(self.qubit_to_slot)

    def validate(self, chip: Chip) -> None:
        """Raise :class:`MappingError` if the placement is inconsistent with ``chip``."""
        slots = list(self.qubit_to_slot.values())
        if len(set(slots)) != len(slots):
            raise MappingError("two qubits share a tile slot")
        for slot in slots:
            if not chip.contains_slot(slot):
                raise MappingError(f"slot {slot} outside the {chip.tile_rows}x{chip.tile_cols} tile array")
            if chip.is_dead_slot(slot):
                raise MappingError(f"slot {slot} is a dead tile on this chip")


def communication_cost(graph: CommunicationGraph, placement: Placement, distance=None) -> float:
    """The paper's mapping cost function ``f = Σ γ_ij · l(T_i, T_j)``.

    ``distance`` is the slot metric; omitted, it is Manhattan distance (the
    paper's ``l_ij`` on the square lattice).  The placement strategies pass
    :meth:`~repro.chip.chip.Chip.slot_distance`, which is Manhattan on
    square chips and the BFS hop count on graph chips.
    """
    if distance is None:
        distance = TileSlot.manhattan_distance
    total = 0.0
    for a, b, weight in graph.edges():
        total += weight * distance(placement.slot_of(a), placement.slot_of(b))
    return total


def _weights_from_graph(graph: CommunicationGraph) -> WeightMap:
    return {(a, b): float(w) for a, b, w in graph.edges()}


# -------------------------------------------------------------------- placements
def recursive_bisection_placement(
    graph: CommunicationGraph,
    chip: Chip,
    shape: tuple[int, int] | None = None,
    seed: int | None = None,
    engine: str = "reference",
) -> Placement:
    """Place all qubits of ``graph`` into the alive slots of ``chip``'s ``shape`` window.

    Dead slots are never assigned; regions split by alive-slot counts, so
    defective chips bisect correctly.  ``engine`` selects the bisection
    core: the classic KL ``reference`` or the multilevel coarsen/FM ``fast``
    core (same size contract, near-linear cost — see
    :data:`PLACEMENT_ENGINES`).
    """
    region = slot_region(chip, shape)
    _check_fits(graph.num_qubits, region)
    bisect = _BISECTION_CORES[check_placement_engine(engine)]
    weights = _weights_from_graph(graph)
    assignment: dict[int, TileSlot] = {}
    _place_region(
        list(range(graph.num_qubits)), weights, region, assignment, random.Random(seed), bisect
    )
    return Placement(assignment)


def _place_region(
    qubits: list[int],
    weights: WeightMap,
    region,
    assignment: dict[int, TileSlot],
    rng: random.Random,
    bisect,
) -> None:
    """Bisect ``qubits`` alongside ``region`` until every qubit has a slot.

    A lone qubit takes the region's smallest alive slot.  When every qubit
    fits in one half, the recursion moves into the half that has slots
    without drawing from ``rng``; otherwise one seed is drawn per bisection.
    """
    if not qubits:
        return
    if len(qubits) == 1:
        assignment[qubits[0]] = region.first_slot()
        return
    if region.num_slots == 1:
        raise MappingError("more qubits than slots in a placement region")  # pragma: no cover
    first, second = region.split()
    size_first = min(len(qubits), first.num_alive())
    if size_first == 0 or size_first == len(qubits):
        _place_region(qubits, weights, first if size_first else second, assignment, rng, bisect)
        return
    side_a, side_b = bisect(qubits, weights, seed=rng.randrange(1 << 30), size_a=size_first)
    _place_region(sorted(side_a), weights, first, assignment, rng, bisect)
    _place_region(sorted(side_b), weights, second, assignment, rng, bisect)


def trivial_snake_placement(
    num_qubits: int, chip: Chip, shape: tuple[int, int] | None = None
) -> Placement:
    """The EDPCI "trivial" mapping: qubits in the region's fill order.

    On square chips that fills rows alternately left-to-right and
    right-to-left, skipping dead slots; on graph chips it walks the tiles in
    spatial order.
    """
    region = slot_region(chip, shape)
    _check_fits(num_qubits, region)
    order = region.fill_order()
    return Placement({qubit: order[qubit] for qubit in range(num_qubits)})


def random_placement(
    num_qubits: int,
    chip: Chip,
    shape: tuple[int, int] | None = None,
    seed: int | None = None,
) -> Placement:
    """Uniformly random assignment of qubits to distinct alive slots."""
    slots = _check_fits(num_qubits, slot_region(chip, shape))
    random.Random(seed).shuffle(slots)
    return Placement({qubit: slots[qubit] for qubit in range(num_qubits)})


def canonicalize_eigenvector_sign(vector: np.ndarray) -> np.ndarray:
    """Fix an eigenvector's arbitrary global sign: first nonzero entry > 0.

    ``v`` and ``-v`` are equally valid eigenvectors and which one LAPACK
    returns depends on the BLAS build, so any consumer that orders by raw
    component values (spectral placement does) would be platform-dependent
    without this.  Entries within ``1e-12`` of zero are treated as zero so
    rounding noise cannot flip the canonical choice.
    """
    for component in vector:
        if abs(component) > 1e-12:
            return -vector if component < 0 else vector
    return vector


def spectral_placement(
    graph: CommunicationGraph, chip: Chip, shape: tuple[int, int] | None = None
) -> Placement:
    """Spectral placement: order qubits by the Fiedler vector, then fill like the snake.

    A lightweight alternative to recursive bisection used in ablations; it
    tends to keep strongly connected qubits in adjacent slots.
    """
    n = graph.num_qubits
    _check_fits(n, slot_region(chip, shape))
    laplacian = np.zeros((n, n), dtype=float)
    for a, b, w in graph.edges():
        laplacian[a, b] -= w
        laplacian[b, a] -= w
        laplacian[a, a] += w
        laplacian[b, b] += w
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    # The Fiedler vector is the eigenvector of the second-smallest eigenvalue.
    order = np.argsort(eigenvalues)
    fiedler = eigenvectors[:, order[1]] if n > 1 else np.zeros(n)
    fiedler = canonicalize_eigenvector_sign(fiedler)
    ranking = sorted(range(n), key=lambda q: (fiedler[q], q))
    snake = trivial_snake_placement(n, chip, shape)
    return Placement({qubit: snake.slot_of(position) for position, qubit in enumerate(ranking)})


def best_placement(
    graph: CommunicationGraph,
    chip: Chip,
    shape: tuple[int, int] | None = None,
    attempts: int = 4,
    seed: int = 0,
    engine: str = "reference",
) -> Placement:
    """Run several seeded recursive bisections and keep the cheapest placement.

    Mirrors the paper: "Due to the stochastic steps in the mapping generation,
    we generate multiple mappings and select the one with minimal
    communication cost."  Costs use :meth:`~repro.chip.chip.Chip.slot_distance`.
    """
    best: Placement | None = None
    best_cost = float("inf")
    for attempt in range(max(1, attempts)):
        placement = recursive_bisection_placement(
            graph, chip, shape, seed=seed + attempt, engine=engine
        )
        cost = communication_cost(graph, placement, distance=chip.slot_distance)
        if cost < best_cost:
            best, best_cost = placement, cost
    assert best is not None
    return best


# perfbench/tracing.py wraps this name; it is the unified function.
graph_recursive_bisection_placement = recursive_bisection_placement
