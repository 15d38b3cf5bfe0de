"""Graph partitioning and placement substrate (METIS substitute)."""

from repro.partition.coarsen import multilevel_bisection
from repro.partition.kl import GainBuckets, cut_weight, fm_refine, kernighan_lin_bisection
from repro.partition.placement import (
    PLACEMENT_ENGINES,
    Placement,
    best_placement,
    check_placement_engine,
    communication_cost,
    random_placement,
    recursive_bisection_placement,
    spectral_placement,
    trivial_snake_placement,
)

__all__ = [
    "kernighan_lin_bisection",
    "multilevel_bisection",
    "fm_refine",
    "GainBuckets",
    "cut_weight",
    "Placement",
    "PLACEMENT_ENGINES",
    "check_placement_engine",
    "communication_cost",
    "recursive_bisection_placement",
    "best_placement",
    "trivial_snake_placement",
    "spectral_placement",
    "random_placement",
]
