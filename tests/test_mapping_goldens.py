"""Golden outputs of the mapping stage: placements, adjusted bandwidths, schedules.

``tests/test_pipeline_parity.py`` re-creates the seed's call sequences, but
those replicas call the same ``build_initial_mapping`` as the pipeline, so a
drift in placement or bandwidth adjusting moves both sides at once.  This
module pins the outputs themselves, per case:

* the ``qubit_to_slot`` map;
* the adjusted corridor bandwidths (``h``/``v`` on square chips, per-edge
  ``bandwidths`` on tile-graph chips);
* ``num_cycles`` and a sha256 of the serialised ``encoded.operations``.

Cases cover:

* the Table I suite on square chips;
* every placement strategy with both placement engines on a square chip with
  dead tiles and on a heavy-hex chip, with 25-qubit circuits so the
  multilevel core does not fall back to classic KL;
* ``heavy_hex:3x3`` and ``sparse3:24:7`` for both surface-code models,
  including a defective ``sparse3`` chip;
* graph chips with spare node budgets, the only place the per-edge lane
  allocation runs.

The fixture is regenerated with ``PYTHONPATH=src python
tests/test_mapping_goldens.py``; do that only for an intended behaviour
change, and say so in the change log.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.chip import (
    Chip,
    DefectSpec,
    SurfaceCodeModel,
    builtin_tile_graph,
    random_defects,
)
from repro.circuits.generators import default_suite, get_benchmark
from repro.pipeline.registry import run_pipeline_method
from repro.service.schema import operation_payload

DD = SurfaceCodeModel.DOUBLE_DEFECT
LS = SurfaceCodeModel.LATTICE_SURGERY

FIXTURE = Path(__file__).parent / "fixtures" / "mapping_goldens.json"

TABLE1_METHODS = ("ecmas_dd_min", "ecmas_dd_4x", "ecmas_ls_min", "edpci_min", "autobraid")
STRATEGIES = ("ecmas", "metis", "trivial", "spectral", "random")
PLACEMENT_ENGINES = ("reference", "fast")
GRAPH_CIRCUITS = ("dnn_n8", "bv_n10", "qft_n10", "sat_n11", "multiplier_n15")


def _dead_tile_chip() -> Chip:
    """A 6x6 DD chip with spare lanes, three dead tiles and one disabled segment."""
    chip = Chip.four_x(DD, 36, 3)
    return chip.with_defects(
        DefectSpec(dead_tiles=((1, 1), (2, 3), (4, 4)), disabled_segments=(("h", 2, 1),))
    )


def _graph_chip(spec: str, model: SurfaceCodeModel, defect_rate: float = 0.0) -> Chip:
    chip = Chip.from_tile_graph(model, 3, builtin_tile_graph(spec))
    if defect_rate:
        chip = chip.with_defects(random_defects(chip, defect_rate, seed=5, min_alive_tiles=15))
    return chip


def _spare_budget_chip(spec: str, model: SurfaceCodeModel, spare: int) -> Chip:
    """A graph chip whose every node has ``spare`` lanes beyond its incident sum."""
    graph = builtin_tile_graph(spec)
    budgets = tuple(
        sum(graph.bandwidths[e] for e in graph.incident_edges(node)) + spare
        for node in range(graph.num_nodes)
    )
    return Chip.from_tile_graph(model, 3, dataclasses.replace(graph, node_budgets=budgets))


def _cases() -> dict[str, dict]:
    """Every case: id -> keyword arguments of :func:`run_pipeline_method`."""
    cases: dict[str, dict] = {}
    for spec in default_suite():
        for method in TABLE1_METHODS:
            cases[f"table1/{spec.name}/{method}"] = {"circuit": spec.name, "method": method}
    for engine in PLACEMENT_ENGINES:
        for strategy in STRATEGIES:
            cases[f"dead_tiles/{strategy}/{engine}"] = {
                "circuit": "multiplier_n25",
                "method": f"location:{strategy}",
                "chip": _dead_tile_chip,
                "placement": engine,
            }
            cases[f"heavy_hex_strategies/{strategy}/{engine}"] = {
                "circuit": "swap_test_n25",
                "method": f"location:{strategy}",
                "chip": lambda: _graph_chip("heavy_hex:4x4", DD),
                "placement": engine,
            }
    for geometry in ("heavy_hex:3x3", "sparse3:24:7"):
        for method, model in (("ecmas_dd_min", DD), ("ecmas_ls_min", LS)):
            for circuit in GRAPH_CIRCUITS:
                cases[f"{geometry}/{circuit}/{method}"] = {
                    "circuit": circuit,
                    "method": method,
                    "chip": lambda g=geometry, m=model: _graph_chip(g, m),
                }
    for method, model in (("ecmas_dd_min", DD), ("ecmas_ls_min", LS)):
        for circuit in ("bv_n10", "qft_n10"):
            cases[f"sparse3:24:7+defects/{circuit}/{method}"] = {
                "circuit": circuit,
                "method": method,
                "chip": lambda m=model: _graph_chip("sparse3:24:7", m, defect_rate=0.1),
            }
    for geometry, spare in (("heavy_hex:3x3", 2), ("sparse3:24:7", 1)):
        for method, model in (("ecmas_dd_min", DD), ("ecmas_ls_min", LS)):
            for circuit in ("bv_n10", "qft_n10", "multiplier_n15"):
                cases[f"{geometry}+spare{spare}/{circuit}/{method}"] = {
                    "circuit": circuit,
                    "method": method,
                    "chip": lambda g=geometry, m=model, s=spare: _spare_budget_chip(g, m, s),
                }
    return cases


CASES = _cases()


def compute(case: dict) -> dict:
    """The pinned outputs of one case."""
    kwargs = dict(case)
    circuit = get_benchmark(kwargs.pop("circuit")).build()
    method = kwargs.pop("method")
    chip_factory = kwargs.pop("chip", None)
    chip = chip_factory() if chip_factory is not None else None
    result = run_pipeline_method(circuit, method, chip=chip, engine="fast", **kwargs)
    encoded = result.encoded
    adjusted = encoded.chip
    if adjusted.tile_graph is not None:
        bandwidths = {"bandwidths": list(adjusted.tile_graph.bandwidths)}
    else:
        bandwidths = {"h": list(adjusted.h_bandwidths), "v": list(adjusted.v_bandwidths)}
    operations = json.dumps(
        [operation_payload(op) for op in encoded.operations], sort_keys=True, separators=(",", ":")
    )
    return {
        "qubit_to_slot": [
            [qubit, slot.row, slot.col]
            for qubit, slot in sorted(encoded.placement.qubit_to_slot.items())
        ],
        **bandwidths,
        "num_cycles": encoded.num_cycles,
        "operations_sha256": hashlib.sha256(operations.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(goldens):
    assert sorted(goldens) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_mapping_outputs_match_golden(case_id, goldens):
    assert compute(CASES[case_id]) == goldens[case_id]


if __name__ == "__main__":
    outputs = {case_id: compute(CASES[case_id]) for case_id in sorted(CASES)}
    FIXTURE.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {FIXTURE}")
