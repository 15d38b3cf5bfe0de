"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  Results
are printed to stdout (run with ``-s`` to see them) and written as text files
under ``benchmarks/results/`` so EXPERIMENTS.md can reference concrete runs.
The written files hold deterministic columns only (see
:data:`TIMING_COLUMNS`), so a diff under ``benchmarks/results/`` is always a
behaviour change; timings are measured by ``perfbench/``.

Environment knobs:

* ``ECMAS_BENCH_FULL=1`` — include the very large Table I circuits
  (``qft_n50``, ``quantum_walk``, ``shor``) and use paper-sized figure groups.
* ``ECMAS_BENCH_JOBS=N`` — fan table regeneration across ``N`` worker
  processes through the batch engine (``0`` = one per CPU; default serial).
* ``ECMAS_BENCH_CACHE=DIR`` — reuse compile results from an on-disk cache
  (off by default: benchmarks measure compilation, so caching would lie).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.eval import format_table
from repro.pipeline.batch import ResultCache

RESULTS_DIR = Path(__file__).parent / "results"

#: Columns holding single-sample timings, or figures derived from them, that
#: differ on every run.  Printed tables keep them; result files leave them out.
TIMING_COLUMNS = frozenset(
    {"compile_s", "compile_time_ratio", "wall_s", "mapping_s", "schedule_s", "peak_rss_mb"}
)


def result_table(rows: list[dict], title: str) -> str:
    """The text of a committed result file: ``rows`` without :data:`TIMING_COLUMNS`."""
    return format_table(
        [{k: v for k, v in row.items() if k not in TIMING_COLUMNS} for row in rows], title=title
    )


def full_benchmarks_enabled() -> bool:
    """True when the slow, paper-scale configuration was requested."""
    return os.environ.get("ECMAS_BENCH_FULL", "0") == "1"


def bench_jobs() -> int:
    """Worker-process count for batch-engine table regeneration."""
    return int(os.environ.get("ECMAS_BENCH_JOBS", "1"))


def bench_cache() -> ResultCache | None:
    """Result cache for table regeneration, when explicitly requested."""
    directory = os.environ.get("ECMAS_BENCH_CACHE", "")
    return ResultCache(directory) if directory else None


@pytest.fixture(scope="session")
def batch_options() -> dict:
    """``jobs=`` / ``cache=`` keyword arguments for the table builders."""
    return {"jobs": bench_jobs(), "cache": bench_cache()}


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where regenerated tables/figures are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_result(results_dir):
    """Write a named text artefact under benchmarks/results/."""

    def _save(name: str, text: str) -> Path:
        path = results_dir / name
        path.write_text(text, encoding="utf-8")
        return path

    return _save
