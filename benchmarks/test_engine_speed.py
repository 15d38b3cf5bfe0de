"""Benchmark: reference-vs-fast engine wall-clock over the Table I suite.

For every (non-large) Table I circuit this compiles ``ecmas_dd_min`` and
``ecmas_ls_min`` with both engines, prints per-circuit schedule-stage times,
and asserts the headline property of the fast engine: identical schedules at
a large aggregate schedule-stage speedup.  The table holds timings only, so
it is printed, not written under ``benchmarks/results/``; repeated timings
with a noise estimate come from ``perfbench/``.

The measurement runs under a :class:`~repro.service.state.WarmStateCache`
routing provider — the daemon scenario the ``core.engines`` provider seam
exists for — so both engines compile against warm per-chip state (the
reference engine reuses the routing graph; the fast engine additionally
reuses its compact array graph, landmark tables and static-path cache).
Round 1 is the cold round that pays one-time build costs; timing takes the
best of ``_ROUNDS`` rounds, and the one-time landmark/array build cost is
reported *separately* per circuit (``build_ms``) rather than being smeared
into the per-compile numbers, so shallow circuits on big chips (bv_n50,
ising_n50, ghz_state_n23) are no longer judged on table-construction time
they pay exactly once per chip.

The speedup assertion is made on the whole-suite aggregate (both methods
combined), not per circuit, so no single noisy row can fail the build.  On
noisy shared machines (CI runners) the thresholds can be adjusted via
``ECMAS_ENGINE_SPEED_MIN`` (overall aggregate, default 5x) and
``ECMAS_ENGINE_SPEED_MIN_METHOD`` (per-method floor, default 2x); schedule
parity is always asserted strictly.
"""

from __future__ import annotations

import os

from conftest import full_benchmarks_enabled

from repro.circuits.generators import default_suite
from repro.core.engines import set_routing_provider
from repro.eval import format_table
from repro.profiling import compare_engines
from repro.service.state import WarmStateCache

_METHODS = ("ecmas_dd_min", "ecmas_ls_min")
_ROUNDS = 3

#: Required overall aggregate schedule-stage speedup, both methods combined.
_MIN_SPEEDUP = float(os.environ.get("ECMAS_ENGINE_SPEED_MIN", "5.0"))
#: Per-method aggregate floor (the old guarantee, kept as a backstop).
_MIN_METHOD_SPEEDUP = float(os.environ.get("ECMAS_ENGINE_SPEED_MIN_METHOD", "2.0"))


def _measure(circuit, method):
    """Best-of-N comparison for one (circuit, method) cell."""
    best = None
    build_seconds = 0.0
    for _ in range(_ROUNDS):
        comparison = compare_engines(circuit, method)
        assert comparison.schedules_identical, (
            f"{method} on {circuit.name}: fast engine diverged from reference"
        )
        # The cold round is the one that actually built landmark tables.
        build_seconds = max(
            build_seconds,
            comparison.counters["fast"].get("landmark_build_seconds", 0.0),
        )
        if best is None:
            best = {
                "schedule": dict(comparison.schedule_seconds),
                "compile": dict(comparison.compile_seconds),
                "cycles": comparison.cycles,
            }
        else:
            for stage in ("schedule", "compile"):
                for engine in ("reference", "fast"):
                    best[stage][engine] = min(
                        best[stage][engine], getattr(comparison, f"{stage}_seconds")[engine]
                    )
    best["build"] = build_seconds
    return best


def test_engine_speed():
    suite = default_suite(include_large=full_benchmarks_enabled())
    rows = []
    totals = {m: {"reference": 0.0, "fast": 0.0} for m in _METHODS}
    cache = WarmStateCache(capacity=4)
    previous = set_routing_provider(cache.acquire)
    try:
        for spec in suite:
            circuit = spec.build()
            row = {"circuit": spec.name, "n": circuit.num_qubits, "g": circuit.num_cnots}
            for method in _METHODS:
                best = _measure(circuit, method)
                prefix = "dd" if "dd" in method else "ls"
                reference = best["schedule"]["reference"]
                fast = best["schedule"]["fast"]
                totals[method]["reference"] += reference
                totals[method]["fast"] += fast
                row[f"{prefix}_ref_ms"] = round(reference * 1000, 2)
                row[f"{prefix}_fast_ms"] = round(fast * 1000, 2)
                row[f"{prefix}_build_ms"] = round(best["build"] * 1000, 2)
                row[f"{prefix}_speedup"] = round(reference / fast, 2) if fast else 0.0
            rows.append(row)
    finally:
        set_routing_provider(previous)

    dd = totals["ecmas_dd_min"]
    ls = totals["ecmas_ls_min"]
    dd_speedup = dd["reference"] / dd["fast"]
    ls_speedup = ls["reference"] / ls["fast"]
    overall_ref = dd["reference"] + ls["reference"]
    overall_fast = dd["fast"] + ls["fast"]
    overall_speedup = overall_ref / overall_fast
    text = format_table(
        rows,
        title="Engine speed — warm schedule-stage ms (best of rounds) and one-time "
        "landmark build ms, reference vs fast",
    )
    text += (
        f"\nAggregate schedule-stage speedup (warm routing state, best of {_ROUNDS} rounds):\n"
        f"  ecmas_dd_min: {dd_speedup:.2f}x "
        f"({dd['reference'] * 1000:.1f} ms -> {dd['fast'] * 1000:.1f} ms)\n"
        f"  ecmas_ls_min: {ls_speedup:.2f}x "
        f"({ls['reference'] * 1000:.1f} ms -> {ls['fast'] * 1000:.1f} ms)\n"
        f"  overall:      {overall_speedup:.2f}x "
        f"({overall_ref * 1000:.1f} ms -> {overall_fast * 1000:.1f} ms)\n"
    )
    print("\n" + text)

    assert overall_speedup >= _MIN_SPEEDUP, (
        f"fast engine only {overall_speedup:.2f}x aggregate over the suite"
    )
    assert dd_speedup >= _MIN_METHOD_SPEEDUP, f"fast DD engine only {dd_speedup:.2f}x over the suite"
    assert ls_speedup >= _MIN_METHOD_SPEEDUP, f"fast LS engine only {ls_speedup:.2f}x over the suite"
