#!/usr/bin/env python3
"""Benchmark of the Ecmas compiler: four workloads, end-to-end and per layer.

Run from the root of a checkout (no build step; the program is imported
from ``src/``)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0

``--trace 0`` times untraced rounds and reports the end-to-end metrics;
``--trace 1`` alternates traced and untraced rounds, reports the per-layer
metrics and writes the spans as Chrome trace-event JSON under
``.perfbench_out/``.  Workloads, metrics and bounds are listed in
``BENCHMARK.json`` and explained in ``METRICS.md``.  Every metric is printed as a table
(value, IQR, sample count) and the last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import Stat, iqr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("table1", "large_ising", "geometry", "daemon")

#: Cold starts per run; ``setup_s`` takes their median.
SETUP_PROBES = 3


def program_env() -> dict:
    """Environment for child processes: the program's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def probe_setup(workload: str, seed: int) -> float:
    """Reference CPU seconds a fresh interpreter takes to import the program and build the inputs."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", workload,
         "--seed", str(seed)],
        env=program_env(), cwd=ROOT, check=True, timeout=120, capture_output=True, text=True,
    )
    return float(done.stdout)


def cold_start(workload: str, seed: int) -> None:
    """The body of a set-up probe: print its reference CPU seconds from process start."""
    from machine import Mark, Speedometer

    meter = Speedometer(clock=time.process_time)
    meter.start()
    import inprocess

    inprocess.build_jobs(workload, seed)
    meter.stop()
    print(meter.seconds(Mark(0, 0.0, 0.0)))


def report(spec: dict, outcome: dict, trace: bool) -> dict:
    """Print every measured metric as a table; return the JSON metrics block.

    The end-to-end metrics are always printed, the per-layer ones only in a
    traced run; a layer the workload never calls reads 0.
    """
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = {**outcome["end_to_end"], **{
        name: value if isinstance(value, Stat) else Stat(value, outcome["traced_rounds"])
        for name, value in outcome["per_layer"].items()
    }}
    print(f"{'metric':34} {'unit':6} {'value':>14} {'IQR':>12} {'n':>6}")
    for metric in spec["end_to_end"] + (spec["per_layer"] if trace else []):
        stat = values.setdefault(metric["name"], Stat(0.0, 0, note="layer not exercised"))
        spread = "-" if stat.iqr is None else f"{stat.iqr:.6g}"
        note = f"  ({stat.note})" if stat.note else ""
        print(f"{metric['name']:34} {metric['unit']:6} {stat.value:14.6g} {spread:>12} {stat.n:6}{note}")
    return {m["name"]: {"value": values[m["name"]].value, "unit": m["unit"]} for m in listed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe_setup:
        cold_start(args.workload, args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "daemon":
        import daemon

        outcome = daemon.run(args.seed, args.seconds, trace, OUT_DIR, program_env(), SETUP_PROBES)
    else:
        import inprocess

        probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        outcome = inprocess.run(args.workload, args.seed, args.seconds, trace, OUT_DIR)
        outcome["setup_probes"] = probes

    probes = outcome["setup_probes"]
    outcome["end_to_end"]["setup_s"] = Stat(
        statistics.median(probes) + outcome["warmup_s"], len(probes), iqr(probes)
    )
    if trace:
        from tracing import chrome_events

        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        events = [e for dump in outcome["trace_dumps"] for e in chrome_events(dump)]
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        print(f"trace: {len(events)} spans written to {path.relative_to(ROOT)}")

    metrics = report(spec, outcome, trace)
    correct = outcome["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
