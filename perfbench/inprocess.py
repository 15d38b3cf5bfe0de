"""The in-process workloads: ``table1``, ``large_ising`` and ``geometry``.

Each round compiles the workload's whole job list once by calling
``run_pipeline_method`` directly: no result cache, no worker pool, and
routing state built cold for every job, as ``repro table 1`` pays it.  The
circuits and chips are built once, before the first round.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

from machine import Speedometer
from stats import Stat, at_percentile, geomean, of_samples, ratio
from tracing import Tracer, install, layer_values

#: Geometries of the ``geometry`` workload (``repro --geometry`` spec strings).
GEOMETRIES = ("heavy_hex:4x4", "sparse3:24:7")

#: Timed rounds a run makes at least, whatever ``--seconds`` says, so that
#: ``compile_s`` is a median of several rounds even for ``large_ising``.
MIN_ROUNDS = 3

#: Warm reruns of the job list through the result cache, timed after the
#: rounds: at least this many, and more until ``HIT_SAMPLES`` answers.
HIT_RERUNS = 20
HIT_SAMPLES = 40

@dataclass
class Job:
    """One compile: a circuit, a method and the ``run_pipeline_method`` keywords."""

    id: str
    circuit: object
    method: str
    kwargs: dict = field(default_factory=dict)


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list, in an order drawn from ``seed``."""
    from repro.circuits.generators import default_suite

    if workload == "large_ising":
        from repro.circuits.generators.standard import ising

        return [
            Job(
                "ising_n1000/ecmas_dd_min",
                ising(1000, 6),
                "ecmas_dd_min",
                {"engine": "fast", "window": 64, "placement": "fast"},
            )
        ]
    circuits = [spec.build() for spec in default_suite()]
    if workload == "table1":
        from repro.eval.tables import TABLE1_METHODS

        jobs = [
            Job(f"{c.name}/{m}", c, m, {"engine": "fast"}) for c in circuits for m in TABLE1_METHODS
        ]
    else:
        from repro.chip import Chip, SurfaceCodeModel
        from repro.chip.tile_graph import builtin_tile_graph

        jobs = []
        for geometry in GEOMETRIES:
            graph = builtin_tile_graph(geometry)
            for method, model in (
                ("ecmas_dd_min", SurfaceCodeModel.DOUBLE_DEFECT),
                ("ecmas_ls_min", SurfaceCodeModel.LATTICE_SURGERY),
            ):
                chip = Chip.from_tile_graph(model, 3, graph)
                jobs.extend(
                    Job(f"{c.name}/{method}@{geometry}", c, method, {"engine": "fast", "chip": chip})
                    for c in circuits
                    if c.num_qubits <= graph.num_nodes
                )
    random.Random(seed).shuffle(jobs)
    return jobs


@dataclass
class Round:
    """One pass over the job list: timings, and per job its cycles or its error.

    Times are reference CPU seconds (see ``machine.py``), except ``wall``,
    the round's wall-clock seconds against which its spans are compared.
    """

    wall: float
    cpu: float
    traced: bool
    latencies: list[float]  # per job
    outcomes: list  # num_cycles, or the exception the job raised


def run_round(jobs: list[Job], tracer: Tracer, label: str, meter: Speedometer) -> tuple[Round, list]:
    """Compile every job once, timing each job and the whole round.

    Returns the round and its pipeline results (``None`` for failed jobs).
    Callers keep only the latest results alive, so the live heap, and with
    it the garbage collector's work, does not grow from round to round.
    """
    from repro.pipeline.registry import run_pipeline_method

    latencies, samples, outcomes, results = [], [], [], []
    started, mark = time.perf_counter(), meter.mark()
    with tracer.span("round", job=label):
        for job in jobs:
            job_mark = meter.mark()
            with tracer.span("job", job=f"{label}/{job.id}"):
                try:
                    result = run_pipeline_method(job.circuit, job.method, **job.kwargs)
                    outcomes.append(result.encoded.num_cycles)
                except Exception as exc:  # a failed job is counted, not fatal
                    result = None
                    outcomes.append(exc)
            latencies.append(meter.net(job_mark))
            samples.append((job_mark.samples, len(meter.samples)))
            results.append(result)
    wall, cpu = time.perf_counter() - started, meter.seconds(mark)
    latencies = [x * meter.scale_near(*taken) for x, taken in zip(latencies, samples)]
    return Round(wall, cpu, tracer.enabled, latencies, outcomes), results


def check(jobs: list[Job], rounds: list[Round], last: list, tracer: Tracer) -> tuple[list[bool], float]:
    """Per-job verdicts and the seconds validation took.

    A job passes when no round raised, every round (traced or not) gave the
    same cycle count, and the validator accepts its ``last`` schedule.
    """
    from repro.verify import validate_encoded_circuit

    verdicts, validate_seconds = [], 0.0
    for index, job in enumerate(jobs):
        outcomes = {r.outcomes[index] for r in rounds}
        if len(outcomes) != 1 or last[index] is None:
            verdicts.append(False)
            continue
        started = time.perf_counter()
        with tracer.span("verify.validate", job=job.id):
            report = validate_encoded_circuit(job.circuit, last[index].encoded)
        validate_seconds += time.perf_counter() - started
        verdicts.append(report.valid)
    return verdicts, validate_seconds


class HitProbe:
    """Warm reruns of the job list from a result cache, as ``repro table 1`` reruns.

    The cache is private to the run and filled from the warm-up round's
    results.  ``BatchJob`` has no ``window`` field, so the large_ising key
    omits it.
    """

    def __init__(self, jobs: list[Job], results: list, cache_dir):
        from repro.eval.runner import record_from_result
        from repro.pipeline.batch import BatchJob, ResultCache

        self.cache = ResultCache(cache_dir)
        self.batch_jobs, self.cycles = [], []
        for job, result in zip(jobs, results):
            batch_job = BatchJob(
                circuit=job.circuit,
                method=job.method,
                circuit_name=job.id,
                chip=job.kwargs.get("chip"),
                engine=job.kwargs["engine"],
                placement=job.kwargs.get("placement", "reference"),
            )
            record = record_from_result(result, job.circuit, job.method, circuit_name=job.id)
            self.cache.put(batch_job, record)
            self.batch_jobs.append(batch_job)
            self.cycles.append(result.encoded.num_cycles)
        self.reruns = max(HIT_RERUNS, math.ceil(HIT_SAMPLES / len(jobs)))

    def run(self, meter: Speedometer) -> list[float]:
        """Rerun the job list from the cache; reference CPU seconds per job, per rerun."""
        from repro.pipeline.batch import run_batch

        per_job = []
        for _ in range(self.reruns):
            mark = meter.mark()
            outcome = run_batch(self.batch_jobs, workers=1, cache=self.cache)
            seconds = meter.net(mark) * meter.scale_near(mark.samples, len(meter.samples))
            per_job.append(seconds / len(self.batch_jobs))
            if outcome.cache_hits != len(self.batch_jobs) or [r.cycles for r in outcome.records] != self.cycles:
                raise RuntimeError("the result cache did not return every job's record")
        return per_job


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir) -> dict:
    """Run one in-process workload; returns the raw outcome for the report."""
    jobs = build_jobs(workload, seed)
    tracer = Tracer()
    if trace:
        install(tracer, counting_provider=True)
    cache_dir = out_dir / f"cache-{workload}-{seed}-{os.getpid()}"
    meter = Speedometer()
    meter.start()
    try:
        gc.collect()
        warmup, last = run_round(jobs, tracer, "warmup", meter)
        hits = HitProbe(jobs, last, cache_dir) if None not in last else None
        rounds: list[Round] = []
        first = time.perf_counter()
        # A traced run alternates traced and untraced rounds.
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - first < seconds:
            last = None
            gc.collect()
            tracer.enabled = trace and len(rounds) % 2 == 0
            timed, last = run_round(jobs, tracer, f"round{len(rounds)}", meter)
            rounds.append(timed)
            tracer.enabled = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        tracer.enabled = trace
        verdicts, validate_seconds = check(jobs, [warmup, *rounds], last, tracer)
        tracer.enabled = False
        last = None
        gc.collect()
        hit_times = hits.run(meter) if hits is not None else []
    finally:
        meter.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)
    failed = verdicts.count(False)

    untraced = [r for r in rounds if not r.traced]
    # Each job's median over the rounds, so that one slow moment of the
    # machine or one garbage collection does not move a job's latency.
    latencies_ms = [statistics.median(r.latencies[i] for r in untraced) * 1e3 for i in range(len(jobs))]
    cycles = [c for c in warmup.outcomes if not isinstance(c, Exception)]
    end_to_end = {
        "compile_s": of_samples([r.cpu for r in untraced]),
        "cycles_geomean": Stat(geomean(cycles) if cycles else 0.0, len(cycles)),
        "peak_rss_mb": Stat(peak_rss_mb, 1),
        "ok_ratio": Stat(ratio(len(jobs) - failed, len(jobs)), len(jobs)),
        "req_ms_p50": at_percentile(latencies_ms, 50),
        "req_ms_p90": at_percentile(latencies_ms, 90),
        "hit_ms_p50": at_percentile([x * 1e3 for x in hit_times], 50) if hit_times else Stat(0.0, 0),
        "req_per_s": Stat(len(jobs) / statistics.mean(r.cpu for r in untraced), len(untraced)),
    }
    per_layer = {}
    if trace:
        traced = [r for r in rounds if r.traced]
        to_reference = sum(r.cpu for r in traced) / sum(r.wall for r in traced)
        per_layer = layer_values(tracer, [r.wall for r in traced], to_reference)
        per_layer["trace.overhead_s"] = (
            statistics.median(r.cpu for r in traced) - statistics.median(r.cpu for r in untraced)
        )
        per_layer["verify.validate_s"] = validate_seconds
        per_layer["machine.kernel_ms"] = of_samples([x * 1e3 for x in meter.samples])
    return {
        "attempted": len(jobs),
        "failed": failed,
        "warmup_s": warmup.cpu,
        "traced_rounds": len(rounds) - len(untraced),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "trace_dumps": [tracer.export(os.getpid())] if trace else [],
    }
