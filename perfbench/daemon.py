"""The ``daemon`` workload: a ``repro serve`` process under closed-loop load.

One daemon (1 worker, the default 8 warm chips, a fresh result cache under
the benchmark's output directory) serves two keep-alive connections of this
client.  Each connection replays its own request sequence, sending the next
request as soon as the previous one is answered (``wait: true``).  A round
of both sequences holds:

* 19 result-cache hits: Table I requests compiled once before timing;
* 40 unique inline-QASM ``random_parallel_circuit(20, 20, p)`` circuits
  (p = 1..10 with both methods, twice), which compile and write to the cache;
* 19 Table I requests with ``include_schedule``, one per Table I circuit,
  which always compile through the warm per-chip state.

Methods are ``ecmas_dd_min`` / ``ecmas_ls_min`` with ``engine`` omitted, so
the daemon uses its API default (the reference router).  On a machine with
two or more CPUs the daemon runs on one of them and this client on the
others, so the daemon's speed samples (``serve.py``) measure the CPU its
threads run on.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from machine import REFERENCE_S, cpu_ticks, stolen_share
from stats import Stat, at_percentile, geomean, of_samples, ratio
from tracing import Tracer, layer_values

HERE = Path(__file__).resolve().parent
METHODS = ("ecmas_dd_min", "ecmas_ls_min")
#: Requests per round besides one schedule request per Table I circuit (19),
#: for a mix of 1/4 hits, 1/2 unique circuits and 1/4 schedules.
ROUND_MIX = {"hit": 19, "unique": 40}
CONNECTIONS = 2
#: Timed rounds a run makes at least, whatever ``--seconds`` says.
MIN_ROUNDS = 3
TIMEOUT_S = 60


def table1_requests() -> list[tuple[str, str]]:
    """The fixed (circuit, method) pairs the hit and schedule requests draw from."""
    from repro.circuits.generators import default_suite

    return [(spec.name, method) for spec in default_suite() for method in METHODS]


class Daemon:
    """A ``perfbench/serve.py`` child: HTTP on an ephemeral port plus control lines."""

    def __init__(self, trace: bool, cache_dir: Path, env: dict, cpu: int | None):
        env = dict(env, REPRO_CACHE_DIR=str(cache_dir))
        command = [sys.executable, str(HERE / "serve.py")]
        command += ["--cpu", str(cpu)] if cpu is not None else []
        command += ["--trace"] if trace else []
        command += ["--port", "0", "--jobs", "1", "--cache-dir", str(cache_dir), "--quiet"]
        self.stderr: list[str] = []
        self._listening = threading.Event()
        self.port = 0
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=HERE.parent,
        )
        threading.Thread(target=self._read_stderr, daemon=True).start()
        try:
            if not self._listening.wait(TIMEOUT_S):
                raise RuntimeError("daemon did not start:\n" + "".join(self.stderr))
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
            connection.request("GET", "/healthz")
            if connection.getresponse().status != 200:
                raise RuntimeError("daemon /healthz did not answer 200")
            connection.close()
        except BaseException:
            self.close()
            raise

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)
            if "listening on http://" in line:
                self.port = int(line.rsplit(":", 1)[1])
                self._listening.set()

    def command(self, line: str) -> str:
        """Send one control line and return the reply."""
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline().strip()

    def since(self) -> dict:
        """Reference CPU seconds since the last ``mark`` command, and their scale."""
        return json.loads(self.command("since"))

    def stats(self) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
        try:
            connection.request("GET", "/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def close(self) -> None:
        """Ask the daemon to shut down (as on Ctrl-C) and reap it."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.flush()
                self.proc.wait(TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


class Load:
    """Per-connection request sequences, and the client that sends them.

    Round ``r`` gives each connection a fixed pattern (unique, schedule,
    unique, hit, ...).  Over a round the two connections send every Table I
    circuit once as a schedule request (methods alternating by circuit and
    round), 19 hits cycling through the 38 pre-warmed Table I requests, and
    40 unique circuits (p = 1..10, both methods, twice).  The seed draws the
    unique circuits; the pattern does not depend on it, so every round of
    every run carries the same work.  (Independent draws of Table I requests,
    which take 3 ms to 180 ms to compile, made one seed's rounds 50% slower
    than another's.)
    """

    def __init__(self, seed: int, port: int):
        self.rng = random.Random(seed)
        self.seed = seed
        self.pairs = table1_requests()
        self.circuits = list(dict.fromkeys(name for name, _ in self.pairs))
        self.unique_sources: list[str] = []
        self._seen: set[str] = set()
        self.connections = [
            http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
            for _ in range(CONNECTIONS)
        ]

    def _unique(self, parallelism: int, method: str) -> dict:
        from repro.circuits.generators.random_parallel import random_parallel_circuit
        from repro.circuits.qasm import dumps

        while True:
            circuit = random_parallel_circuit(20, 20, parallelism, seed=self.rng.randrange(1 << 30))
            source = dumps(circuit)
            if source not in self._seen:
                break
        self._seen.add(source)
        self.unique_sources.append(source)
        index = len(self.unique_sources) - 1
        return {
            "kind": "unique",
            "key": ("qasm", index, method),
            "body": {"qasm": source, "name": f"rp{self.seed}_{index}"},
        }

    def _table1(self, kind: str, pair: tuple[str, str]) -> dict:
        body = {"circuit": pair[0]}
        if kind == "schedule":
            body["include_schedule"] = True
        return {"kind": kind, "key": ("named", pair[0], pair[1]), "body": body}

    def make_round(self, index: int) -> list[list[dict]]:
        """Round ``index``: one request sequence per connection."""
        schedules = [
            self._table1("schedule", (name, METHODS[(i + index) % 2]))
            for i, name in enumerate(self.circuits)
        ]
        hits = [
            self._table1("hit", self.pairs[(index * ROUND_MIX["hit"] + k) % len(self.pairs)])
            for k in range(ROUND_MIX["hit"])
        ]
        uniques = [
            self._unique(parallelism, method)
            for _ in range(ROUND_MIX["unique"] // 20)
            for parallelism in range(1, 11)
            for method in METHODS
        ]
        sequences = []
        for c in range(CONNECTIONS):
            mine = {kind: items[c::CONNECTIONS] for kind, items in
                    (("unique", uniques), ("schedule", schedules), ("hit", hits))}
            sequence = []
            while any(mine.values()):
                for kind in ("unique", "schedule", "unique", "hit"):
                    if mine[kind]:
                        sequence.append(mine[kind].pop(0))
            sequences.append(sequence)
        return sequences

    def prewarm_round(self) -> list[list[dict]]:
        """Every Table I pair once, on one connection, so later hits find them cached."""
        return [[self._table1("prewarm", pair) for pair in self.pairs]]

    def send(self, connection: http.client.HTTPConnection, request: dict) -> dict:
        body = dict(request["body"], method=request["key"][2], wait=True, timeout_seconds=TIMEOUT_S)
        data = json.dumps(body).encode("utf-8")
        started = time.perf_counter()
        try:
            connection.request("POST", "/compile", body=data, headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            status, raw = response.status, response.read()
            ended = time.perf_counter()  # the answer is in; decoding it is the client's own work
            payload = json.loads(raw)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            connection.close()  # reopened by the next request
            ended = time.perf_counter()
            status, payload = 0, {"error": repr(exc)}
        return {**request, "status": status, "payload": payload, "start": started, "end": ended}

    def run_round(self, sequences: list[list[dict]]) -> tuple[float, list[dict]]:
        """Send each sequence on its own connection, closed-loop; returns (wall, answers)."""
        answers: list[list[dict]] = [[] for _ in sequences]

        def replay(connection, sequence, out):
            for request in sequence:
                out.append(self.send(connection, request))

        threads = [
            threading.Thread(target=replay, args=args)
            for args in zip(self.connections, sequences, answers)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started, [a for out in answers for a in out]

    def close(self) -> None:
        for connection in self.connections:
            connection.close()


def expected_results(load: Load, answers: list[dict]) -> tuple[dict, float]:
    """In-process reference compile of every distinct request: key -> (cycles, valid)."""
    from repro.circuits import qasm
    from repro.circuits.generators import get_benchmark
    from repro.pipeline.registry import run_pipeline_method
    from repro.verify import validate_encoded_circuit

    expected, validate_seconds = {}, 0.0
    for key in sorted({a["key"] for a in answers}, key=repr):
        source, circuit_id, method = key
        if source == "named":
            circuit = get_benchmark(circuit_id).build()
        else:
            circuit = qasm.loads(load.unique_sources[circuit_id])
        try:
            encoded = run_pipeline_method(circuit, method).encoded
        except Exception:  # the daemon answer is then judged against nothing
            expected[key] = (None, False)
            continue
        started = time.perf_counter()
        report = validate_encoded_circuit(circuit, encoded)
        validate_seconds += time.perf_counter() - started
        expected[key] = (encoded.num_cycles, report.valid)
    return expected, validate_seconds


def passes(answer: dict, expected: dict) -> bool:
    """HTTP 200, job done, and the same cycles as a clean in-process compile."""
    payload = answer["payload"]
    if answer["status"] != 200 or payload.get("status") != "done":
        return False
    cycles, valid = expected[answer["key"]]
    return valid and payload["result"]["cycles"] == cycles


def service_values(answers: list[dict], before: dict, after: dict, rounds: int) -> dict:
    """The service layer's share of the client latency, from job timestamps and /stats."""
    http_ms, queue_ms, hit_run, compile_run = [], [], [], []
    for answer in answers:
        job = answer["payload"]
        in_job = job["finished_at"] - job["submitted_at"]
        run = (job["finished_at"] - job["started_at"]) * 1e3
        http_ms.append((answer["end"] - answer["start"] - in_job) * 1e3)
        queue_ms.append((job["started_at"] - job["submitted_at"]) * 1e3)
        (hit_run if job["result"].get("cached") else compile_run).append(run)

    def delta(section: str, name: str) -> float:
        return after[section][name] - before[section][name]

    warm_hits, warm_misses = delta("warm_state", "hits"), delta("warm_state", "misses")
    cache_hits, cache_misses = delta("result_cache", "hits"), delta("result_cache", "misses")
    return {
        "service.http_ms_p50": at_percentile(http_ms, 50),
        "service.queue_ms_p50": at_percentile(queue_ms, 50),
        "service.queue_ms_p90": at_percentile(queue_ms, 90),
        "service.hit_run_ms_p50": at_percentile(hit_run, 50),
        "service.compile_run_ms_p50": at_percentile(compile_run, 50),
        "service.warm_hit_ratio": Stat(ratio(warm_hits, warm_hits + warm_misses), int(warm_hits + warm_misses)),
        "service.warm_evictions": Stat(delta("warm_state", "evictions") / rounds, rounds),
        "service.result_cache_hit_ratio": Stat(
            ratio(cache_hits, cache_hits + cache_misses), int(cache_hits + cache_misses)
        ),
    }


def split_cpus() -> tuple[int | None, set[int] | None]:
    """A CPU for the daemon and the rest for the client (no pinning on one CPU)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[-1], set(cpus[:-1])


def latency_ms(answer: dict, speed: dict) -> float:
    """Client latency at reference speed on an unshared CPU.

    The job's queue wait and run (``finished_at - submitted_at``) are spent
    on the daemon's CPU, so they are scaled like its CPU time; the HTTP
    exchange around them is taken as measured.  Both lose the share of the
    round the host stole from the daemon's CPU.
    """
    job = answer["payload"]
    in_job = job["finished_at"] - job["submitted_at"]
    http = answer["end"] - answer["start"] - in_job
    return (http + in_job * speed["scale"]) * (1 - speed["stolen"]) * 1e3


def run(seed: int, seconds: float, trace: bool, out_dir: Path, env: dict, cold_starts: int) -> dict:
    """Run the daemon workload; returns the raw outcome for the report.

    ``compile_s`` and the set-up figures are the daemon process's CPU
    seconds at reference speed (``machine.py``), sampled by the daemon
    itself; latencies are as the client sees them, less the share the host
    stole from the daemon's CPU, with the part spent inside the daemon
    scaled to reference speed (``latency_ms``).  ``cold_starts`` daemons are
    started in turn, the last one serves the load, and ``setup_s`` takes the
    median of their start-up times.
    """
    daemon_cpu, client_cpus = split_cpus()
    if client_cpus is not None:
        os.sched_setaffinity(0, client_cpus)
    cache_dir = out_dir / f"daemon-cache-{seed}-{os.getpid()}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    probes, daemon, load = [], None, None
    phases = {"start": time.perf_counter()}
    try:
        for _ in range(cold_starts):
            if daemon is not None:
                daemon.close()
            shutil.rmtree(cache_dir, ignore_errors=True)
            daemon = Daemon(trace, cache_dir, env, daemon_cpu)
            probes.append(daemon.since()["seconds"])

        load = Load(seed, daemon.port)
        daemon.command("mark")
        _, prewarm = load.run_round(load.prewarm_round())
        _, warmup = load.run_round(load.make_round(0))
        warmup_s = daemon.since()["seconds"]

        before = daemon.stats()
        timed: list[tuple[bool, float, dict, list[dict]]] = []
        first = phases["timed"] = time.perf_counter()
        while len(timed) < MIN_ROUNDS or time.perf_counter() - first < seconds:
            sequences = load.make_round(len(timed) + 1)
            traced = trace and len(timed) % 2 == 0
            if trace:
                daemon.command(f"trace {'on' if traced else 'off'}")
            daemon.command("mark")
            ticks = cpu_ticks(daemon_cpu)
            wall, answers = load.run_round(sequences)
            speed = dict(daemon.since(), stolen=stolen_share(ticks, cpu_ticks(daemon_cpu)))
            timed.append((traced, wall, speed, answers))
        if trace:
            daemon.command("trace off")
        phases["check"] = time.perf_counter()
        after = daemon.stats()
        peak_rss_mb = int(daemon.command("rss")) / 1024
        dumps = []
        if trace:
            dump_path = out_dir / f"daemon-trace-{seed}-{os.getpid()}.json"
            daemon.command(f"dump {dump_path}")
            dumps.append(json.loads(dump_path.read_text()))
            dump_path.unlink()
    finally:
        if load is not None:
            load.close()
        if daemon is not None:
            daemon.close()
        shutil.rmtree(cache_dir, ignore_errors=True)

    everything = prewarm + warmup + [a for *_, answers in timed for a in answers]
    expected, validate_seconds = expected_results(load, everything)
    failed = sum(1 for answer in everything if not passes(answer, expected))
    phases["end"] = time.perf_counter()
    print(
        f"phases: set-up {phases['timed'] - phases['start']:.1f} s, timed {phases['check'] - phases['timed']:.1f} s,"
        f" check {phases['end'] - phases['check']:.1f} s"
    )

    untraced = [t for t in timed if not t[0]]
    latency = {True: [], False: []}  # keyed by "served from the result cache"
    measured = []
    for _, _, speed, answers in untraced:
        for answer in answers:
            if answer["payload"].get("status") == "done":
                measured.append(answer)
                cached = bool(answer["payload"]["result"].get("cached"))
                latency[cached].append(latency_ms(answer, speed))
    everyone = latency[True] + latency[False]
    for kind in ("hit", "unique", "schedule"):
        answers = [a for a in measured if a["kind"] == kind]
        if answers:
            whole = statistics.mean(a["end"] - a["start"] for a in answers) * 1e3
            jobs = [a["payload"] for a in answers]
            queue = statistics.mean(j["started_at"] - j["submitted_at"] for j in jobs) * 1e3
            run_ms = statistics.mean(j["finished_at"] - j["started_at"] for j in jobs) * 1e3
            print(
                f"{kind} requests, mean, unscaled: {whole:.1f} ms = HTTP {whole - queue - run_ms:.1f}"
                f" + queue {queue:.1f} + run {run_ms:.1f}"
            )
    raw_rate = ratio(len(measured), sum(wall for _, wall, _, _ in untraced))
    print(f"requests per wall-clock second, unscaled: {raw_rate:.2f}")
    print("per round: stolen share of the daemon's CPU", [round(t[2]["stolen"], 3) for t in timed],
          "speed scale", [round(t[2]["scale"], 3) for t in timed])
    fixed = [a["payload"]["result"]["cycles"] for a in prewarm if passes(a, expected)]
    end_to_end = {
        "compile_s": of_samples([speed["seconds"] for _, _, speed, _ in untraced]),
        "cycles_geomean": Stat(geomean(fixed) if fixed else 0.0, len(fixed)),
        "peak_rss_mb": Stat(peak_rss_mb, 1),
        "ok_ratio": Stat(ratio(len(everything) - failed, len(everything)), len(everything)),
        "req_ms_p50": at_percentile(latency[False], 50),
        "req_ms_p90": at_percentile(latency[False], 90),
        "hit_ms_p50": at_percentile(latency[True], 50),
        # Closed loop with no think time: throughput = connections / mean latency.
        "req_per_s": Stat(ratio(CONNECTIONS * 1e3, statistics.mean(everyone)) if everyone else 0.0, len(everyone)),
    }
    per_layer = {}
    if trace:
        recorded = Tracer()
        recorded.spans, recorded.counts = dumps[0]["spans"], dumps[0]["counts"]
        traced = [t for t in timed if t[0]]
        per_layer = layer_values(recorded, [wall for _, wall, _, _ in traced])
        per_layer["trace.overhead_s"] = statistics.median(s["seconds"] for _, _, s, _ in traced) - statistics.median(
            s["seconds"] for _, _, s, _ in untraced
        )
        per_layer["verify.validate_s"] = validate_seconds
        per_layer["machine.kernel_ms"] = of_samples([REFERENCE_S / s["scale"] * 1e3 for _, _, s, _ in timed])
        per_layer.update(service_values(measured, before, after, len(timed)))
        client = {"pid": os.getpid(), "counts": {}, "spans": [
            ["client.request", a["start"], a["end"], -1, a["payload"].get("job_id"), 0]
            for *_, answers in timed for a in answers
        ]}
        dumps.append(client)
    return {
        "attempted": len(everything),
        "failed": failed,
        "setup_probes": probes,
        "warmup_s": warmup_s,
        "traced_rounds": len(timed) - len(untraced),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "trace_dumps": dumps,
    }
