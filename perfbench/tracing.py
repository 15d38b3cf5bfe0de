"""Spans and counters recorded from outside the program under test.

``install`` wraps the public function at each layer boundary of the
compiler (pipeline passes, placement bisections, routing-state builds,
corridor loads, ReSu, the daemon's job executor) with a recorder that does
nothing while ``Tracer.enabled`` is false.  The program itself is unchanged:
every wrapper calls the original function with the original arguments.

Spans are kept in memory and exported as Chrome trace-event JSON.  Their
clock is ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), so spans of
the benchmark process and of the daemon it spawns share one timeline.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager

from stats import ratio

#: Engine counters (``PipelineResult.counters``) summed into tracer counts.
ENGINE_COUNTERS = (
    "route_calls",
    "route_failures",
    "nodes_expanded",
    "landmark_build_seconds",
    "static_path_hits",
    "layer_memo_hits",
    "layer_memo_misses",
    "cycles_simulated",
)


class Tracer:
    """Nested spans ``[name, start, end, parent, job, thread]`` plus counters.

    Recording is on only while ``enabled`` is true, so one process can
    alternate traced and untraced rounds and report the difference as the
    tracing overhead.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, job: str | None = None):
        """Record one span around the ``with`` body (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if job is None and parent >= 0:
            job = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, job, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def add(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (no-op while disabled)."""
        if self.enabled:
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + value

    def totals(self) -> dict[str, float]:
        """Seconds per span name, summed over every finished span."""
        out: dict[str, float] = {}
        for name, start, end, *_ in self.spans:
            if end is not None:
                out[name] = out.get(name, 0.0) + end - start
        return out

    def export(self, pid: int) -> dict:
        """A JSON-able dump: spans, counters and the recording process id."""
        return {"pid": pid, "spans": self.spans, "counts": self.counts}


def chrome_events(dump: dict) -> list[dict]:
    """Chrome trace-event ``X`` events for one :meth:`Tracer.export` dump."""
    events = []
    for index, (name, start, end, parent, job, thread) in enumerate(dump["spans"]):
        if end is None:
            continue
        events.append(
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": dump["pid"],
                "tid": thread,
                "args": {"span": index, "parent": parent, "job": job},
            }
        )
    return events


def _wrap(tracer: Tracer, owner, attr: str, span_name: str, after=None) -> None:
    """Replace ``owner.attr`` (module attribute or dict key) by a traced call."""
    is_dict = isinstance(owner, dict)
    original = owner[attr] if is_dict else getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        with tracer.span(span_name):
            result = original(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    if is_dict:
        owner[attr] = traced
    else:
        setattr(owner, attr, traced)


def _pass_classes(base):
    for cls in base.__subclasses__():
        yield cls
        yield from _pass_classes(cls)


def install(tracer: Tracer, *, counting_provider: bool) -> None:
    """Wrap every layer boundary of the imported program with ``tracer``.

    ``counting_provider`` installs a routing provider that builds exactly
    what :func:`repro.core.engines.routing_for` builds with no provider (a
    fresh graph and router per call) and counts and times those builds.  The
    daemon keeps its own warm-state provider, so there the builds are counted
    where that provider makes them instead.
    """
    from repro.core import engines, mapping
    from repro.partition import placement
    from repro.pipeline import passes
    from repro.pipeline.framework import Pass, Pipeline
    from repro.service import service, state

    # -- pipeline: one span per pass, named after the stage.
    for cls in _pass_classes(Pass):
        if "run" not in cls.__dict__:
            continue

        def make(run):
            @functools.wraps(run)
            def traced_run(self, ctx):
                if not tracer.enabled:
                    return run(self, ctx)
                with tracer.span(f"pipeline.{self.name}"):
                    return run(self, ctx)

            return traced_run

        cls.run = make(cls.__dict__["run"])

    # -- one span per compile; engine counters and landmark tables after it.
    routers_built: list = []
    original_pipeline_run = Pipeline.run

    @functools.wraps(original_pipeline_run)
    def traced_pipeline_run(self, ctx):
        if not tracer.enabled:
            return original_pipeline_run(self, ctx)
        del routers_built[:]
        with tracer.span("pipeline"):
            result = original_pipeline_run(self, ctx)
        for name, value in (result.counters or {}).items():
            if name in ENGINE_COUNTERS:
                tracer.add(f"engine.{name}", value)
        tracer.add("routing.landmark_tables", sum(r.landmark_table_count for r in routers_built))
        return result

    Pipeline.run = traced_pipeline_run

    # -- partition: bisections, placement attempts, mappings.
    def count_attempt(_placement):
        tracer.add("partition.attempts")

    for engine in list(placement._BISECTION_CORES):
        _wrap(
            tracer,
            placement._BISECTION_CORES,
            engine,
            "partition.bisection",
            after=lambda _sides: tracer.add("partition.bisections"),
        )
    for name in ("recursive_bisection_placement", "graph_recursive_bisection_placement"):
        _wrap(tracer, placement, name, "partition.attempt", after=count_attempt)

    establish = passes.establish_placement

    @functools.wraps(establish)
    def traced_establish(*args, **kwargs):
        if not tracer.enabled:
            return establish(*args, **kwargs)
        before = tracer.counts.get("partition.attempts", 0)
        with tracer.span("partition.establish_placement"):
            result = establish(*args, **kwargs)
        if tracer.counts.get("partition.attempts", 0) > before:
            tracer.add("partition.mappings")
        return result

    passes.establish_placement = traced_establish

    # -- core: corridor/edge loads (looked up as module globals) and ReSu.
    _wrap(tracer, mapping, "corridor_load", "core.corridor_load")
    _wrap(tracer, mapping, "edge_load", "core.corridor_load")
    _wrap(tracer, passes, "schedule_resu_double_defect", "core.resu")
    _wrap(tracer, passes, "schedule_resu_lattice_surgery", "core.resu")

    # -- chip/routing state builds.
    def record_router(router):
        if router is not None:
            routers_built.append(router)
            tracer.add("routing.router_builds")

    if counting_provider:
        from repro.chip.routing_graph import RoutingGraph

        def counting(chip, engine):
            with tracer.span("chip.routing_build"):
                graph = RoutingGraph(chip)
            tracer.add("chip.routing_builds")
            with tracer.span("routing.router_build"):
                router = engines.build_router(graph, engine)
            if tracer.enabled:
                record_router(router)
            return graph, router

        engines.set_routing_provider(counting)
    else:
        _wrap(
            tracer,
            state,
            "RoutingGraph",
            "chip.routing_build",
            after=lambda _graph: tracer.add("chip.routing_builds"),
        )
        _wrap(tracer, state, "build_router", "routing.router_build", after=record_router)

    # -- service: one span per daemon job, carrying the daemon's job id.
    execute = service.CompileService._execute

    @functools.wraps(execute)
    def traced_execute(self, job):
        with tracer.span("service.job", job=job.id):
            return execute(self, job)

    service.CompileService._execute = traced_execute


#: Pipeline stages reported on their own; the rest are summed as "other".
NAMED_STAGES = ("profile", "init_cut_types", "initial_mapping", "bandwidth_adjust", "schedule")


def layer_values(tracer: Tracer, traced_walls: list[float], to_reference: float = 1.0) -> dict:
    """Per-layer values per traced round, from one run's spans and counters.

    ``traced_walls`` are the wall seconds of the rounds run with tracing on;
    the stage spans' share of them is ``pipeline.coverage``.  Span seconds
    (and the engine's own landmark timer) are wall-clock; they are reported
    times ``to_reference``, which the in-process workloads set to the traced
    rounds' reference CPU seconds per wall second, so that the stage times
    add up to ``compile_s`` times the coverage.
    """
    counts = tracer.counts
    totals = {name: seconds * to_reference for name, seconds in tracer.totals().items()}
    rounds = len(traced_walls)

    def per_round(value: float) -> float:
        return value / rounds

    stage_total = sum(s for name, s in totals.items() if name.startswith("pipeline."))
    named = {f"pipeline.{stage}_s": per_round(totals.get(f"pipeline.{stage}", 0.0)) for stage in NAMED_STAGES}
    engine = {name: counts.get(f"engine.{name}", 0) for name in ENGINE_COUNTERS}
    memo = engine["layer_memo_hits"] + engine["layer_memo_misses"]
    return {
        **named,
        "pipeline.other_stages_s": per_round(stage_total) - sum(named.values()),
        "pipeline.coverage": ratio(stage_total / to_reference, sum(traced_walls)),
        "partition.bisections": per_round(counts.get("partition.bisections", 0)),
        "partition.bisection_s": per_round(totals.get("partition.bisection", 0.0)),
        "partition.placements_per_mapping": ratio(
            counts.get("partition.mappings", 0), counts.get("partition.attempts", 0)
        ),
        "chip.routing_builds": per_round(counts.get("chip.routing_builds", 0)),
        "chip.routing_build_s": per_round(totals.get("chip.routing_build", 0.0)),
        "routing.router_builds": per_round(counts.get("routing.router_builds", 0)),
        "routing.landmark_tables": per_round(counts.get("routing.landmark_tables", 0)),
        "routing.landmark_build_s": per_round(engine["landmark_build_seconds"] * to_reference),
        "routing.route_calls": per_round(engine["route_calls"]),
        "routing.route_failure_ratio": ratio(engine["route_failures"], engine["route_calls"]),
        "routing.expansions_per_route": ratio(engine["nodes_expanded"], engine["route_calls"]),
        "routing.static_hit_ratio": ratio(engine["static_path_hits"], engine["route_calls"]),
        "core.corridor_load_s": per_round(totals.get("core.corridor_load", 0.0)),
        "core.resu_s": per_round(totals.get("core.resu", 0.0)),
        "core.memo_hit_ratio": ratio(engine["layer_memo_hits"], memo),
        "core.cycles_simulated": per_round(engine["cycles_simulated"]),
        "trace.spans": per_round(len(tracer.spans)),
    }
