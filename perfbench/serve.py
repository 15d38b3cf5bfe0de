"""``repro serve`` with a control channel for the benchmark's daemon workload.

Usage: ``python3 perfbench/serve.py [--cpu N] [--trace] <repro serve arguments>``.

The daemon is the program's own ``repro serve``; this launcher only adds a
line protocol on stdin/stdout (the daemon itself logs to stderr):

* ``trace on`` / ``trace off`` — start or stop recording spans, answers ``ok``;
* ``rss`` — answers the process's peak resident set size in KiB;
* ``mark`` — remembers the process's CPU time and speed samples, answers ``ok``;
* ``since`` — answers ``{"seconds": s, "scale": f}``: the reference CPU
  seconds the process used since the last ``mark`` (since it started, before
  any ``mark``) and the factor that turned CPU seconds into them;
* ``dump PATH`` — writes the recorded spans and counters as JSON, answers ``ok``;
* ``stop`` (or stdin closing) — stops the speed samples and shuts the
  server down; ``repro serve`` then closes it and exits.

The launcher samples the machine's speed with ``machine.Speedometer``.  Its
signal handler runs in the main thread only, so every other thread blocks
``SIGPROF``, and ``--cpu`` keeps every thread on one CPU, whose speed the
samples then measure.  With ``--trace`` the layer wrappers of
``tracing.install`` are in place (recording only while tracing is on);
without it nothing is wrapped.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from machine import Mark, Speedometer  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def block_sigprof_in_threads() -> None:
    """Make every thread started from now on block ``SIGPROF``."""
    run = threading.Thread.run

    def masked_run(self):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        run(self)

    threading.Thread.run = masked_run


def capture_server(servers: list) -> None:
    """Record the server ``repro serve`` creates, so ``stop`` can shut it down."""
    import repro.service

    create = repro.service.create_server

    def capturing_create(*args, **kwargs):
        servers.append(create(*args, **kwargs))
        return servers[-1]

    repro.service.create_server = capturing_create


def control(tracer: Tracer, meter: Speedometer, servers: list) -> None:
    """Answer control commands; stop the daemon when asked or when stdin closes."""
    mark = Mark(0, 0.0, 0.0)
    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "trace":
            tracer.enabled = argument == "on"
            reply = "ok"
        elif command == "mark":
            mark = meter.mark()
            reply = "ok"
        elif command == "since":
            reply = json.dumps({"seconds": meter.seconds(mark), "scale": meter.scale(mark)})
        elif command == "rss":
            reply = str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        elif command == "dump":
            Path(argument).write_text(json.dumps(tracer.export(os.getpid())))
            reply = "ok"
        elif command == "stop":
            break
        else:
            reply = f"error: unknown command {command!r}"
        print(reply, flush=True)
    meter.stop()
    for server in servers:
        server.shutdown()  # serve_forever returns and repro serve closes the server


def main(argv: list[str]) -> int:
    if argv[:1] == ["--cpu"]:
        os.sched_setaffinity(0, {int(argv[1])})
        argv = argv[2:]
    tracer = Tracer()
    if argv[:1] == ["--trace"]:
        argv = argv[1:]
        install(tracer, counting_provider=False)
    servers: list = []
    capture_server(servers)
    meter = Speedometer(clock=time.process_time)
    block_sigprof_in_threads()
    meter.start()
    threading.Thread(target=control, args=(tracer, meter, servers), daemon=True).start()
    from repro.cli import main as repro_main

    return repro_main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
