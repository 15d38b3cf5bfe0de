"""Machine-speed sampling for CPU timings taken on a shared machine.

On a virtual CPU shared with other tenants the speed of the same code moves
by up to 25% within seconds, CPU time included (so it is not only time
stolen by the hypervisor), and the two virtual CPUs of one machine move
independently of each other.  The benchmark therefore samples the speed
*while* the program runs: a ``SIGPROF`` interval timer interrupts the
process every ``INTERVAL_S`` CPU seconds, and the handler runs a fixed
micro-kernel (benchmark code, independent of the program under test) and
records its CPU seconds.  A timed region then reports

    scaled = (CPU seconds - kernel CPU seconds) * REFERENCE_S / median kernel sample

that is, its CPU time at the speed at which the kernel takes ``REFERENCE_S``.
A change to the program moves the measured time and not the kernel, so it
shows in full; a slower or faster period of the machine moves both.  The
kernel mixes the operations the compiler's Python spends its time on: heap
and dict work of a shortest-path search, integer arithmetic, sorting tuples
into a dict, and attribute access on many small objects.

The handler runs in the main thread only, so a multi-threaded process (the
daemon) blocks ``SIGPROF`` in its other threads and keeps all of them on one
CPU; see ``serve.py``.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time
from dataclasses import dataclass

#: Kernel CPU seconds that define the reference speed (about its median on a
#: 2.1 GHz Xeon vCPU), so scaled figures read as seconds on such a machine.
REFERENCE_S = 0.0008

#: CPU seconds between two kernel samples (the kernel costs about 5% on top).
INTERVAL_S = 0.02

#: Samples on each side of a short region that :meth:`Speedometer.scale_near`
#: adds, about 0.2 CPU seconds either way.
NEAR_SAMPLES = 10


def _shortest_paths(rng: random.Random) -> int:
    n = 50
    adjacency = [[rng.randrange(n) for _ in range(4)] for _ in range(n)]
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in adjacency[u]:
            nd = d + 1 + (u ^ v) % 3
            if nd < dist.get(v, 1 << 30):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return len(dist)


def _arithmetic() -> int:
    total = 0
    for i in range(2_000):
        total += i * i % 7
    return total


def _sort_and_index(rng: random.Random) -> int:
    items = [(rng.random(), i, (i, i + 1)) for i in range(150)]
    items.sort()
    index: dict = {}
    for _, i, key in items:
        index[key] = index.get(key[0] % 97, 0) + i
    return len(index)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _objects() -> int:
    pairs = [_Pair(i, 2 * i) for i in range(600)]
    return sum(p.a + p.b for p in pairs)


def kernel_seconds() -> float:
    """CPU seconds of one pass over the micro-kernel (garbage collector paused)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        rng = random.Random(7)
        _shortest_paths(rng)
        _arithmetic()
        _sort_and_index(rng)
        _objects()
        return time.thread_time() - started
    finally:
        if collecting:
            gc.enable()


def cpu_ticks(cpu: int | None) -> tuple[int, int]:
    """Busy and stolen clock ticks of one CPU (of all CPUs for ``None``) so far.

    Stolen ticks (``/proc/stat`` steal) are time the virtual CPU wanted to
    run while the host ran something else.  They stretch wall-clock time but
    not CPU time, so the speed samples cannot see them.
    """
    name = "cpu" if cpu is None else f"cpu{cpu}"
    with open("/proc/stat") as stat:
        for line in stat:
            fields = line.split()
            if fields[0] == name:
                user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[1:9])
                return user + nice + system + irq + softirq, steal
    raise RuntimeError(f"no {name} line in /proc/stat")


def stolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the time a CPU wanted to run between two ``cpu_ticks`` that was stolen."""
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return stolen / (busy + stolen) if busy + stolen else 0.0


@dataclass(frozen=True)
class Mark:
    """A point in a run: samples taken, kernel CPU seconds and the meter's clock."""

    samples: int
    kernel: float
    cpu: float


class Speedometer:
    """Kernel samples taken through a run while the program runs.

    ``start`` arms the timer; every ``INTERVAL_S`` CPU seconds of the
    process the handler appends one kernel sample.  Take a :meth:`mark`
    before a timed region and ask :meth:`seconds` after it.  ``clock`` times
    the regions: the calling thread's CPU time by default (exact), or the
    whole process's for a multi-threaded process.  While the timer is armed
    Linux updates the process CPU clock only at scheduler ticks, so the
    kernel samples always use the thread clock.
    """

    def __init__(self, clock=time.thread_time) -> None:
        self.clock = clock
        self.samples: list[float] = []
        self.kernel = 0.0  # CPU seconds spent in the handler

    def _tick(self, _signum, _frame) -> None:
        started = time.thread_time()
        self.samples.append(kernel_seconds())
        self.kernel += time.thread_time() - started

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Disarm the timer (callable from any thread)."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def mark(self) -> Mark:
        return Mark(len(self.samples), self.kernel, self.clock())

    def net(self, since: Mark) -> float:
        """CPU seconds since ``since``, without the kernel's own."""
        return self.clock() - since.cpu - (self.kernel - since.kernel)

    def scale(self, since: Mark | None = None) -> float:
        """Factor that turns CPU seconds since ``since`` into reference seconds.

        Uses the samples taken since the mark; a region too short to hold
        three of them uses every sample of the run.
        """
        recent = self.samples[since.samples:] if since is not None else []
        samples = recent if len(recent) >= 3 else self.samples
        return REFERENCE_S / statistics.median(samples) if samples else 1.0

    def scale_near(self, first: int, end: int) -> float:
        """Scale from the samples ``first:end`` and ``NEAR_SAMPLES`` on each side.

        For regions far shorter than the machine's slow and fast spells,
        such as one small job, whose own samples are too few.
        """
        samples = self.samples[max(0, first - NEAR_SAMPLES):end + NEAR_SAMPLES]
        return REFERENCE_S / statistics.median(samples) if samples else self.scale()

    def seconds(self, since: Mark) -> float:
        """Reference seconds of CPU the program used since ``since``."""
        return self.net(since) * self.scale(since)
