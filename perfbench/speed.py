"""Host-speed calibration: host time scaled to a fixed reference speed.

The hosts this benchmark runs on share their CPUs with other tenants, and a
CPU can run well under its usual speed for tens of seconds at a time (1.5x
to 3x slower has been seen).  A raw wall time then says more about the
neighbours than about the program.  So while a unit of work (a pass, an
episode, a set-up probe) runs, a background thread times a fixed pure-Python
kernel that shares no code with ``repro`` again and again, and the unit's
wall time is scaled by how fast the kernel ran meanwhile::

    normalized = wall * (1 - steal) * REFERENCE_KERNEL_S / median(kernel CPU times)

The kernel is timed by CPU time, which does not advance while the thread
waits, so it measures how fast a CPU runs once it runs.  The hypervisor can
also stop running a virtual CPU that has work (steal time); ``steal`` is the
share of the busy CPU time the host stole during the unit, read from the
kernel's counters in ``/proc/stat`` (0 where they do not exist).  A change to
the program moves the wall time and neither correction, so it moves the
normalized time one for one; a slower host moves both and largely cancels
out.  The raw wall times are reported beside the normalized ones.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from typing import List, Tuple

# Median duration of one kernel call at the reference host speed (a 2.0 GHz
# Intel Xeon virtual CPU in its fast phase).  Normalized times are what that
# host would have taken.
REFERENCE_KERNEL_S = 0.0015
KERNEL_STEPS = 3000
PROC_STAT = "/proc/stat"


class _Record:
    __slots__ = ("kind", "src", "dst", "latency")

    def __init__(self, kind: int, src: int, dst: int, latency: int) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.latency = latency


_rng = random.Random(1996)
_RECORDS = [
    _Record(_rng.randrange(4), _rng.randrange(64), _rng.randrange(64), _rng.randrange(1, 9))
    for _ in range(KERNEL_STEPS)
]


def _operand_ready(record: _Record, ready: List[int], clock: int) -> int:
    return max(ready[record.src], clock) + record.latency


def kernel() -> int:
    """A scoreboard-like loop over slotted records: calls, list and dict traffic, max."""
    ready = [0] * 64
    histogram: dict = {}
    issued = []
    clock = 0
    for record in _RECORDS:
        if record.kind == 1:
            issue = max(ready[record.src], ready[record.dst], clock) + 1
        else:
            issue = _operand_ready(record, ready, clock) + record.kind
        ready[record.dst] = issue
        bucket = issue & 1023
        histogram[bucket] = histogram.get(bucket, 0) + 1
        if issue > clock:
            clock = issue
        issued.append((record.dst, issue))
    return clock + len(issued)


def cpu_ticks() -> Tuple[int, int]:
    """(busy, stolen) clock ticks of all CPUs since boot; (0, 0) if unknown."""
    try:
        with open(PROC_STAT) as handle:
            fields = handle.readline().split()
    except OSError:
        return 0, 0
    if fields[:1] != ["cpu"] or len(fields) < 9:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[1:9])
    return user + nice + system + irq + softirq, steal


class Sampler:
    """Kernel times taken before, during and after one unit of work.

    With ``period``, a background thread samples every ``period`` seconds.
    Where the work runs in this process, the thread takes the interpreter
    lock from it while the kernel runs: :attr:`spent` totals the wall
    seconds sampling took, for the caller to leave out of its wall time.
    """

    def __init__(self, period: float = 0.0) -> None:
        self.times: List[float] = []
        self.spent = 0.0
        self.ticks = cpu_ticks()
        self.sample()
        self._stop = threading.Event()
        self._thread = None
        if period:
            self._thread = threading.Thread(target=self._run, args=(period,), daemon=True)
            self._thread.start()

    def sample(self) -> None:
        """Run the kernel once.

        Its speed is read from this thread's CPU time, which does not advance
        while the thread waits for a CPU or for the interpreter lock: sampling
        beside the workload's own processes measures how fast the host runs,
        not how busy it is.
        """
        start, cpu_start = time.perf_counter(), time.thread_time()
        kernel()
        self.times.append(time.thread_time() - cpu_start)
        self.spent += time.perf_counter() - start

    def _run(self, period: float) -> None:
        while not self._stop.wait(period):
            self.sample()

    def finish(self) -> float:
        """Stop sampling; the factor that scales this unit's wall time."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
        self.sample()
        busy, stolen = (now - then for now, then in zip(cpu_ticks(), self.ticks))
        running = 1.0 - stolen / (busy + stolen) if busy + stolen > 0 else 1.0
        return running * REFERENCE_KERNEL_S / statistics.median(self.times)
