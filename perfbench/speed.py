"""Host-speed probe: rescales wall times to a fixed reference speed.

The benchmark runs on a vCPU of a shared host whose speed changes by 1.4-2x
for seconds to minutes at a time, each vCPU on its own (a busy neighbour on
the same physical core). A fixed amount of work then takes a different wall
time from one run to the next, and no statistic over a 36-second run can
tell a slow program from a slow host.

So the benchmark pins itself, and with it every child it starts, to one
CPU, and a thread of the benchmark times a fixed piece of pure-Python work
(the probe) every PERIOD_S on that same CPU while children run. The probe
allocates small lists and strings and sorts them, the kind of work the
interpreter does when it imports modules and runs finmin's scalar code; on
the host this was written on, a slow spell stretched its time by about the
same factor as the CLI's (a log-log slope of 0.9-0.95 over 24 invocations),
where a bare arithmetic loop stretched by too little (slope 1.3) and
random reads of a large table by too much (slope 0.5-0.7). An invocation's
time at reference speed is its wall time minus the probes that preempted
it, times REF_PROBE_S over the median probe time during the invocation: the
wall time it would have taken on a host where the probe takes REF_PROBE_S.
The raw wall times are kept alongside in the report.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

PROBE_ITEMS = 600
# Probe time at the reference speed: about the probe's time on an
# unloaded Xeon vCPU (2 vCPUs, Python 3.11), where it reads 0.40-0.42 ms.
REF_PROBE_S = 400e-6
PERIOD_S = 0.02
# Fewest probes an invocation's speed is read from; shorter invocations
# borrow the nearest probes around them.
MIN_PROBES = 5


def _probe() -> list:
    return sorted([(i * 7919) % 1009, str(i)] for i in range(PROBE_ITEMS))


class SpeedProbe:
    """Pins the calling thread to one CPU and probes that CPU's speed.

    Use as a context manager around the runs; children started from the
    calling thread inherit its CPU.
    """

    def __init__(self):
        self.cpu = min(os.sched_getaffinity(0))
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)
        self._saved = None

    def __enter__(self):
        self._saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._saved)

    def _loop(self):
        # Inherits the CPU of the thread that started it.
        while not self._stop.is_set():
            t0 = time.perf_counter()
            _probe()
            t1 = time.perf_counter()
            self._starts.append(t0)
            self._ends.append(t1)
            self._stop.wait(PERIOD_S)

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds at reference speed, slowdown) of the window [t0, t1].

        The slowdown is the median probe time in the window over
        REF_PROBE_S; probes that ran inside the window preempted the child
        and are taken off its time first.
        """
        n = len(self._ends)
        starts, ends = self._starts[:n], self._ends[:n]
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_right(ends, t1, lo)
        preempted = sum(ends[i] - starts[i] for i in range(lo, hi))
        if hi - lo < MIN_PROBES:
            mid = bisect.bisect_left(starts, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_PROBES // 2, n - MIN_PROBES))
            hi = min(n, lo + MIN_PROBES)
        if hi <= lo:
            raise RuntimeError("the speed probe recorded no samples")
        slowdown = statistics.median(ends[i] - starts[i] for i in range(lo, hi)) / REF_PROBE_S
        return (t1 - t0 - preempted) / slowdown, slowdown
