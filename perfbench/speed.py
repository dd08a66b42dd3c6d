"""Machine-speed probe: times in reference seconds on a shared machine.

On a machine shared with other tenants the same work takes up to twice as
long from one stretch of a few seconds to the next, so raw wall times of
separate runs spread more than any bound worth setting.  While the
benchmark times an interval, a timer signal interrupts it every PERIOD_S
and runs a short pure-Python Fraction loop, the probe chunk, recording how
long the chunk took.  Times are then reported in reference seconds:

    (wall time - time spent in chunks) * REFERENCE_CHUNK_S / mean chunk time

with the mean taken over every chunk of the run: the time the work would
take on a machine that runs the chunk in exactly REFERENCE_CHUNK_S.  The
chunk uses no cybethe code, so a change to cybethe leaves it alone and
shows in full.  The chunks take about 1.5% of the interval.

Measured on 2 shared cores, over ten 15-second runs per in-process
workload, the quartile spread of the median rep was 8-26% in wall time and
1.4-6.6% in reference seconds; within single minutes wall time ranged over
2x.
"""

import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

PERIOD_S = 0.1
EDGE_CHUNKS = 3         # chunks just before and just after the block
REFERENCE_CHUNK_S = 0.001
PROCESS_CHUNKS = 30
REFERENCE_PROCESS_S = 0.15
PROCESS_SOURCE = (
    f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
    f"import speed; [speed.chunk() for _ in range({PROCESS_CHUNKS})]")


def chunk():
    acc = Fraction(0)
    for k in range(1, 300):
        acc += Fraction(k % 97 - 48, k % 13 + 1)
    return acc


def timed_chunk():
    t0 = time.perf_counter()
    chunk()
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the enclosed block and samples the chunk while it runs.

    Sets `wall`, `work_wall` (wall minus the chunks run inside the block)
    and `samples` (chunk times).  EDGE_CHUNKS chunks run just before and
    just after the block, so a block shorter than PERIOD_S still has
    nearby samples.  Sampling uses SIGALRM: main thread only, one probe at
    a time.
    """

    reference_s = REFERENCE_CHUNK_S

    def __enter__(self):
        self.samples = [timed_chunk() for _ in range(EDGE_CHUNKS)]
        self._inside = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def _tick(self, signum, frame):
        spent = timed_chunk()
        self.samples.append(spent)
        self._inside += spent

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [timed_chunk() for _ in range(EDGE_CHUNKS)]
        self.work_wall = self.wall - self._inside
        return False


class ProcessProbe:
    """The same scaling for work done in child processes.

    Chunks timed in the parent do not follow the speed of a child: on 2
    shared cores they made CLI rounds spread more (14%) than wall time
    (8%).  Instead a probe process, a fresh interpreter that runs
    PROCESS_CHUNKS chunks, is timed from the parent just before and after
    the block and wherever the work calls `sample()`; with it the spread
    fell to 3%.  A machine where the probe process takes
    REFERENCE_PROCESS_S reads wall time.
    """

    reference_s = REFERENCE_PROCESS_S

    def __enter__(self):
        self.samples = []
        self._run()
        self._inside = 0.0
        self._start = time.perf_counter()
        return self

    def sample(self):
        self._inside += self._run()

    def _run(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROCESS_SOURCE], check=True,
                       timeout=60)
        spent = time.perf_counter() - t0
        self.samples.append(spent)
        return spent

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start
        self._run()
        self.work_wall = self.wall - self._inside
        return False


def factor(probes):
    """Reference time over the mean probe sample of all `probes`."""
    samples = [t for p in probes for t in p.samples]
    return probes[0].reference_s / statistics.mean(samples)
