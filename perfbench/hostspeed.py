"""Host-speed calibration: a fixed pure-Python kernel timed between
operations.

The benchmark shares its host with other tenants, whose load slows every
process on it, by up to 70 % and for minutes at a time.  No statistic
over one run removes a slow phase that covers the whole run.  The kernel
below does a fixed amount of interpreter work of the kind the simulator
does (heap pushes and pops, dict stores, integer arithmetic, a sort);
timing it right before and right after an operation tells how fast the
host ran meanwhile.  Scaling the operation's time by ``REFERENCE_S``
over the kernel's time cancels the slowdown both share, so it is
reported in seconds on a host that runs the kernel in ``REFERENCE_S``.

The kernel lives here, outside the package under test, so no change to
the package can move it.
"""

from __future__ import annotations

import heapq
import os
import time

#: the kernel's fastest time on the 2-vCPU VM the benchmark was tuned on
REFERENCE_S = 0.020
#: the kernel runs this many times per calibration; the fastest counts
REPEATS = 5
ITERATIONS = 20000


def kernel(iterations: int = ITERATIONS) -> int:
    """A fixed amount of heap, dict and integer work; returns a checksum."""
    heap: list = []
    table: dict = {}
    x = 12345
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x % 1000, i))
        table[x % 8192] = i
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(sorted(table.items())) + len(heap)


def _fastest(repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def kernel_s(processes: int = 1, repeats: int = REPEATS) -> float:
    """Wall time of the kernel, the fastest of *repeats* runs.

    With *processes* > 1 that many copies run at once (this process and
    forked children) and their mean is returned, so a workload that
    keeps that many cores busy is calibrated under the same load.
    """
    children = []
    for _ in range(processes - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: time the kernel, report, leave at once
            os.close(read_fd)
            os.write(write_fd, repr(_fastest(repeats)).encode())
            os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    times = [_fastest(repeats)]
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as fh:
            times.append(float(fh.read()))
        os.waitpid(pid, 0)
    return sum(times) / len(times)


class HostClock:
    """Times the kernel at marks placed between operations."""

    def __init__(self, processes: int = 1) -> None:
        self.processes = processes
        self.last = kernel_s(processes)

    def mark(self) -> float:
        """Time the kernel now; returns the mean of this and the previous
        mark, the host's speed over the operation between them."""
        now = kernel_s(self.processes)
        around, self.last = (self.last + now) / 2, now
        return around
