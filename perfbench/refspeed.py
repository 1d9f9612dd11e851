"""Host speed, measured with a fixed pure-Python reference kernel.

The shared 2-CPU hosts this benchmark was built on switch between a fast and
a slow speed, about 1.6x apart, every few seconds to minutes, and at times
also take the virtual CPU away (steal time) for a fifth of a run.  A change
of speed shows in process CPU time as much as in wall time; stolen time shows
only in wall time, and comes in bursts that no sampling tracks.  The
benchmark therefore times both the simulator and this kernel in CPU time,
runs the kernel between timed calls, and reports times scaled to REF_S, the
kernel's nominal time:

    scaled = cpu * REF_S / mean(kernel CPU times sampled during the run)

so a scaled time reads in seconds on an unshared host that runs the kernel
in REF_S.
The kernel is frozen: it imports nothing from the simulator, and changing it
changes every scaled figure, so it changes only with the benchmark.
"""
from __future__ import annotations

import heapq
import statistics
import time

REF_S = 0.05
_N = 20_000
_TABLE_KEYS = 20_000
_SLOTS = 400_000


def kernel(table: dict, keys: list, slots: list) -> int:
    """LRU over a dict and a lazily pruned heap, on an LCG key stream, then
    random reads and writes over tables larger than the private caches.

    The same kind of work the simulator does per access: tuple keys, dict
    lookups, heap pushes and pops, integer arithmetic, and misses in the
    CPU caches.  With only the first half, the kernel sped up more than the
    simulator did when the host sped up; the second half brings them closer.
    """
    x, cap, seq, hits = 12345, 4096, 0, 0
    index: dict = {}
    heap: list = []
    for _ in range(_N):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 1, (x >> 8) % 20_000)
        seq += 1
        if key in index:
            hits += 1
        elif len(index) >= cap:
            while True:
                s, k = heapq.heappop(heap)
                if index.get(k) == s:
                    del index[k]
                    break
        index[key] = seq
        heapq.heappush(heap, (seq, key))
    for _ in range(_N):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = table[keys[x % _TABLE_KEYS]]
        slots[(x >> 3) % _SLOTS] ^= v & 7
        hits += v & 1
    return hits


def _build_tables() -> tuple:
    table = {(i & 1, i * 7919 % 1_000_003): i for i in range(_TABLE_KEYS)}
    return table, list(table), [0] * _SLOTS


# Built once at import and kept: about 6 MB, a constant part of a run's peak
# RSS rather than a spike that could hide a smaller peak of the simulator.
_TABLES = _build_tables()


def kernel_seconds() -> float:
    """CPU time of one kernel run, on the calling thread only: threads that
    numpy's libraries start and leave spinning must not count."""
    t0 = time.thread_time()
    kernel(*_TABLES)
    return time.thread_time() - t0


class SpeedMeter:
    """Kernel times sampled during one run, and the scale they give."""

    def __init__(self):
        self.samples: list = []

    def sample(self) -> None:
        self.samples.append(kernel_seconds())

    def scale(self) -> float:
        """Factor turning this run's CPU seconds into seconds at REF_S."""
        return REF_S / statistics.mean(self.samples)
