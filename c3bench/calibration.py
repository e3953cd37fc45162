"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same run can take twice as long from one minute to the
next, and repeated runs cannot average that away. So a run calls this kernel
between short slices of its own work, and scales its host times by
``REFERENCE_NS / mean kernel time``. The times are then reported at the speed
at which the kernel takes REFERENCE_NS. A faster program still reads faster,
because the kernel shares no code with c3sim. The kernel is a Dijkstra over a
dict keyed by ordered frozen dataclasses, the same kind of work as the
overlay's routing, which dominates every workload. The kernel runs with the garbage collector off,
so the program's live objects, which set the cost of a full collection, do
not leak into the kernel's time.
"""
from __future__ import annotations

import gc
import heapq
import random
import time
from dataclasses import dataclass

REFERENCE_NS = 1_200_000
NODES = 200
DEGREE = 6


@dataclass(frozen=True, order=True, slots=True)
class _Key:
    value: int


class Calibration:
    def __init__(self):
        rng = random.Random(0)
        self._keys = [_Key(rng.getrandbits(256)) for _ in range(NODES)]
        self._adj: dict[_Key, dict[_Key, int]] = {k: {} for k in self._keys}
        for a in self._keys:
            for b in rng.sample(self._keys, DEGREE // 2):
                if a != b:
                    self._adj[a][b] = self._adj[b][a] = rng.choice((5, 50))
        self.samples: list[int] = []

    def sample(self, n: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                src = self._keys[len(self.samples) % len(self._keys)]
                start = time.perf_counter_ns()
                self._shortest_paths(src)
                self.samples.append(time.perf_counter_ns() - start)
        finally:
            if enabled:
                gc.enable()

    def _shortest_paths(self, src: _Key) -> dict[_Key, int]:
        dist = {src: 0}
        heap = [(0, src)]
        done = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for peer, latency in self._adj[node].items():
                nd = d + latency
                if peer not in dist or nd < dist[peer]:
                    dist[peer] = nd
                    heapq.heappush(heap, (nd, peer))
        return dist

    def spent_s(self) -> float:
        """Host time spent in the kernel so far."""
        return sum(self.samples) / 1e9

    def scale(self) -> float:
        """Factor that turns this run's host times into reference times."""
        return REFERENCE_NS * len(self.samples) / sum(self.samples)
