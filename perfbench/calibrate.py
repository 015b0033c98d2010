"""Host-speed reference for the end-to-end timings.

On a shared 2-vCPU host the same operation can take from 0.31 to 0.56 s
within 90 s, and whole minutes can run slower than others. A fixed
piece of interpreter work that does not depend on the package, timed
between operations, measures how fast the host runs at that moment.
Dividing an operation's time by the reference time taken around it, and
multiplying by ``REFERENCE_S``, gives the operation's time on a host where
the reference work takes ``REFERENCE_S`` seconds.

The reference work is Dijkstra from a few sources on a fixed random graph,
with dicts, tuples and ``heapq`` like the package's own hot loops, so that
host contention slows it about as much as it slows the package. A change
to the package does not touch it, so a slower program still reads slower.
"""

from __future__ import annotations

import heapq
import random
import time

# seconds of one reference() on a 2.1 GHz Xeon vCPU with CPython 3.11
REFERENCE_S = 0.003


class Reference:
    """Times the fixed reference work; built once, reused for every reading."""

    def __init__(self) -> None:
        rng = random.Random(7)
        self.adj = {
            u: [(rng.randrange(400), rng.randrange(1, 9)) for _ in range(6)] for u in range(400)
        }
        self.reference()  # warm-up

    def reference(self) -> float:
        """Seconds for one pass of the reference work."""
        adj, inf = self.adj, 1 << 60
        t0 = time.perf_counter()
        for source in range(6):
            dist = {source: 0}
            heap = [(0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in adj[u]:
                    nd = d + w
                    if nd < dist.get(v, inf):
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
        return time.perf_counter() - t0

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` at reference speed, given the readings taken around them."""
        return seconds * REFERENCE_S * 2 / (before + after)
