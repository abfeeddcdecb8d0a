"""A fixed pure-Python job that measures how fast the host runs now.

    python3 bench/reference.py

reads lines from standard input and answers each with the median time, in
seconds, of ``REPEATS`` runs of ``reference_loop``.  ``run.py`` keeps it
running as a child interpreter of its own, so nothing the library does to
the interpreter under test (heap size, gc thresholds) moves the
measurement.
"""

from __future__ import annotations

import statistics
import sys
from collections import deque
from dataclasses import dataclass
from time import perf_counter

REPEATS = 3


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def reference_loop() -> None:
    """Breadth-first searches over tuple states and over nested frozen
    dataclasses, whose hashing walks the whole nest: the library's staple
    work."""
    seen = {(0, (0, 0))}
    queue = deque(seen)
    for _ in range(2000):
        q, v = queue.popleft()
        for d in (1, 2, 3):
            nxt = ((q + d) % 97, ((v[0] + d) % 13, (v[1] * d + q) % 11))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    leaves = [_Node("x", None, None), _Node("y", None, None)]
    nodes = set(leaves)
    queue = deque(leaves)
    for _ in range(150):
        f = queue.popleft()
        for g in leaves[-4:]:
            h = _Node("and", f, g)
            if h not in nodes:
                nodes.add(h)
                queue.append(h)
        if len(leaves) < 40:
            leaves.append(f)


def median_time() -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        reference_loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(median_time()), flush=True)
