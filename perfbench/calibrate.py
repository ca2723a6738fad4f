"""Fixed kernels that measure the host's current speed.

The benchmark runs on shared hosts whose CPU speed drifts: the same pass
can take 1.5x longer a minute later, and user time stays ~98% of wall
time, so the program is not waiting but running on a slower CPU.  The
timed passes therefore interleave a speed :func:`sample` with the
program's work and express each stretch of work at reference speed:

    work_s / mean(factor before the work, factor after it)

A factor is 1.0 at the speed of the host where the baseline of
``README.md`` was measured, and 1.5 on a host that runs the kernels 1.5x
slower.  The kernels never change with the program, so a change to the
program moves the scaled time exactly as it moves the raw time at fixed
host speed.

The sweep runs both interpreted Python and numpy, and contention slows
the two by different amounts, so the factor is the geometric mean of
two kernels' slowdowns: :func:`kernel` does the kind of work the
interpreter does in the sweep (a list-scheduling pass over a fixed
random task graph with a heap, then a liveness scan: dicts, lists,
tuples, sets and integer arithmetic); :func:`array_kernel` sorts,
gathers and sums a fixed array.  Neither allocates reference cycles, and
the cyclic collector is off while they run, so a sample never scans the
program's heap.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
from time import perf_counter

import numpy as np

#: Seconds per :func:`sample` of each kernel on the reference host.
REFERENCE_S = {"python": 0.0245, "array": 0.0125}
#: :func:`kernel` repetitions per sample.
REPS = 3


def _graph(n: int = 4000, seed: int = 1):
    rng = random.Random(seed)
    succ = [[] for _ in range(n)]
    for v in range(1, n):
        for _ in range(3):
            succ[rng.randrange(max(0, v - 60), v)].append(v)
    return succ, [rng.randint(1, 9) for _ in range(n)]


_SUCC, _WEIGHT = _graph()
_RNG = np.random.default_rng(1)
_VALUES = _RNG.random(100_000)
_INDEX = _RNG.integers(0, len(_VALUES), len(_VALUES))


def kernel() -> tuple:
    """One list-scheduling and liveness pass over the fixed graph;
    returns a checksum (always the same)."""
    succ, weight = _SUCC, _WEIGHT
    n = len(weight)
    indeg = [0] * n
    for vs in succ:
        for v in vs:
            indeg[v] += 1
    ready_at = [0] * n
    heap = [(0, u) for u in range(n) if indeg[u] == 0]
    order = []
    while heap:
        t, u = heapq.heappop(heap)
        order.append(u)
        finish = t + weight[u]
        for v in succ[u]:
            if finish > ready_at[v]:
                ready_at[v] = finish
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, (ready_at[v], v))
    position = {u: i for i, u in enumerate(order)}
    last_use = {u: max((position[v] for v in succ[u]), default=i)
                for i, u in enumerate(order)}
    live, peak = set(), 0
    for i, u in enumerate(order):
        live.add(u)
        if last_use[u] <= i:
            live.discard(u)
        peak = max(peak, len(live))
    return max(ready_at), peak, sum(order[::97])


def array_kernel() -> float:
    """Sort, prefix-sum and gather the fixed array; returns a checksum."""
    order = np.argsort(_VALUES, kind="stable")
    return float(np.cumsum(_VALUES[order])[_INDEX].sum())


def _timed(fn, reps: int) -> float:
    t0 = perf_counter()
    for _ in range(reps):
        fn()
    return perf_counter() - t0


def sample() -> float:
    """The host's current slowdown factor (1.0 at reference speed), from
    one timing of each kernel with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        python_s = _timed(kernel, REPS)
        array_s = _timed(array_kernel, 1)
    finally:
        if enabled:
            gc.enable()
    return math.sqrt(python_s / REFERENCE_S["python"]
                     * array_s / REFERENCE_S["array"])


def scaled(work_s: float, before: float, after: float) -> float:
    """``work_s`` expressed at reference speed, the host's slowdown taken
    as the mean of the factors sampled just before and just after."""
    return work_s / ((before + after) / 2)


class Meter:
    """Times stretches of work back to back, with a speed sample before
    the first and after each one (the sample after one stretch is the
    sample before the next).  ``raw_s`` and ``scaled_s`` are the sums;
    ``factors`` holds every sample."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.factors = [sample()]

    def time(self, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        work_s = perf_counter() - t0
        self.factors.append(sample())
        self.raw_s += work_s
        self.scaled_s += scaled(work_s, *self.factors[-2:])
        return out
