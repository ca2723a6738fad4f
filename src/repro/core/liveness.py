"""Volatile-object liveness and memory requirements (Definitions 4-6).

Given a static schedule, this module computes for every processor:

* the life span of every volatile object along the processor's task
  order (Definition 4: a volatile object is *alive* at a position if it
  is accessed there, or has been accessed before and will be accessed
  after; otherwise it is *dead/obsolete*);
* ``MEM_REQ(T_w, P_x)`` — permanent space plus alive volatile space at
  each task (Definition 5);
* ``MIN_MEM`` — the minimum capacity under which the schedule is
  executable (Definitions 5-6);
* ``TOT`` — the space needed *without* any recycling (all volatile
  objects held simultaneously), the 100% reference of section 5.1;
* the MAP planner's tables: the volatile objects in first-use order,
  grouped by first-use position with a byte prefix sum, and the objects
  in (last-use, name) order with their last positions.  They do not
  depend on the capacity, and :func:`repro.core.maps.plan_maps` places
  each MAP by bisecting them.

The dead-point information "can be statically calculated by performing a
data flow analysis on a given DAG with a complexity proportional to the
size of the graph" (section 3.3) — here a single walk over each
processor's order, O(total accesses).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate, groupby
from types import MappingProxyType
from typing import Mapping, Optional

from ..errors import NonExecutableScheduleError
from .placement import perm_vola_sets
from .schedule import Schedule


@dataclass
class ProcessorMemoryProfile:
    """Memory behaviour of one processor under a schedule.

    The first-use and last-use tables are sized by the volatile objects,
    not by the tasks: ``first_objs[first_ptr[k]:first_ptr[k + 1]]`` are
    the objects first accessed at position ``first_pos[k]`` and
    ``first_bytes[k]`` is the size of all objects of the groups before
    ``k``; ``last_objs[k]`` is last accessed at ``last_pos[k]``.
    """

    proc: int
    perm_bytes: int
    #: volatile object -> (first position, last position) in the order.
    span: dict[str, tuple[int, int]]
    #: ``mem_req[i]`` = MEM_REQ at the i-th task of the order.
    mem_req: list[int]
    #: total volatile bytes (no recycling).
    vola_bytes: int
    #: volatile objects in first-use order (the key order of ``span``).
    first_objs: tuple[str, ...]
    #: distinct first-use positions, increasing (one per group).
    first_pos: array
    #: CSR offsets of the groups into ``first_objs`` (groups + 1).
    first_ptr: array
    #: byte prefix sum over the groups (groups + 1, starts at 0).
    first_bytes: array
    #: volatile objects in (last position, name) order.
    last_objs: tuple[str, ...]
    #: last position of each entry of ``last_objs``.
    last_pos: array

    @property
    def dead_after(self) -> Mapping[int, list[str]]:
        """Position -> volatile objects (sorted) whose last access is
        that position; they may be freed at any later MAP.  A read-only
        view derived from the last-use table."""
        dead: dict[int, list[str]] = {}
        for o, pos in zip(self.last_objs, self.last_pos):
            dead.setdefault(pos, []).append(o)
        return MappingProxyType(dead)

    @property
    def min_mem(self) -> int:
        """Peak MEM_REQ on this processor."""
        return max(self.mem_req, default=self.perm_bytes)

    @property
    def tot(self) -> int:
        """Space with no recycling: permanent + all volatile objects."""
        return self.perm_bytes + self.vola_bytes

    def first_use(self, obj: str) -> Optional[int]:
        """Position of the first access to a volatile object on this
        processor, or ``None`` when it is never accessed here."""
        s = self.span.get(obj)
        return s[0] if s is not None else None

    def last_use(self, obj: str) -> Optional[int]:
        """Position of the last access to a volatile object on this
        processor, or ``None`` when it is never accessed here."""
        s = self.span.get(obj)
        return s[1] if s is not None else None


@dataclass
class MemoryProfile:
    """Memory behaviour of a whole schedule (all processors)."""

    schedule: Schedule
    procs: list[ProcessorMemoryProfile]

    @property
    def min_mem(self) -> int:
        """Definition 5: ``MIN_MEM = max_P max_T MEM_REQ(T, P)``."""
        return max((p.min_mem for p in self.procs), default=0)

    @property
    def tot(self) -> int:
        """The 100% memory reference of section 5.1 (max over procs of
        permanent + volatile space with no recycling)."""
        return max((p.tot for p in self.procs), default=0)

    @property
    def s1(self) -> int:
        """Sequential space requirement (sum of all object sizes)."""
        return self.schedule.graph.total_data()

    def executable_under(self, capacity: int) -> bool:
        """Definition 6: the schedule runs iff ``capacity >= MIN_MEM``."""
        return capacity >= self.min_mem

    def require_executable(self, capacity: int) -> None:
        for p in self.procs:
            if p.min_mem > capacity:
                raise NonExecutableScheduleError(p.proc, p.min_mem, capacity)

    # -- evaluation metrics (Table 1, Figure 7) -------------------------

    def per_proc_usage(self, recycling: bool = True) -> list[int]:
        """Per-processor space requirement: peak with recycling
        (``MIN_MEM`` style) or total without."""
        return [p.min_mem if recycling else p.tot for p in self.procs]

    def usage_ratio_vs_ideal(self, recycling: bool = False, reduce: str = "mean") -> float:
        """Table 1's metric: per-processor memory usage over ``S1/p``.

        The paper reports the *average* over processors of space used
        (permanent + volatile, no recycling in the original RAPID)
        divided by the lower bound ``S1/p``.
        """
        usage = self.per_proc_usage(recycling)
        ideal = self.s1 / max(1, self.schedule.num_procs)
        if ideal <= 0:
            return 1.0
        vals = [u / ideal for u in usage]
        if reduce == "mean":
            return sum(vals) / len(vals)
        if reduce == "max":
            return max(vals)
        raise ValueError(f"unknown reduce {reduce!r}")

    def memory_scalability(self, recycling: bool = True) -> float:
        """Figure 7's metric: ``S1 / S_p^A`` where ``S_p^A`` is the peak
        per-processor space requirement of the schedule.  Perfect
        scalability equals ``p``."""
        sp = max(self.per_proc_usage(recycling), default=0)
        return self.s1 / sp if sp > 0 else float("inf")


def analyze_memory(schedule: Schedule) -> MemoryProfile:
    """Compute the full memory profile of a schedule.

    Single pass per processor over its task order; positions are indices
    into ``schedule.orders[p]``.
    """
    g = schedule.graph
    placement = schedule.placement
    perm, vola = perm_vola_sets(g, placement, schedule.assignment)
    procs: list[ProcessorMemoryProfile] = []
    for p, order in enumerate(schedule.orders):
        perm_bytes = sum(g.object(o).size for o in perm[p])
        vola_set = vola[p]
        vola_bytes = sum(g.object(o).size for o in vola_set)
        first: dict[str, int] = {}
        last: dict[str, int] = {}
        for i, tname in enumerate(order):
            for o in g.task(tname).accesses:
                if o in vola_set:
                    first.setdefault(o, i)
                    last[o] = i
        span = {o: (first[o], last[o]) for o in first}
        sizes = [g.object(o).size for o in span]
        # Alive volatile bytes per position: +size at the first use,
        # -size right after the last one.
        delta = [0] * (len(order) + 1)
        for (f, l), sz in zip(span.values(), sizes):
            delta[f] += sz
            delta[l + 1] -= sz
        mem_req = list(accumulate(delta[:-1], initial=perm_bytes))[1:]
        # First-use CSR: span is already in first-use order.
        first_pos, first_ptr, first_bytes = array("q"), array("q", [0]), array("q", [0])
        k = acc = 0
        for f, group in groupby(zip(first.values(), sizes), key=lambda e: e[0]):
            for _f, sz in group:
                k += 1
                acc += sz
            first_pos.append(f)
            first_ptr.append(k)
            first_bytes.append(acc)
        last_objs = tuple(sorted(last, key=lambda o: (last[o], o)))
        procs.append(
            ProcessorMemoryProfile(
                proc=p,
                perm_bytes=perm_bytes,
                span=span,
                mem_req=mem_req,
                vola_bytes=vola_bytes,
                first_objs=tuple(span),
                first_pos=first_pos,
                first_ptr=first_ptr,
                first_bytes=first_bytes,
                last_objs=last_objs,
                last_pos=array("q", [last[o] for o in last_objs]),
            )
        )
    return MemoryProfile(schedule, procs)


def min_mem(schedule: Schedule) -> int:
    """Convenience wrapper returning Definition 5's ``MIN_MEM``."""
    return analyze_memory(schedule).min_mem


def mem_req_of_task(profile: MemoryProfile, task: str) -> int:
    """``MEM_REQ(T, P)`` for a single task (Definition 5)."""
    p = profile.schedule.assignment[task]
    i = profile.schedule.orders[p].index(task)
    return profile.procs[p].mem_req[i]
