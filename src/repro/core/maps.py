"""Static planning of Memory Allocation Points (MAPs) — section 3.3.

MAPs are positions between consecutive tasks of a processor's schedule.
Each MAP:

1. **frees** the volatile objects that will not be accessed after the
   current point (their dead points come from the static liveness
   analysis of :mod:`repro.core.liveness`);
2. **allocates** volatile space for the tasks that follow, walking the
   execution chain ``T_1, T_2, ...`` and stopping after ``T_k`` when the
   space for ``T_{k+1}`` cannot be allocated — the next MAP is placed
   right before ``T_{k+1}``;
3. **assembles address packages** for the collaborating processors: for
   every newly allocated volatile object, the object's owner (its
   producer under owner-compute) must learn the local address before it
   can deposit data with an RMA put.

The first MAP is always at the beginning of each processor's schedule.
Because freeing happens eagerly at every MAP, a schedule is executable
exactly when ``capacity >= MIN_MEM`` (Definition 6) — the planner and
:func:`repro.core.liveness.analyze_memory` agree by construction, and the
property tests assert it.

With unconstrained memory the plan has a single MAP per processor, which
models the *original* RAPID strategy ("each processor allocates its
volatile space at once and notifies object addresses") whose cost the
100% columns of Tables 2/3 measure.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional

from ..errors import NonExecutableScheduleError
from .liveness import MemoryProfile, analyze_memory
from .schedule import Schedule


@dataclass
class MapPoint:
    """One memory allocation point on one processor."""

    proc: int
    #: The MAP sits immediately before ``orders[proc][position]``; the
    #: initial MAP has position 0.
    position: int
    #: Volatile objects freed here (dead before ``position``).
    frees: list[str] = field(default_factory=list)
    #: Volatile objects allocated here, in first-use order.
    allocs: list[str] = field(default_factory=list)
    #: Owner processor -> volatile objects whose fresh addresses must be
    #: notified to it (it will RMA-put their contents here).
    notifications: dict[int, list[str]] = field(default_factory=dict)
    #: Last task position whose volatiles this MAP allocated (filled in
    #: by the planner; ``None`` on hand-built points).
    covers_through: Optional[int] = None


@dataclass
class MapPlan:
    """MAP positions and actions for a whole schedule under a capacity."""

    schedule: Schedule
    capacity: int
    #: per-processor list of MAPs in execution order
    points: list[list[MapPoint]]
    profile: MemoryProfile

    @property
    def maps_per_proc(self) -> list[int]:
        return [len(pts) for pts in self.points]

    @property
    def avg_maps(self) -> float:
        """Average number of MAPs per processor (the ``#MAPs`` columns of
        Tables 2/3/5).  Processors with no tasks are excluded."""
        counts = [len(pts) for pts, order in zip(self.points, self.schedule.orders) if order]
        return sum(counts) / len(counts) if counts else 0.0

    @property
    def total_allocations(self) -> int:
        return sum(len(m.allocs) for pts in self.points for m in pts)

    @property
    def total_frees(self) -> int:
        return sum(len(m.frees) for pts in self.points for m in pts)

    @property
    def total_packages(self) -> int:
        """Number of address packages sent (one per MAP per destination)."""
        return sum(len(m.notifications) for pts in self.points for m in pts)

    def map_positions(self, proc: int) -> list[int]:
        return [m.position for m in self.points[proc]]

    def allocation_points(self, proc: int) -> dict[str, int]:
        """Object -> index (into ``points[proc]``) of the MAP that first
        allocates it.  Static-analysis metadata; O(plan)."""
        where: dict[str, int] = {}
        for k, mp in enumerate(self.points[proc]):
            for o in mp.allocs:
                where.setdefault(o, k)
        return where

    def packages(self, proc: int) -> list[tuple[int, int, tuple[str, ...]]]:
        """Address packages sent by ``proc``'s MAPs, in plan order:
        ``(map_index, owner_proc, objects)`` triples.  Each package
        occupies the owner's one-slot unbuffered channel from this
        processor until the owner performs its RA (section 3.3)."""
        out: list[tuple[int, int, tuple[str, ...]]] = []
        for k, mp in enumerate(self.points[proc]):
            for owner in sorted(mp.notifications):
                objs = tuple(mp.notifications[owner])
                if objs:
                    out.append((k, owner, objs))
        return out

    def predicted_peaks(self) -> list[int]:
        """Statically predicted per-processor peak memory of *executing*
        this plan: permanent bytes plus the high-water of replaying each
        MAP's frees-then-allocs.

        Because a MAP frees before it allocates and allocations only
        grow the footprint until the next MAP, the running total after
        each MAP's allocations is the exact peak between MAPs.  The
        dynamic execution must observe exactly these peaks — the
        :class:`~repro.obs.instruments.MemoryTimeline` instrument's
        high-water marks are asserted equal in the property tests.  At
        ``capacity == MIN_MEM`` the maximum over processors equals the
        liveness-derived ``MEM_REQ`` peak (Definition 5)."""
        g = self.schedule.graph
        peaks: list[int] = []
        for p, pts in enumerate(self.points):
            used = self.profile.procs[p].perm_bytes
            peak = used
            for mp in pts:
                for o in mp.frees:
                    used -= g.object(o).size
                for o in mp.allocs:
                    used += g.object(o).size
                if used > peak:
                    peak = used
            peaks.append(peak)
        return peaks


def plan_maps(
    schedule: Schedule,
    capacity: int,
    profile: Optional[MemoryProfile] = None,
) -> MapPlan:
    """Compute the MAP plan of ``schedule`` under ``capacity`` memory per
    processor.

    Raises :class:`~repro.errors.NonExecutableScheduleError` when the
    schedule needs more than ``capacity`` on some processor (Definition
    6; the ``inf`` entries of the paper's tables).

    The walk is greedy along the execution chain, but it never visits
    the tasks one by one: the capacity-independent liveness tables of
    ``profile`` let each MAP find how far its allocations reach by
    bisecting the first-use byte prefix sum, so a plan costs
    O(#MAPs · log + allocations + frees) per processor.  That relies on
    object sizes being non-negative integers, which
    :class:`~repro.graph.objects.DataObject` enforces.
    """
    if profile is None:
        profile = analyze_memory(schedule)
    owner = schedule.placement.owner
    points: list[list[MapPoint]] = []
    for p, order in enumerate(schedule.orders):
        pp = profile.procs[p]
        if pp.min_mem > capacity:
            raise NonExecutableScheduleError(p, pp.min_mem, capacity)
        proc_points: list[MapPoint] = []
        points.append(proc_points)
        budget = capacity - pp.perm_bytes  # space available for volatiles
        objs, fpos, fptr, fbytes = pp.first_objs, pp.first_pos, pp.first_ptr, pp.first_bytes
        last_objs, last_pos = pp.last_objs, pp.last_pos
        ngroups = len(fpos)
        n = len(order)
        grp = 0  # first first-use group not allocated yet
        freed = 0  # last-use entries freed so far
        i = 0
        while i < n:
            # 1) free volatiles dead before position i (all allocated,
            #    since their first use precedes their last one).
            dead = bisect_left(last_pos, i, freed)
            frees = sorted(last_objs[freed:dead])
            freed = dead
            # Live volatile bytes after the frees: MEM_REQ at i minus the
            # permanent bytes and the objects first used at i.
            used = pp.mem_req[i] - pp.perm_bytes
            if grp < ngroups and fpos[grp] == i:
                used -= fbytes[grp + 1] - fbytes[grp]
            # 2) allocate the longest run of first-use groups that fits;
            #    the next MAP goes right before the first one that does not.
            end = bisect_right(fbytes, fbytes[grp] + budget - used, grp) - 1
            nxt = fpos[end] if end < ngroups else n
            if nxt <= i:
                # Even the next task does not fit — contradicts the
                # MIN_MEM check above; defensive.
                raise NonExecutableScheduleError(p, pp.mem_req[i], capacity)
            allocs = list(objs[fptr[grp]:fptr[end]])
            notifications: dict[int, list[str]] = {}
            for o in allocs:
                notifications.setdefault(owner[o], []).append(o)
            proc_points.append(MapPoint(p, i, frees, allocs, notifications, nxt - 1))
            grp = end
            i = nxt
    return MapPlan(schedule=schedule, capacity=capacity, points=points, profile=profile)


def unconstrained_plan(schedule: Schedule, profile: Optional[MemoryProfile] = None) -> MapPlan:
    """The original-RAPID plan: one MAP per processor allocating all
    volatile space up-front (section 3.1)."""
    if profile is None:
        profile = analyze_memory(schedule)
    return plan_maps(schedule, capacity=max(profile.tot, 1), profile=profile)
