"""Property tests: the bisecting MAP planner against a greedy reference.

:func:`repro.core.plan_maps` places MAPs by bisecting the liveness
profile's first-use byte prefix sum.  :func:`reference_plan_maps` below
is the plain greedy walk of section 3.3 — free everything dead, then
allocate task by task until the next task no longer fits — kept here
only as the oracle.  Every plan must equal the reference field by
field, including the insertion order of ``notifications``.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    analyze_memory,
    cyclic_placement,
    dts_order,
    mpo_order,
    owner_compute_assignment,
    plan_maps,
    rcp_order,
)
from repro.core.maps import MapPlan, MapPoint
from repro.errors import NonExecutableScheduleError
from repro.graph import generators as gen

ORDERINGS = (rcp_order, mpo_order, dts_order)


def reference_plan_maps(schedule, capacity, profile):
    """Greedy per-task MAP planner (the oracle)."""
    g = schedule.graph
    placement = schedule.placement
    points = []
    for p, order in enumerate(schedule.orders):
        pp = profile.procs[p]
        if pp.min_mem > capacity:
            raise NonExecutableScheduleError(p, pp.min_mem, capacity)
        budget = capacity - pp.perm_bytes
        proc_points = []
        points.append(proc_points)
        first_at = {}
        for o, (f, _l) in pp.span.items():
            first_at.setdefault(f, []).append(o)
        size = {o: g.object(o).size for o in pp.span}
        last = {o: pp.span[o][1] for o in pp.span}
        allocated = set()
        used = 0
        i = 0
        n = len(order)
        while i < n:
            mp = MapPoint(proc=p, position=i)
            for o in sorted(allocated):
                if last[o] < i:
                    allocated.discard(o)
                    used -= size[o]
                    mp.frees.append(o)
            j = i
            while j < n:
                need = [o for o in first_at.get(j, ()) if o not in allocated]
                if used + sum(size[o] for o in need) > budget:
                    break
                for o in need:
                    allocated.add(o)
                    used += size[o]
                    mp.allocs.append(o)
                    mp.notifications.setdefault(placement[o], []).append(o)
                j += 1
            assert j > i, "greedy walk stalled above MIN_MEM"
            mp.covers_through = j - 1
            proc_points.append(mp)
            i = j
    return MapPlan(schedule=schedule, capacity=capacity, points=points, profile=profile)


def assert_same_plan(got, want):
    assert got.capacity == want.capacity
    assert len(got.points) == len(want.points)
    for gp, wp in zip(got.points, want.points):
        assert len(gp) == len(wp)
        for a, b in zip(gp, wp):
            assert (a.proc, a.position, a.covers_through) == (
                b.proc, b.position, b.covers_through)
            assert a.frees == b.frees
            assert a.allocs == b.allocs
            assert list(a.notifications.items()) == list(b.notifications.items())


def capacities(prof, draw):
    lo, hi = prof.min_mem, prof.tot
    caps = {lo - 1, lo, hi, hi + 1}
    if hi > lo:
        caps.update(draw(st.lists(st.integers(lo, hi), min_size=3, max_size=6)))
    return sorted(caps)


params = st.tuples(
    st.integers(10, 60),  # tasks
    st.integers(3, 12),  # objects
    st.integers(0, 10_000),  # seed
    st.integers(1, 5),  # processors
    st.sampled_from(ORDERINGS),
)


@settings(max_examples=40, deadline=None)
@given(params, st.data())
def test_plan_matches_greedy_reference(ps, data):
    n, m, seed, p, order_fn = ps
    g = gen.random_trace(n, m, seed=seed, min_size=1, max_size=9)
    pl = cyclic_placement(g, p)
    s = order_fn(g, pl, owner_compute_assignment(g, pl))
    prof = analyze_memory(s)
    for cap in capacities(prof, data.draw):
        try:
            want = reference_plan_maps(s, cap, prof)
        except NonExecutableScheduleError as err:
            try:
                plan_maps(s, cap, prof)
            except NonExecutableScheduleError as got:
                assert (got.processor, got.required, got.capacity) == (
                    err.processor, err.required, err.capacity)
                assert str(got) == str(err)
            else:
                raise AssertionError(f"capacity {cap} < MIN_MEM was planned")
            continue
        assert_same_plan(plan_maps(s, cap, prof), want)


@settings(max_examples=25, deadline=None)
@given(params)
def test_zero_size_objects_plan_like_the_reference(ps):
    """Zero-byte groups always fit: the bisection must not stop on them."""
    n, m, seed, p, order_fn = ps
    g = gen.random_trace(n, m, seed=seed, min_size=0, max_size=2)
    pl = cyclic_placement(g, p)
    s = order_fn(g, pl, owner_compute_assignment(g, pl))
    prof = analyze_memory(s)
    for cap in sorted({prof.min_mem, prof.tot}):
        assert_same_plan(plan_maps(s, cap, prof), reference_plan_maps(s, cap, prof))


@settings(max_examples=25, deadline=None)
@given(params)
def test_dead_after_is_the_last_use_table(ps):
    n, m, seed, p, order_fn = ps
    g = gen.random_trace(n, m, seed=seed)
    pl = cyclic_placement(g, p)
    prof = analyze_memory(order_fn(g, pl, owner_compute_assignment(g, pl)))
    for pp in prof.procs:
        dead = {}
        for o, (_f, last) in pp.span.items():
            dead.setdefault(last, []).append(o)
        assert dict(pp.dead_after) == {k: sorted(v) for k, v in dead.items()}
        assert sorted(pp.first_objs) == sorted(pp.span)
        assert pp.first_bytes[-1] == sum(g.object(o).size for o in pp.span)
