"""ExecPlan step programs as an overlay on the lowering's base programs.

:func:`repro.machine.compiled.get_exec_plan` builds each processor's
step program by inserting MAP steps into the MAP-free base program of
:func:`~repro.machine.compiled.lower_schedule`.  Every ExecPlan must
equal :func:`reference_exec_plan` — a from-scratch build that walks
every task of every order, kept here only as the oracle — field by
field.  The planner only places MAPs before tasks that receive data
(TASK steps) or at position 0, so the SEG-splitting cases use plans
with extra, action-free MAPs injected into the plan cache; those plans
still run, so both engines must agree on them exactly.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import debug_verify, verify_exec_plan
from repro.core.maps import MapPlan, MapPoint
from repro.experiments import ExperimentContext
from repro.machine import CRAY_T3D, MEIKO_CS2, Simulator
from repro.machine.compiled import (
    _MAP_OP,
    _SEG_OP,
    _SEG_VEC_MIN,
    _TASK_OP,
    _make_seg,
    get_exec_plan,
    lower_schedule,
)
from repro.machine.simulator import ProcessorStats

MODES = [(True, False), (True, True), (False, False)]  # managed, preknown
SPECS = [CRAY_T3D, MEIKO_CS2]
STAT_FIELDS = [f.name for f in dataclasses.fields(ProcessorStats)]


def reference_exec_plan(cs, capacity, spec, memory_managed, preknown):
    """From-scratch ExecPlan fields: one pass over every task."""
    lo = lower_schedule(cs)
    plan = cs.plan_for(capacity) if memory_managed else None
    oid_of = cs.graph.object_index
    t = dict(
        capacity=capacity, spec=spec, memory_managed=memory_managed,
        preknown=preknown, managed_check=memory_managed and not preknown,
        known_all=not memory_managed or preknown,
        send_oh=spec.send_overhead, put_lat=spec.put_latency,
        ra_cost=spec.ra_cost, nic_serialize=spec.nic_serialize,
        od_net_l=[spec.message_time(nb) for nb in lo.od_nbytes],
        od_nic_l=[nb * spec.byte_time for nb in lo.od_nbytes],
        mf_oid_l=[], mf_grp_l=[], ma_oid_l=[], pkg_src_l=[], pkg_dst_l=[],
        pkg_cost_l=[], pkg_objs=[], pkg_ak_ptr_l=[0], pkg_ak_l=[], steps=[],
    )
    map_at = [dict() for _ in range(lo.num_procs)]
    if plan is not None:
        for pts in plan.points:
            for mp in pts:
                map_at[mp.proc][mp.position] = mp
    od_ptr, os_ptr, cons_ptr = lo.od_ptr, lo.os_ptr, lo.cons_ptr
    for q in range(lo.num_procs):
        prog, cur_ws = [], []
        start = int(lo.proc_start[q])
        for i in range(int(lo.proc_start[q + 1]) - start):
            mp = map_at[q].get(i)
            if mp is not None:
                if cur_ws:
                    prog.append(_make_seg(cur_ws))
                    cur_ws = []
                cost = (spec.map_overhead + len(mp.frees) * spec.free_cost
                        + len(mp.allocs) * spec.alloc_cost)
                flo = len(t["mf_oid_l"])
                for m in mp.frees:
                    t["mf_oid_l"].append(oid_of[m])
                    t["mf_grp_l"].append(lo.grp_index.get((q, m), -1))
                alo = len(t["ma_oid_l"])
                t["ma_oid_l"].extend(oid_of[m] for m in mp.allocs)
                plo = len(t["pkg_dst_l"])
                for dst, objs in sorted(mp.notifications.items()):
                    t["pkg_src_l"].append(q)
                    t["pkg_dst_l"].append(dst)
                    t["pkg_cost_l"].append(
                        spec.package_overhead + len(objs) * spec.address_cost)
                    t["pkg_objs"].append(list(objs))
                    for m in objs:
                        ak = lo.ak_index.get((dst, oid_of[m], q))
                        if ak is not None:
                            t["pkg_ak_l"].append(ak)
                    t["pkg_ak_ptr_l"].append(len(t["pkg_ak_l"]))
                prog.append((_MAP_OP, cost, flo, len(t["mf_oid_l"]), alo,
                             len(t["ma_oid_l"]), plo, len(t["pkg_dst_l"])))
            tid = start + i
            if (lo.pending0[tid] == 0 and od_ptr[tid] == od_ptr[tid + 1]
                    and os_ptr[tid] == os_ptr[tid + 1]
                    and cons_ptr[tid] == cons_ptr[tid + 1]):
                cur_ws.append(lo.weight[tid])
            else:
                if cur_ws:
                    prog.append(_make_seg(cur_ws))
                    cur_ws = []
                prog.append((_TASK_OP, tid, lo.weight[tid],
                             od_ptr[tid], od_ptr[tid + 1],
                             os_ptr[tid], os_ptr[tid + 1],
                             cons_ptr[tid], cons_ptr[tid + 1]))
        if cur_ws:
            prog.append(_make_seg(cur_ws))
        t["steps"].append(prog)
    return t


def canon(step):
    """Comparable form of a step (SEG scratch buffers by shape only)."""
    if step[0] != _SEG_OP:
        return step
    _op, ws, s, margin, n, arr, bufa, bufb = step
    return (_SEG_OP, list(ws), s, margin, n,
            None if arr is None else arr.tolist(),
            None if bufa is None else bufa.shape,
            None if bufb is None else bufb.shape)


def assert_same_exec_plan(ep, ref):
    for name, want in ref.items():
        got = getattr(ep, name)
        if name == "steps":
            assert len(got) == len(want)
            for q, (gp, wp) in enumerate(zip(got, want)):
                assert [canon(s) for s in gp] == [canon(s) for s in wp], q
        else:
            assert got == want, name


def run_both(cs, capacity, spec, managed=True, preknown=False):
    """Run both engines on ``cs``; every result field must be equal."""
    res = {}
    for engine in ("interpreted", "compiled"):
        res[engine] = Simulator(
            compiled=cs, spec=spec, capacity=capacity, engine=engine,
            memory_managed=managed, preknown_addresses=preknown,
        ).run()
    ra, rb = res["interpreted"], res["compiled"]
    assert rb.engine == "compiled"
    assert ra.parallel_time == rb.parallel_time
    assert ra.task_finish_time == rb.task_finish_time
    for sa, sb in zip(ra.stats, rb.stats):
        for f in STAT_FIELDS:
            assert getattr(sa, f) == getattr(sb, f), f
    return rb


def inject_maps(cs, capacity, extra):
    """Cache a copy of the planner's plan at ``capacity`` with action-free
    MAPs added at ``extra[q]`` positions (a MAP that frees and allocates
    nothing and notifies nobody is valid anywhere in an order)."""
    plan = cs.plan_for(capacity)
    points = []
    for q, pts in enumerate(plan.points):
        have = {mp.position for mp in pts}
        new = [MapPoint(q, pos) for pos in extra.get(q, ()) if pos not in have]
        points.append(sorted(pts + new, key=lambda mp: mp.position))
    cs._plans[capacity] = MapPlan(
        schedule=plan.schedule, capacity=capacity, points=points,
        profile=plan.profile,
    )


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext()


def longest_seg(lo):
    """(proc, step index, first position, length) of the longest SEG."""
    best = None
    for q, (base, starts) in enumerate(zip(lo.base_steps, lo.base_pos)):
        for k, step in enumerate(base):
            if step[0] == _SEG_OP and (best is None or step[4] > best[3]):
                best = (q, k, starts[k], step[4])
    return best


class TestOverlayEqualsFromScratch:
    @pytest.mark.parametrize("key,p,h", [
        ("chol15", 2, "rcp"), ("chol15", 8, "mpo"),
        ("lu-goodwin", 4, "rcp"), ("etree15", 4, "tree"),
    ])
    @pytest.mark.parametrize("spec", SPECS, ids=["t3d", "cs2"])
    def test_planner_plans(self, ctx, key, p, h, spec):
        cs = ctx.compiled(key, p, h)
        prof = cs.profile
        caps = sorted({prof.min_mem, (prof.min_mem + prof.tot) // 2,
                       (3 * prof.min_mem + prof.tot) // 4, prof.tot})
        for managed, preknown in MODES:
            for cap in caps if managed else [prof.tot]:
                ep = get_exec_plan(cs, cap, spec, managed, preknown)
                assert_same_exec_plan(
                    ep, reference_exec_plan(cs, cap, spec, managed, preknown))
                debug_verify(cs, ep)

    def test_maps_split_segments(self, ctx):
        cs = ctx.compiled("chol15", 2, "mpo")
        lo = lower_schedule(cs)
        q, k, s0, n = longest_seg(lo)
        assert n >= 2 * _SEG_VEC_MIN + 8, "need a long silent run"
        order_len = int(lo.proc_start[q + 1] - lo.proc_start[q])
        task_pos = [
            pos for pos, st in zip(lo.base_pos[q], lo.base_steps[q])
            if st[0] == _TASK_OP
        ]
        # several MAPs inside one SEG, leaving a vectorised piece on each
        # side; a MAP on a TASK step; one at the last position.
        extra = {q: [s0 + _SEG_VEC_MIN, s0 + _SEG_VEC_MIN + 1,
                     s0 + _SEG_VEC_MIN + 3, order_len - 1] + task_pos[-2:]}
        cap = cs.profile.tot
        inject_maps(cs, cap, extra)
        for spec in SPECS:
            ep = get_exec_plan(cs, cap, spec, True, False)
            ref = reference_exec_plan(cs, cap, spec, True, False)
            assert_same_exec_plan(ep, ref)
            debug_verify(cs, ep)
            assert verify_exec_plan(cs, cap, spec) == []
            pieces = [st for st in ep.steps[q] if st[0] == _SEG_OP]
            vec = [st for st in pieces if st[5] is not None]
            assert len(vec) >= 2  # both halves of the split run vectorised
            assert ep.steps[q][0][0] == _MAP_OP
            run_both(cs, cap, spec)

    def test_map_at_every_position_of_a_short_order(self, ctx):
        cs = ctx.compiled("etree15", 4, "rcp")
        lo = lower_schedule(cs)
        q = 0
        n = int(lo.proc_start[1] - lo.proc_start[0])
        cap = cs.profile.tot
        # positions outside the order never execute, in either engine
        inject_maps(cs, cap, {q: [-1, *range(min(n, 200)), n, n + 3]})
        ep = get_exec_plan(cs, cap, CRAY_T3D, True, False)
        assert_same_exec_plan(
            ep, reference_exec_plan(cs, cap, CRAY_T3D, True, False))
        debug_verify(cs, ep)
        run_both(cs, cap, CRAY_T3D)


class TestSharedBase:
    def test_plans_share_base_tuples(self, ctx):
        cs = ctx.compiled("lu-goodwin", 4, "mpo")
        lo = lower_schedule(cs)
        prof = cs.profile
        a = get_exec_plan(cs, prof.min_mem, CRAY_T3D, True, False)
        b = get_exec_plan(cs, prof.tot, CRAY_T3D, True, True)
        base_ids = {id(st) for prog in lo.base_steps for st in prog}
        ids_a = {id(st) for prog in a.steps for st in prog}
        ids_b = {id(st) for prog in b.steps for st in prog}
        shared = base_ids & ids_a & ids_b
        assert shared
        # MAPs never split a SEG here, so every non-MAP step is a base tuple.
        for ep in (a, b):
            for prog in ep.steps:
                assert all(id(st) in base_ids for st in prog if st[0] != _MAP_OP)
        assert a.od_net_l is b.od_net_l and a.od_nic_l is b.od_nic_l
        c = get_exec_plan(cs, prof.tot, CRAY_T3D, False, False)
        assert all(sc is sb for sc, sb in zip(c.steps, lo.base_steps))

    def test_runs_leave_base_unchanged(self, ctx):
        cs = ctx.compiled("chol15", 2, "mpo")
        lo = lower_schedule(cs)
        prof = cs.profile
        q, _k, s0, _n = longest_seg(lo)
        cap = (prof.min_mem + prof.tot) // 2
        inject_maps(cs, cap, {q: [s0 + 3, s0 + _SEG_VEC_MIN + 5]})
        before = [[canon(st) for st in prog] for prog in lo.base_steps]
        weights = [list(st[5]) for prog in lo.base_steps for st in prog
                   if st[0] == _SEG_OP and st[5] is not None]
        for _ in range(2):
            for c, (managed, preknown) in [(cap, MODES[0]), (prof.tot, MODES[1]),
                                           (prof.tot, MODES[2])]:
                run_both(cs, c, CRAY_T3D, managed, preknown)
        assert [[canon(st) for st in prog] for prog in lo.base_steps] == before
        assert weights == [list(st[5]) for prog in lo.base_steps for st in prog
                           if st[0] == _SEG_OP and st[5] is not None]
        assert all(isinstance(st[5], np.ndarray) for prog in lo.base_steps
                   for st in prog if st[0] == _SEG_OP and st[4] >= _SEG_VEC_MIN)
