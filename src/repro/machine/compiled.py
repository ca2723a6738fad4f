"""Array-compiled execution engine (ROADMAP item 1).

This module lowers a :class:`~repro.machine.simulator.CompiledSchedule`
— tasks, MAP points, address slots and the five-state protocol of
Definitions 3–6 — into dense int-indexed tables and executes them with
a flat event queue, replacing the per-event Python objects of the
interpreted engine with integer codes and scalar state vectors.

Table layouts
-------------

Lowering (:func:`lower_schedule`, capacity/spec-independent, memoised on
the ``CompiledSchedule``) enumerates every entity as a small integer:

``tid``
    task id = position in the flattened processor orders;
    ``proc_start`` (an offset list, one entry per processor plus a
    sentinel) maps a processor to its contiguous tid range.
``oid`` / ``uid``
    object and producer-unit ids (``TaskGraph.object_index`` order).
``mk``
    a *data message key* ``(dest, object, unit)``; carries a CSR waiter
    list (``wait_ptr``/``wait_tid``), an initial stale-copy counter
    (``need0``) and a group id ``grp`` linking the versions of one
    ``(dest, object)`` pair for the consistency checks.
``sk``
    a *sync key* ``(unit-task, dest)`` with its own waiter CSR.
``ak``
    an *address-knowledge key* ``(owner, object, dest)``; the sender
    side consults a flat byte vector instead of per-processor sets.
``od`` / ``os``
    outgoing data / sync message slots, CSR-indexed per trigger task
    (``od_ptr`` etc.), holding the target ``mk``/``sk``/``ak`` ids and
    per-spec precomputed network times.

The lowering also builds each processor's MAP-free *base step
program* once: ``SEG`` steps (maximal runs of *silent* tasks — no
remote inputs, no outgoing messages) and ``TASK`` steps (one
message-bearing task), with the order position each step starts at.

Execution plans (:func:`get_exec_plan`) are additionally keyed by
``(capacity, spec, memory_managed, preknown)`` and hold only what
depends on them: the ``MAP`` steps (frees/allocs/packages with the
exact interpreted cost expression) and their tables, laid over the
base programs.  Each MAP position is bisected into the base program,
the base steps around it are shared by list slice, and a ``SEG`` the
MAP falls inside is split into exactly the pieces a from-scratch build
would pack (no run of silent tasks spans a MAP).  A plan without MAPs
(the unmanaged baseline) reuses the base lists as they are, and the
per-message network costs are memoised per spec on the lowering.  Base
step tuples — SEG scratch buffers included — are therefore shared by
every ExecPlan of a schedule, as they are by every run of one ExecPlan;
runs treat them as read-only.  Events are 3-tuples ``(time, seq, code)``
where ``code`` packs ``kind << 44 | arg``.

Exactness contract
------------------

The interpreted :meth:`Simulator._run_interpreted` is the differential
oracle; this engine must agree with it *bit-for-bit* (finish times,
stats, peaks, violation verdicts compared with ``==``).  Three rules
make that possible:

* **Identical float expressions.**  Every time value is produced by the
  same sequential float64 operation sequence as the interpreted engine
  (``start + cost``, ``max(avail, t)``, per-spec cost formulas copied
  verbatim); there is no numpy accumulation in the run loop.
* **Push-only bootstrap.**  The interpreted bootstrap advances every
  processor before the first pop, so each processor's *first* task
  completion must enter the heap (never complete inline) to keep the
  relative ``(time, seq)`` order of later same-timestamp events
  identical.
* **Strict inline rule.**  After the first pop, a task finishing at
  ``f`` completes inline (no heap round-trip) iff ``f`` is *strictly*
  below the earliest queued event; causality (all pushes happen at or
  after the current event time, asserted at push) guarantees the
  interpreted engine would pop exactly that completion next, with no
  intervening seq-bearing pushes.  Ties (``f >= heap-min``) always go
  through the heap.

A silent segment additionally uses an *unchecked* fast path when
``(avail + S) * margin < heap-min`` with ``S`` the segment weight sum
and ``margin = 1 + (16·n + 64)·2⁻⁵³`` — a generous forward-error bound
for ``n`` non-negative sequential additions, so no task in the segment
can cross the horizon; otherwise a per-task checked loop runs.  Both
loops live in ``*_hot`` functions, which ``tools/lint_rules.py``
(``compiled-hot-alloc``) keeps free of per-event Python allocation.

Static dispatch-version flags replace the interpreted engine's dynamic
``current_version`` dict: under the owner-compute rule every writer of
an object runs on the dispatching processor, so an order scan computes
each message's version validity at trigger time (``od_ok0``) plus the
first later overwrite position (``od_ow``) that could invalidate a
*suspended* send drained after more local tasks completed.  Lowering
therefore requires an owner-compute assignment and non-negative task
weights, and raises :class:`~repro.errors.SimulationError` otherwise.

Fallback conditions
-------------------

``Simulator.run`` routes to this engine only for fault-free,
unobserved runs (no metrics/trace/instrument, no fault injection, no
caller-supplied MAP plan, non-negative spec costs) — everything else
falls back to the interpreted oracle explicitly and is recorded in
``SimResult.engine``.

Implementation note: each lowered table is a plain Python list, held
once: scalar list indexing is several times faster than per-element
numpy indexing under CPython, and the IR verifier checks the very lists
the run loop reads.  numpy appears only in the SEG kernels
(:func:`_make_seg`, :func:`_seg_all_vec`, :func:`_seg_until_vec`), a
size-selected fast path over one segment's weights.
"""

from __future__ import annotations

import heapq
import os
from bisect import bisect_right
from time import perf_counter
from typing import Optional

import numpy as np

from ..core.placement import validate_owner_compute
from ..errors import (
    DataConsistencyError,
    DeadlockError,
    MemoryError_,
    SimulationError,
)
from .spec import MachineSpec

__all__ = [
    "ExecPlan",
    "LoweredSchedule",
    "get_exec_plan",
    "lower_schedule",
    "run_compiled",
]

# Processor states (ints; same meaning as simulator.ProcState).
_REC, _EXE, _SND, _MAP, _END, _DONE = 0, 1, 2, 3, 4, 5
_STATE_NAMES = ("REC", "EXE", "SND", "MAP", "END", "DONE")

# Step opcodes.
_SEG_OP, _TASK_OP, _MAP_OP = 0, 1, 2

# Event codes: code = kind << 44 | arg (args are entity ids < 2**44).
_SHIFT = 44
_ARG_MASK = (1 << _SHIFT) - 1
_TASK_BASE = 0 << _SHIFT  # arg = processor
_DATA_BASE = 1 << _SHIFT  # arg = mk
_SYNC_BASE = 2 << _SHIFT  # arg = sk
_ADDR_BASE = 3 << _SHIFT  # arg = pkg
_SLOT_BASE = 4 << _SHIFT  # arg = src * P + dst

_INF = float("inf")
_NEG_INF = float("-inf")
_NO_OVERWRITE = 1 << 60  # od_ow sentinel: no later local overwrite
_EPS = 2.0 ** -53


class LoweredSchedule:
    """Dense int-indexed IR of one compiled schedule (spec/capacity-free).

    Built once per :class:`~repro.machine.simulator.CompiledSchedule`
    by :func:`lower_schedule`.  Each table is one Python list, the one
    the run loop indexes and the IR verifier checks (see module
    docstring).  Cold-path diagnostics keep the name-level index dicts
    (``mk_index``/``sk_index``) and the per-message names so deadlock
    reports match the interpreted engine verbatim.

    ``base_steps[q]`` is processor ``q``'s MAP-free SEG/TASK step
    program and ``base_pos[q][k]`` the order position step ``k`` starts
    at; every :class:`ExecPlan` of the schedule is an overlay on them.
    ``spec_costs`` memoises the per-message network and NIC times per
    :class:`~repro.machine.spec.MachineSpec`.
    """

    __slots__ = (
        "num_procs", "num_tasks", "num_objects", "num_mk", "num_sk",
        "num_ak", "num_grp",
        "proc_start", "task_name", "weight", "pending0",
        "od_ptr", "od_mk", "od_ak", "od_dest", "od_oid", "od_nbytes",
        "od_uname", "od_oname", "od_ok0", "od_ow",
        "os_ptr", "os_sk", "cons_ptr", "cons_mk",
        "mk_dest", "mk_oid", "mk_need0", "mk_oname", "mk_uname",
        "wait_ptr", "wait_tid",
        "grp_of", "grp_ptr", "grp_mk",
        "sk_dest", "swait_ptr", "swait_tid",
        "ak_index", "mk_index", "sk_index", "grp_index",
        "obj_name", "obj_size",
        "span_oids", "perm_bytes", "writes_by_po",
        "base_steps", "base_pos", "spec_costs",
    )


class ExecPlan:
    """Executable step programs for one (capacity, spec, mode) tuple.

    Holds the per-processor ``SEG``/``TASK``/``MAP`` step lists, the
    lowered MAP actions (free/alloc oids, package table) and every
    spec-dependent cost precomputed with the interpreted engine's exact
    float expressions.  The step lists are an overlay on the lowering's
    base programs: MAP steps and the SEG pieces a MAP splits are this
    plan's own, every other step tuple (and ``od_net_l``/``od_nic_l``)
    is shared with the lowering and must not be mutated.  Cached on the
    owning ``CompiledSchedule`` under
    ``(capacity, spec, memory_managed, preknown)``.
    """

    __slots__ = (
        "capacity", "spec", "memory_managed", "preknown", "managed_check",
        "steps",
        "mf_oid_l", "mf_grp_l", "ma_oid_l",
        "pkg_src_l", "pkg_dst_l", "pkg_cost_l", "pkg_objs",
        "pkg_ak_ptr_l", "pkg_ak_l",
        "od_net_l", "od_nic_l",
        "send_oh", "put_lat", "ra_cost", "nic_serialize",
        "known_all",
    )


def lower_schedule(cs) -> LoweredSchedule:
    """Lower ``cs`` to the dense IR; memoised as ``cs._lowered``."""
    cs.check_fresh()
    if cs._lowered is not None:
        cs.counters["lower_hits"] += 1
        return cs._lowered
    cs.counters["lower_misses"] += 1
    _t0_lower = perf_counter()

    g, sched = cs.graph, cs.schedule
    nprocs = cs.num_procs
    try:
        validate_owner_compute(g, sched.placement, sched.assignment)
    except Exception as err:
        raise SimulationError(
            f"compiled engine requires an owner-compute assignment: {err}"
        ) from err

    lo = LoweredSchedule()
    lo.num_procs = nprocs
    lo.num_objects = g.num_objects

    # --- tasks: tid = flattened order position -----------------------
    proc_start = [0]
    task_name: list[str] = []
    for q in range(nprocs):
        task_name.extend(sched.orders[q])
        proc_start.append(len(task_name))
    ntasks = len(task_name)
    tid_of = {name: i for i, name in enumerate(task_name)}
    proc_of = [0] * ntasks
    for q in range(nprocs):
        for i in range(proc_start[q], proc_start[q + 1]):
            proc_of[i] = q
    lo.num_tasks = ntasks
    lo.proc_start = proc_start
    lo.task_name = task_name

    weight = [float(cs.weight[t]) for t in task_name]
    if any(w < 0.0 for w in weight):
        raise SimulationError(
            "compiled engine requires non-negative task weights"
        )
    pending0 = [cs.pending0.get(t, 0) for t in task_name]
    lo.weight, lo.pending0 = weight, pending0

    # --- objects / units ---------------------------------------------
    obj_name = [""] * g.num_objects
    for name, oid in g.object_index.items():
        obj_name[oid] = name
    lo.obj_name = obj_name
    lo.obj_size = [int(cs.obj_size[name]) for name in obj_name]
    oid_of = g.object_index

    # --- message keys (mk), groups, sync keys (sk) --------------------
    mk_index: dict[tuple, int] = {}
    mk_dest: list[int] = []
    mk_oid: list[int] = []
    mk_oname: list[str] = []
    mk_uname: list[str] = []
    mk_need0: list[int] = []
    wait_ptr = [0]
    wait_tid: list[int] = []
    grp_index: dict[tuple, int] = {}
    grp_members: list[list[int]] = []
    grp_of: list[int] = []
    for dest in range(nprocs):
        need0 = cs.need_count0[dest]
        for (m, unit), waiters in cs.data_waiters[dest].items():
            mk = len(mk_dest)
            mk_index[(dest, m, unit)] = mk
            mk_dest.append(dest)
            mk_oid.append(oid_of[m])
            mk_oname.append(m)
            mk_uname.append(unit)
            mk_need0.append(need0[(m, unit)])
            wait_tid.extend(tid_of[w] for w in waiters)
            wait_ptr.append(len(wait_tid))
            gkey = (dest, m)
            gid = grp_index.get(gkey)
            if gid is None:
                gid = len(grp_members)
                grp_index[gkey] = gid
                grp_members.append([])
            grp_members[gid].append(mk)
            grp_of.append(gid)
    grp_ptr = [0]
    grp_mk: list[int] = []
    for members in grp_members:
        grp_mk.extend(members)
        grp_ptr.append(len(grp_mk))

    sk_index: dict[tuple, int] = {}
    sk_dest: list[int] = []
    swait_ptr = [0]
    swait_tid: list[int] = []
    for dest in range(nprocs):
        for u, waiters in cs.sync_waiters[dest].items():
            sk_index[(u, dest)] = len(sk_dest)
            sk_dest.append(dest)
            swait_tid.extend(tid_of[w] for w in waiters)
            swait_ptr.append(len(swait_tid))

    lo.num_mk = len(mk_dest)
    lo.num_sk = len(sk_dest)
    lo.num_grp = len(grp_members)
    lo.mk_index, lo.sk_index, lo.grp_index = mk_index, sk_index, grp_index
    lo.mk_dest, lo.mk_oid, lo.mk_need0 = mk_dest, mk_oid, mk_need0
    lo.mk_oname, lo.mk_uname = mk_oname, mk_uname
    lo.wait_ptr, lo.wait_tid = wait_ptr, wait_tid
    lo.grp_of, lo.grp_ptr, lo.grp_mk = grp_of, grp_ptr, grp_mk
    lo.sk_dest, lo.swait_ptr, lo.swait_tid = sk_dest, swait_ptr, swait_tid

    # --- outgoing messages (od / os CSR) + address keys (ak) ----------
    ak_index: dict[tuple, int] = {}
    od_ptr = [0]
    od_mk: list[int] = []
    od_ak: list[int] = []
    od_dest: list[int] = []
    od_oid: list[int] = []
    od_nbytes: list[int] = []
    od_uname: list[str] = []
    od_oname: list[str] = []
    os_ptr = [0]
    os_sk: list[int] = []
    cons_ptr = [0]
    cons_mk: list[int] = []
    for tid, name in enumerate(task_name):
        src = proc_of[tid]
        for m, unit, dest, nbytes in cs.out_data.get(name, ()):
            akey = (src, oid_of[m], dest)
            ak = ak_index.get(akey)
            if ak is None:
                ak = len(ak_index)
                ak_index[akey] = ak
            od_mk.append(mk_index[(dest, m, unit)])
            od_ak.append(ak)
            od_dest.append(dest)
            od_oid.append(oid_of[m])
            od_nbytes.append(nbytes)
            od_uname.append(unit)
            od_oname.append(m)
        od_ptr.append(len(od_mk))
        for u, dest in cs.out_sync.get(name, ()):
            os_sk.append(sk_index[(u, dest)])
        os_ptr.append(len(os_sk))
        for m, unit in cs.consumes[name]:
            cons_mk.append(mk_index[(proc_of[tid], m, unit)])
        cons_ptr.append(len(cons_mk))
    lo.num_ak = len(ak_index)
    lo.ak_index = ak_index
    lo.od_ptr, lo.od_mk, lo.od_ak = od_ptr, od_mk, od_ak
    lo.od_dest, lo.od_oid, lo.od_nbytes = od_dest, od_oid, od_nbytes
    lo.od_uname, lo.od_oname = od_uname, od_oname
    lo.os_ptr, lo.os_sk = os_ptr, os_sk
    lo.cons_ptr, lo.cons_mk = cons_ptr, cons_mk

    # --- static version timeline (replaces current_version dict) -----
    # writes_by_po[(q, oid)] = ordered (position, unit-name) write list.
    writes_by_po: dict[tuple, list[tuple[int, str]]] = {}
    od_ok0 = [False] * len(od_mk)
    od_ow = [_NO_OVERWRITE] * len(od_mk)
    for q in range(nprocs):
        ver: dict[int, str] = {}
        for pos, tid in enumerate(range(proc_start[q], proc_start[q + 1])):
            name = task_name[tid]
            for m, uu in cs.write_version[name]:
                oid = oid_of[m]
                ver[oid] = uu
                writes_by_po.setdefault((q, oid), []).append((pos, uu))
            for od in range(od_ptr[tid], od_ptr[tid + 1]):
                od_ok0[od] = ver.get(od_oid[od]) == od_uname[od]
        for pos, tid in enumerate(range(proc_start[q], proc_start[q + 1])):
            for od in range(od_ptr[tid], od_ptr[tid + 1]):
                req = od_uname[od]
                for wpos, uu in writes_by_po.get((q, od_oid[od]), ()):
                    if wpos > pos and uu != req:
                        od_ow[od] = wpos
                        break
    lo.od_ok0, lo.od_ow = od_ok0, od_ow
    lo.writes_by_po = writes_by_po

    # --- lowering cross-check -----------------------------------------
    # Every cross-processor edge must have been lowered to a data-message
    # or sync waiter above.
    assignment = sched.assignment
    for name, inner in g.successor_map().items():
        pu = assignment[name]
        for v, objs in inner.items():
            pv = assignment[v]
            if pu == pv:
                continue
            if objs:
                unit = cs.pid(name)
                for m in objs:
                    if (pv, m, unit) not in mk_index:
                        raise SimulationError(
                            f"lowering lost data edge {name}->{v} ({m!r})"
                        )
            elif (name, pv) not in sk_index:
                raise SimulationError(
                    f"lowering lost sync edge {name}->{v}"
                )

    # --- per-processor memory constants -------------------------------
    lo.span_oids = [
        [oid_of[m] for m in cs.profile.procs[q].span] for q in range(nprocs)
    ]
    lo.perm_bytes = list(cs.perm_bytes)

    # --- MAP-free step programs (shared by every ExecPlan) ------------
    # SEG steps pack maximal runs of silent tasks, TASK steps carry one
    # message-bearing task; base_pos[q][k] is the order position of the
    # first task of step k.
    lo.base_steps = []
    lo.base_pos = []
    for q in range(nprocs):
        prog: list[tuple] = []
        starts: list[int] = []
        cur_ws: list[float] = []
        start = proc_start[q]
        for i in range(proc_start[q + 1] - start):
            tid = start + i
            if (
                pending0[tid] == 0
                and od_ptr[tid] == od_ptr[tid + 1]
                and os_ptr[tid] == os_ptr[tid + 1]
                and cons_ptr[tid] == cons_ptr[tid + 1]
            ):
                if not cur_ws:
                    starts.append(i)
                cur_ws.append(weight[tid])
                continue
            if cur_ws:
                prog.append(_make_seg(cur_ws))
                cur_ws = []
            starts.append(i)
            prog.append((
                _TASK_OP, tid, weight[tid],
                od_ptr[tid], od_ptr[tid + 1],
                os_ptr[tid], os_ptr[tid + 1],
                cons_ptr[tid], cons_ptr[tid + 1],
            ))
        if cur_ws:
            prog.append(_make_seg(cur_ws))
        lo.base_steps.append(prog)
        lo.base_pos.append(starts)
    #: MachineSpec -> (od_net_l, od_nic_l), filled by get_exec_plan.
    lo.spec_costs = {}

    cs.counters["lower_s"] += perf_counter() - _t0_lower
    cs._lowered = lo
    if os.environ.get("REPRO_VERIFY_IR"):
        # Debug path: verify the fresh lowering like llvm::verifyModule
        # (memoised above, so the verifier's re-entry hits the cache).
        from ..analysis.irverify import debug_verify

        debug_verify(cs)
    return lo


#: Segment length from which the numpy kernels beat the Python loops.
#: ``np.add.accumulate`` is an element-recursive left fold — the exact
#: addition sequence of the Python kernels — so both paths are
#: bit-identical and the switch is purely a speed decision.
_SEG_VEC_MIN = 64


def _make_seg(ws: list[float]) -> tuple:
    n = len(ws)
    arr = np.asarray(ws, dtype=np.float64)
    s = float(np.sum(arr))
    margin = 1.0 + (16.0 * n + 64.0) * _EPS
    if n >= _SEG_VEC_MIN:
        # Weight array plus two scratch accumulators (avail and busy
        # chains use different bases) for the vectorised kernels.
        return (_SEG_OP, ws, s, margin, n, arr, np.empty(n + 1), np.empty(n + 1))
    return (_SEG_OP, ws, s, margin, n, None, None, None)


def _rest_of(step: tuple, start: int, cut: int) -> tuple:
    """Base ``step`` (first position ``start``) from position ``cut`` on:
    the step itself, or the tail of a SEG a MAP split."""
    return step if cut == start else _make_seg(step[1][cut - start:])


def get_exec_plan(
    cs,
    capacity: int,
    spec: MachineSpec,
    memory_managed: bool,
    preknown: bool,
) -> ExecPlan:
    """Execution plan for one (capacity, spec, mode); memoised on ``cs``.

    The key includes the full :class:`MachineSpec` (hash-by-value
    frozen dataclass) so sweeps over different machines or scaled
    overheads never share cost tables; :meth:`CompiledSchedule
    .check_fresh` guards against schedule mutation behind the cache.

    The step programs are an overlay on the lowering's MAP-free base
    programs: each MAP position is bisected into the base, the steps
    before it are copied by list slice, a SEG it falls inside is split
    on exactly the weight slices a from-scratch build would pack, and
    the MAP step is inserted.  Untouched base tuples are shared, never
    copied, so the cost is O(#MAPs · log + allocations) plus the slice
    copies; a plan without MAPs reuses the base lists as they are.
    """
    cs.check_fresh()
    key = (capacity, spec, memory_managed, preknown)
    ep = cs._exec_plans.get(key)
    if ep is not None:
        cs.counters["exec_plan_hits"] += 1
        return ep
    cs.counters["exec_plan_misses"] += 1
    _t0_plan = perf_counter()
    lo = lower_schedule(cs)
    nprocs = lo.num_procs
    plan = cs.plan_for(capacity) if memory_managed else None

    ep = ExecPlan()
    ep.capacity = capacity
    ep.spec = spec
    ep.memory_managed = memory_managed
    ep.preknown = preknown
    ep.managed_check = memory_managed and not preknown
    ep.known_all = not memory_managed or preknown
    ep.send_oh = spec.send_overhead
    ep.put_lat = spec.put_latency
    ep.ra_cost = spec.ra_cost
    ep.nic_serialize = spec.nic_serialize
    # Exact interpreted cost expressions, per message (per spec).
    costs = lo.spec_costs.get(spec)
    if costs is None:
        costs = lo.spec_costs[spec] = (
            [spec.message_time(nb) for nb in lo.od_nbytes],
            [nb * spec.byte_time for nb in lo.od_nbytes],
        )
    ep.od_net_l, ep.od_nic_l = costs

    mf_oid_l: list[int] = []
    mf_grp_l: list[int] = []
    ma_oid_l: list[int] = []
    pkg_src_l: list[int] = []
    pkg_dst_l: list[int] = []
    pkg_cost_l: list[float] = []
    pkg_objs: list[list[str]] = []
    pkg_ak_ptr_l = [0]
    pkg_ak_l: list[int] = []
    oid_of = cs.graph.object_index
    grp_index = lo.grp_index
    ak_index = lo.ak_index

    def map_step(q: int, mp) -> tuple:
        cost = (
            spec.map_overhead
            + len(mp.frees) * spec.free_cost
            + len(mp.allocs) * spec.alloc_cost
        )
        flo = len(mf_oid_l)
        mf_oid_l.extend(map(oid_of.__getitem__, mp.frees))
        for m in mp.frees:
            mf_grp_l.append(grp_index.get((q, m), -1))
        alo = len(ma_oid_l)
        ma_oid_l.extend(map(oid_of.__getitem__, mp.allocs))
        plo = len(pkg_dst_l)
        for dst, objs in sorted(mp.notifications.items()):
            pkg_src_l.append(q)
            pkg_dst_l.append(dst)
            pkg_cost_l.append(
                spec.package_overhead + len(objs) * spec.address_cost
            )
            pkg_objs.append(list(objs))
            for m in objs:
                ak = ak_index.get((dst, oid_of[m], q))
                if ak is not None:
                    pkg_ak_l.append(ak)
            pkg_ak_ptr_l.append(len(pkg_ak_l))
        return (
            _MAP_OP, cost, flo, len(mf_oid_l), alo, len(ma_oid_l),
            plo, len(pkg_dst_l),
        )

    # Same MAP placement semantics as Simulator._map_at: one MapPoint
    # per (proc, position), last wins, and positions at or past the end
    # of the order never execute.
    map_at: list[dict[int, object]] = [dict() for _ in range(nprocs)]
    if plan is not None:
        for pts in plan.points:
            for mp in pts:
                map_at[mp.proc][mp.position] = mp
    steps: list[list[tuple]] = []
    for q in range(nprocs):
        base, starts = lo.base_steps[q], lo.base_pos[q]
        if not map_at[q]:
            steps.append(base)
            continue
        n = lo.proc_start[q + 1] - lo.proc_start[q]
        prog: list[tuple] = []
        k = 0  # base step holding the next position to emit
        cut = 0  # that position (== starts[k] unless a MAP split step k)
        for pos in sorted(i for i in map_at[q] if 0 <= i < n):
            j = bisect_right(starts, pos) - 1
            if j > k:
                # Finish step k, then copy the steps up to the one
                # holding ``pos`` untouched.
                prog.append(_rest_of(base[k], starts[k], cut))
                prog.extend(base[k + 1:j])
                k, cut = j, starts[j]
            if cut < pos:
                # ``pos`` falls inside SEG k (a TASK step covers one
                # position): emit the silent run before the MAP.
                prog.append(_make_seg(base[k][1][cut - starts[k]:pos - starts[k]]))
                cut = pos
            prog.append(map_step(q, map_at[q][pos]))
        if k < len(base):
            prog.append(_rest_of(base[k], starts[k], cut))
            prog.extend(base[k + 1:])
        steps.append(prog)

    ep.steps = steps
    ep.mf_oid_l, ep.mf_grp_l, ep.ma_oid_l = mf_oid_l, mf_grp_l, ma_oid_l
    ep.pkg_src_l, ep.pkg_dst_l = pkg_src_l, pkg_dst_l
    ep.pkg_cost_l, ep.pkg_objs = pkg_cost_l, pkg_objs
    ep.pkg_ak_ptr_l, ep.pkg_ak_l = pkg_ak_ptr_l, pkg_ak_l
    cs.counters["exec_plan_s"] += perf_counter() - _t0_plan
    cs._exec_plans[key] = ep
    if os.environ.get("REPRO_VERIFY_IR"):
        # Debug path: check the step programs before anything runs them.
        from ..analysis.irverify import debug_verify

        debug_verify(cs, ep)
    return ep


def _seg_all_hot(ws, a, b):
    """Unchecked silent-segment kernel: sequential float adds only."""
    for w in ws:
        a += w
        b += w
    return a, b


def _seg_all_vec(step, a, b):
    """Vectorised :func:`_seg_all_hot` (bit-identical, see _SEG_VEC_MIN)."""
    wsarr, bufa, bufb = step[5], step[6], step[7]
    n = step[4]
    bufa[0] = a
    bufa[1:] = wsarr
    np.add.accumulate(bufa, out=bufa)
    bufb[0] = b
    bufb[1:] = wsarr
    np.add.accumulate(bufb, out=bufb)
    return float(bufa[n]), float(bufb[n])


def _seg_until_vec(step, k, n, a, b, thr):
    """Vectorised :func:`_seg_until_hot` (bit-identical results).

    The finish-time prefix is nondecreasing (weights are validated
    nonnegative, and IEEE addition of a nonnegative term never rounds
    below the base), so the first crossing is a ``searchsorted``: the
    insertion point counts exactly the finishes strictly below ``thr``.
    """
    wsarr, bufa, bufb = step[5], step[6], step[7]
    nk = n - k
    acca = bufa[: nk + 1]
    acca[0] = a
    acca[1:] = wsarr[k:]
    np.add.accumulate(acca, out=acca)
    j = int(np.searchsorted(acca[1:], thr, side="left"))
    e = j + 1 if j < nk else nk  # the crossing task itself executes
    accb = bufb[: e + 1]
    accb[0] = b
    accb[1:] = wsarr[k : k + e]
    np.add.accumulate(accb, out=accb)
    lastf = float(acca[j]) if j > 0 else a
    return float(acca[e]), float(accb[e]), k + j, lastf


def _seg_until_hot(ws, k, n, a, b, thr):
    """Checked silent-segment kernel.

    Executes tasks ``k..n-1`` sequentially from time ``a``; stops after
    executing the first task whose finish crosses ``thr`` (its
    completion must go through the event heap).  Returns the new
    ``(avail, busy, crossing-index, last-inline-finish)``; a crossing
    index of ``n`` means the whole segment completed inline.
    """
    i = k
    lastf = a
    while i < n:
        w = ws[i]
        f = a + w
        b += w
        a = f
        if f >= thr:
            break
        lastf = f
        i += 1
    return a, b, i, lastf


def run_compiled(sim) -> "SimResult":  # noqa: F821 (sphinx-style ref)
    """Execute ``sim`` with the array-compiled engine.

    Mirrors :meth:`Simulator._run_interpreted` action-for-action (see
    the module docstring's exactness contract); returns a
    :class:`~repro.machine.simulator.SimResult` with
    ``engine="compiled"``.
    """
    from .simulator import ProcessorStats, SimResult

    cs = sim.compiled
    spec = sim.spec
    ep = get_exec_plan(
        cs, sim.capacity, spec, sim.memory_managed, sim.preknown_addresses
    )
    lo = cs._lowered
    nprocs = lo.num_procs
    nobjects = lo.num_objects
    capacity = sim.capacity
    preknown = ep.preknown
    managed_check = ep.managed_check

    # Static tables as locals (closure lookups beat attribute lookups).
    steps = ep.steps
    od_mk, od_ak = lo.od_mk, lo.od_ak
    od_ok0, od_ow = lo.od_ok0, lo.od_ow
    os_sk, cons_mk = lo.os_sk, lo.cons_mk
    mk_dest, mk_oid = lo.mk_dest, lo.mk_oid
    mk_oname, mk_uname = lo.mk_oname, lo.mk_uname
    wait_ptr, wait_tid = lo.wait_ptr, lo.wait_tid
    grp_of, grp_ptr, grp_mk = lo.grp_of, lo.grp_ptr, lo.grp_mk
    sk_dest = lo.sk_dest
    swait_ptr, swait_tid = lo.swait_ptr, lo.swait_tid
    mf_oid_l, mf_grp_l, ma_oid_l = ep.mf_oid_l, ep.mf_grp_l, ep.ma_oid_l
    pkg_src_l, pkg_dst_l = ep.pkg_src_l, ep.pkg_dst_l
    pkg_cost_l = ep.pkg_cost_l
    pkg_ak_ptr_l, pkg_ak_l = ep.pkg_ak_ptr_l, ep.pkg_ak_l
    od_net_l, od_nic_l = ep.od_net_l, ep.od_nic_l
    osz = lo.obj_size
    obj_name = lo.obj_name
    send_oh, put_lat, ra_cost = ep.send_oh, ep.put_lat, ep.ra_cost
    nic_serialize = ep.nic_serialize
    heappush, heappop = heapq.heappush, heapq.heappop

    # --- mutable run-local state --------------------------------------
    state = [_REC] * nprocs
    sp = [0] * nprocs  # current step index per processor
    so = [0] * nprocs  # offset inside the current SEG step
    nt = [0] * nprocs  # completed tasks per processor (== idx[q])
    avail = [0.0] * nprocs
    busy = [0.0] * nprocs
    over = [0.0] * nprocs
    nmaps = [0] * nprocs
    dmsg = [0] * nprocs
    smsg = [0] * nprocs
    susp_ct = [0] * nprocs
    psent = [0] * nprocs
    pread = [0] * nprocs
    peakmem = [0] * nprocs
    fin = [0.0] * nprocs
    ltf = [0.0] * nprocs  # last task finish per processor
    nic_free = [0.0] * nprocs
    nsteps = [len(s) for s in steps]

    pending = lo.pending0.copy()
    need = lo.mk_need0.copy()
    arrived = bytearray(lo.num_mk)
    sync_arr = bytearray(lo.num_sk)
    known = (
        bytearray(b"\x01" * lo.num_ak) if ep.known_all
        else bytearray(lo.num_ak)
    )
    allocated = bytearray(nprocs * nobjects)
    used = [0] * nprocs
    apk = [0] * nprocs  # allocator peak per processor
    suspended: list[list[int]] = [[] for _ in range(nprocs)]
    pending_pkgs: list[list[int]] = [[] for _ in range(nprocs)]
    map_pending = [0] * nprocs
    slot = bytearray(nprocs * nprocs)
    inbox_row = [[-1] * nprocs for _ in range(nprocs)]
    inbox_ct = [0] * nprocs
    finished = 0

    # Pre-allocation: permanent footprint, then (baseline) the full
    # volatile span — same order and same error messages as the
    # interpreted engine's ObjectAllocator.
    for q in range(nprocs):
        pb = lo.perm_bytes[q]
        if pb:
            if pb > capacity:
                raise MemoryError_(
                    f"allocating '<permanent>' ({pb} B) exceeds capacity "
                    f"({used[q]}/{capacity} B used)"
                )
            used[q] = pb
            apk[q] = pb
    if not ep.memory_managed:
        for q in range(nprocs):
            u = used[q]
            base = q * nobjects
            for oid in lo.span_oids[q]:
                if allocated[base + oid]:
                    raise MemoryError_(
                        f"object {obj_name[oid]!r} is already allocated"
                    )
                sz = osz[oid]
                if u + sz > capacity:
                    raise MemoryError_(
                        f"allocating {obj_name[oid]!r} ({sz} B) exceeds "
                        f"capacity ({u}/{capacity} B used)"
                    )
                allocated[base + oid] = 1
                u += sz
            used[q] = u
            if u > apk[q]:
                apk[q] = u

    events: list[tuple] = []
    seq = 0
    last_seq = -1
    now = 0.0
    booting = True

    def push(t: float, code: int) -> None:
        # Same (time, seq) contract as the interpreted post() — see the
        # simulator module docstring; asserted for engine parity.
        nonlocal seq, last_seq
        assert seq > last_seq, (
            f"event seq must be strictly monotone ({seq} <= {last_seq})"
        )
        assert t >= now, (
            f"event scheduled in the past (t={t!r} < now={now!r})"
        )
        last_seq = seq
        heappush(events, (t, seq, code))
        seq += 1

    def charge(q: int, t: float, cost: float) -> float:
        a = avail[q]
        if a < t:
            a = t
        end = a + cost
        avail[q] = end
        over[q] += cost
        return end

    def _version_name_at(q: int, oid: int) -> Optional[str]:
        """current_version[m] as the interpreted engine would see it at
        a dispatch on ``q`` after ``nt[q]`` completions (cold path)."""
        last = None
        for pos, uname in lo.writes_by_po.get((q, oid), ()):
            if pos < nt[q]:
                last = uname
            else:
                break
        return last

    def _raise_version(q: int, od: int):
        ver = _version_name_at(q, lo.od_oid[od])
        raise DataConsistencyError(
            f"P{q} sending {lo.od_oname[od]!r} version {ver!r} for an "
            f"edge requiring version {lo.od_uname[od]!r}"
        )

    def dispatch(q: int, od: int, t: float) -> None:
        if not od_ok0[od] or nt[q] > od_ow[od]:
            _raise_version(q, od)
        t2 = charge(q, t, send_oh)
        dmsg[q] += 1
        if nic_serialize:
            nf = nic_free[q]
            start = nf if nf >= t2 else t2
            nic_free[q] = start + od_nic_l[od]
            arrive = start + od_net_l[od]
        else:
            arrive = t2 + od_net_l[od]
        push(arrive, _DATA_BASE | od_mk[od])

    def ra(q: int, t: float) -> None:
        if inbox_ct[q]:
            row = inbox_row[q]
            for src in range(nprocs):
                k = row[src]
                if k < 0:
                    continue
                row[src] = -1
                i = pkg_ak_ptr_l[k]
                hi = pkg_ak_ptr_l[k + 1]
                while i < hi:
                    known[pkg_ak_l[i]] = 1
                    i += 1
                pread[q] += 1
                charge(q, t, ra_cost)
                a = avail[q]
                start = a if a >= t else t
                push(start + put_lat, _SLOT_BASE | (src * nprocs + q))
            inbox_ct[q] = 0
        if suspended[q]:
            still = []
            ready = []
            for od in suspended[q]:
                if known[od_ak[od]]:
                    ready.append(od)
                else:
                    still.append(od)
            suspended[q] = still
            for od in ready:
                a = avail[q]
                dispatch(q, od, a if a >= t else t)

    def try_send(q: int, t: float) -> bool:
        still = []
        for k in pending_pkgs[q]:
            dst = pkg_dst_l[k]
            if slot[q * nprocs + dst]:
                still.append(k)
                continue
            slot[q * nprocs + dst] = 1
            t2 = charge(q, t, pkg_cost_l[k])
            psent[q] += 1
            push(t2 + put_lat, _ADDR_BASE | k)
        pending_pkgs[q] = still
        return not still

    def exec_map(q: int, step: tuple, t: float) -> None:
        nmaps[q] += 1
        charge(q, t, step[1])
        u = used[q]
        base = q * nobjects
        i = step[2]
        hi = step[3]
        while i < hi:
            oid = mf_oid_l[i]
            if not allocated[base + oid]:
                raise MemoryError_(
                    f"freeing unallocated object {obj_name[oid]!r}"
                )
            allocated[base + oid] = 0
            u -= osz[oid]
            gid = mf_grp_l[i]
            if gid >= 0:
                j = grp_ptr[gid]
                ghi = grp_ptr[gid + 1]
                while j < ghi:
                    arrived[grp_mk[j]] = 0
                    j += 1
            i += 1
        i = step[4]
        hi = step[5]
        while i < hi:
            oid = ma_oid_l[i]
            if allocated[base + oid]:
                raise MemoryError_(
                    f"object {obj_name[oid]!r} is already allocated"
                )
            sz = osz[oid]
            if u + sz > capacity:
                raise MemoryError_(
                    f"allocating {obj_name[oid]!r} ({sz} B) exceeds "
                    f"capacity ({u}/{capacity} B used)"
                )
            allocated[base + oid] = 1
            u += sz
            if u > apk[q]:
                apk[q] = u
            i += 1
        used[q] = u
        if apk[q] > peakmem[q]:
            peakmem[q] = apk[q]
        if not preknown:
            pp = pending_pkgs[q]
            k = step[6]
            hi = step[7]
            while k < hi:
                pp.append(k)
                k += 1
            map_pending[q] = 1

    def finish_noisy(q: int, step: tuple, t: float) -> None:
        nt[q] += 1
        ltf[q] = t
        i = step[7]
        hi = step[8]
        while i < hi:
            need[cons_mk[i]] -= 1
            i += 1
        i = step[3]
        hi = step[4]
        while i < hi:
            if known[od_ak[i]]:
                dispatch(q, i, t)
            else:
                suspended[q].append(i)
                susp_ct[q] += 1
            i += 1
        i = step[5]
        hi = step[6]
        while i < hi:
            t2 = charge(q, t, send_oh)
            smsg[q] += 1
            push(t2 + put_lat, _SYNC_BASE | os_sk[i])
            i += 1
        sp[q] += 1

    def advance(q: int, t: float) -> None:
        nonlocal finished
        st = state[q]
        if st == _EXE or st == _DONE:
            return
        if inbox_ct[q] or suspended[q]:
            ra(q, t)
        steps_q = steps[q]
        ns = nsteps[q]
        while True:
            if map_pending[q]:
                a = avail[q]
                if not try_send(q, a if a >= t else t):
                    state[q] = _MAP
                    return
                map_pending[q] = 0
            i = sp[q]
            if i >= ns:
                if suspended[q] or pending_pkgs[q]:
                    state[q] = _END
                    return
                if state[q] != _DONE:
                    state[q] = _DONE
                    a = avail[q]
                    fin[q] = a if a >= t else t
                    finished += 1
                return
            step = steps_q[i]
            op = step[0]
            if op == _MAP_OP:
                exec_map(q, step, t)
                sp[q] = i + 1
                continue
            if op == _SEG_OP:
                ws = step[1]
                n = step[4]
                k = so[q]
                a = avail[q]
                if a < t:
                    a = t
                if booting:
                    thr = _NEG_INF
                else:
                    thr = events[0][0] if events else _INF
                if k == 0 and (a + step[2]) * step[3] < thr:
                    if step[5] is not None:
                        b = _seg_all_vec(step, a, busy[q])
                    else:
                        b = _seg_all_hot(ws, a, busy[q])
                    avail[q] = b[0]
                    busy[q] = b[1]
                    nt[q] += n
                    ltf[q] = b[0]
                    sp[q] = i + 1
                    continue
                if step[5] is not None and n - k >= _SEG_VEC_MIN:
                    a2, b2, j, lastf = _seg_until_vec(step, k, n, a, busy[q], thr)
                else:
                    a2, b2, j, lastf = _seg_until_hot(ws, k, n, a, busy[q], thr)
                busy[q] = b2
                avail[q] = a2
                nc = j - k
                if nc:
                    nt[q] += nc
                    ltf[q] = lastf
                if j < n:
                    # Task j executed; its completion crosses the event
                    # horizon and must pop through the heap.
                    so[q] = j
                    state[q] = _EXE
                    push(a2, _TASK_BASE | q)
                    return
                sp[q] = i + 1
                so[q] = 0
                continue
            # _TASK_OP
            if pending[step[1]] > 0:
                state[q] = _REC
                return
            w = step[2]
            a = avail[q]
            if a < t:
                a = t
            busy[q] += w
            f = a + w
            avail[q] = f
            if booting or (events and f >= events[0][0]):
                state[q] = _EXE
                push(f, _TASK_BASE | q)
                return
            # Inline completion: f is strictly before every queued
            # event, so the interpreted engine would pop exactly this
            # completion next.  The interpreted re-entry ra() is a
            # provable no-op here: no pops happened since advance
            # entry, so the inbox is still empty and any send just
            # suspended has an unknown address by definition.
            finish_noisy(q, step, f)
            a = avail[q]
            t = a if a >= f else f

    # --- bootstrap (push-only: see module docstring) -------------------
    for q in range(nprocs):
        advance(q, 0.0)
    booting = False

    # --- event loop ---------------------------------------------------
    while events:
        ev = heappop(events)
        t = ev[0]
        now = t
        code = ev[2]
        kind = code >> _SHIFT
        arg = code & _ARG_MASK
        if kind == 0:  # TASK_DONE on processor arg
            q = arg
            step = steps[q][sp[q]]
            if step[0] == _SEG_OP:
                nt[q] += 1
                ltf[q] = t
                k = so[q] + 1
                if k >= step[4]:
                    sp[q] += 1
                    so[q] = 0
                else:
                    so[q] = k
            else:
                finish_noisy(q, step, t)
            state[q] = _REC
            a = avail[q]
            advance(q, a if a >= t else t)
        elif kind == 1:  # DATA_ARRIVE of message key arg
            mk = arg
            dest = mk_dest[mk]
            if managed_check and not allocated[dest * nobjects + mk_oid[mk]]:
                raise SimulationError(
                    f"data for {mk_oname[mk]!r} arrived at P{dest} with "
                    "no allocated space (protocol violation)"
                )
            gid = grp_of[mk]
            glo = grp_ptr[gid]
            ghi = grp_ptr[gid + 1]
            if ghi - glo > 1:
                i = glo
                while i < ghi:
                    mk2 = grp_mk[i]
                    if mk2 != mk and arrived[mk2]:
                        if need[mk2] > 0:
                            raise DataConsistencyError(
                                f"P{dest} received {mk_oname[mk]!r}/"
                                f"{mk_uname[mk]!r} while version "
                                f"{mk_uname[mk2]!r} is still needed"
                            )
                        arrived[mk2] = 0
                    i += 1
            if not arrived[mk]:
                arrived[mk] = 1
                i = wait_ptr[mk]
                hi = wait_ptr[mk + 1]
                while i < hi:
                    pending[wait_tid[i]] -= 1
                    i += 1
            st = state[dest]
            if st == _REC or st == _MAP or st == _END:
                advance(dest, t)
        elif kind == 2:  # SYNC_ARRIVE of sync key arg
            sk = arg
            dest = sk_dest[sk]
            if not sync_arr[sk]:
                sync_arr[sk] = 1
                i = swait_ptr[sk]
                hi = swait_ptr[sk + 1]
                while i < hi:
                    pending[swait_tid[i]] -= 1
                    i += 1
            st = state[dest]
            if st == _REC or st == _MAP or st == _END:
                advance(dest, t)
        elif kind == 3:  # ADDR_ARRIVE of package arg
            k = arg
            dst = pkg_dst_l[k]
            src = pkg_src_l[k]
            row = inbox_row[dst]
            if row[src] < 0:
                inbox_ct[dst] += 1
            row[src] = k
            st = state[dst]
            if st == _REC or st == _MAP or st == _END:
                advance(dst, t)
            elif st == _DONE:
                ra(dst, t)
        else:  # SLOT_FREE: arg = src * P + dst
            slot[arg] = 0
            src = arg // nprocs
            st = state[src]
            if st == _REC or st == _MAP or st == _END:
                advance(src, t)

    # --- verdicts (exact interpreted parity) --------------------------
    completed = 0
    for q in range(nprocs):
        completed += nt[q]
    if finished != nprocs:
        _raise_deadlock(
            sim, lo, ep, state, nt, completed, arrived, sync_arr,
            suspended, pending_pkgs, slot, known,
        )
    if completed != sim.g.num_tasks:
        raise SimulationError(
            f"only {completed}/{sim.g.num_tasks} tasks executed"
        )
    stats = []
    for q in range(nprocs):
        pk = peakmem[q]
        if apk[q] > pk:
            pk = apk[q]
        if pk > capacity:
            raise SimulationError(
                f"P{q} peak memory {pk} exceeds capacity {capacity}"
            )
        stats.append(ProcessorStats(
            busy_time=busy[q],
            overhead_time=over[q],
            num_maps=nmaps[q],
            num_tasks=nt[q],
            data_msgs_sent=dmsg[q],
            sync_msgs_sent=smsg[q],
            suspended_sends=susp_ct[q],
            packages_sent=psent[q],
            packages_read=pread[q],
            peak_memory=pk,
            finish_time=fin[q],
        ))
    pt = max(fin) if fin else 0.0
    return SimResult(
        parallel_time=pt,
        task_finish_time=max(ltf) if ltf else 0.0,
        stats=stats,
        capacity=capacity,
        memory_managed=sim.memory_managed,
        plan=sim.plan,
        trace=None,
        telemetry=None,
        schedule_label=sim.schedule_label,
        engine="compiled",
    )


def _raise_deadlock(
    sim, lo, ep, state, nt, completed, arrived, sync_arr,
    suspended, pending_pkgs, slot, known,
):
    """Reconstruct the interpreted engine's DeadlockError verbatim."""
    cs = sim.compiled
    sched = cs.schedule
    nprocs = lo.num_procs
    blocked = {
        q: _STATE_NAMES[state[q]]
        for q in range(nprocs)
        if state[q] != _DONE
    }
    err = DeadlockError(blocked, completed, sim.g.num_tasks)
    details: dict[int, str] = {}
    wait_for: dict[int, set[int]] = {}
    assignment = sched.assignment
    trigger = cs.trigger
    mk_index, sk_index = lo.mk_index, lo.sk_index
    for q in range(nprocs):
        if state[q] == _DONE:
            continue
        waits = wait_for.setdefault(q, set())
        order = sched.orders[q]
        if nt[q] < len(order):
            task = order[nt[q]]
            missing = []
            for req in cs.needs[task]:
                if req[0] == "data":
                    mk = mk_index[(q, req[1], req[2])]
                    if not arrived[mk]:
                        missing.append(f"data {req[1]}@{req[2]}")
                        waits.add(assignment[trigger[req[2]]])
                elif not sync_arr[sk_index[(req[1], q)]]:
                    missing.append(f"sync {req[1]}")
                    waits.add(assignment[req[1]])
            details[q] = f"next={task} missing={missing}"
        else:
            susp = [
                (lo.od_oname[od], lo.od_uname[od], lo.od_dest[od],
                 lo.od_nbytes[od])
                for od in suspended[q]
            ]
            pkgs = [
                (ep.pkg_dst_l[k], list(ep.pkg_objs[k]))
                for k in pending_pkgs[q]
            ]
            details[q] = f"END suspended={susp} pending_pkgs={pkgs}"
        for k in pending_pkgs[q]:
            if slot[q * nprocs + ep.pkg_dst_l[k]]:
                waits.add(ep.pkg_dst_l[k])
        for od in suspended[q]:
            if not known[lo.od_ak[od]]:
                waits.add(lo.od_dest[od])
        waits.discard(q)
    err.details = details
    err.wait_for = wait_for
    raise err
