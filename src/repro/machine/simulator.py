"""Discrete-event execution of schedules under active memory management.

This module is the Cray-T3D stand-in: it executes a static schedule on
``p`` simulated processors connected by an RMA network, following the
five-state protocol of section 3.3 (Figure 3(b)):

* **REC** — the processor blocks until every input object of its next
  task is locally available;
* **EXE** — task computation (non-blocking, costs the task weight);
* **SND** — after a task completes, messages for remote readers are
  issued; a data put whose *remote address is unknown* is enqueued on the
  suspended sending queue (worst-case length ``O(e)``, as the paper
  notes);
* **MAP** — a memory allocation point: frees dead volatile objects,
  allocates forward, assembles address packages; blocks while a
  destination has not consumed the previous package (one unbuffered
  address slot per ordered processor pair);
* **END** — all local tasks done; the processor drains its suspended
  queue before terminating.

Blocked states perform **RA** (read arrived address packages, freeing
the sender's slot) and **CQ** (dispatch suspended sends whose addresses
became known) — in the event-driven setting these run at task
boundaries and whenever an event wakes a blocked processor, which is
semantically the "invoke frequently" requirement of the paper.

The simulator *verifies* Theorem 1 as it runs: every data put checks
that the sender's local content version matches the version the edge
requires (no stale copies), arriving data must land in allocated
space, and an empty event queue with unfinished processors raises
:class:`~repro.errors.DeadlockError` (which Theorem 1 proves impossible
when ``capacity >= MIN_MEM``; the property tests exercise this).

Two execution modes:

* ``memory_managed=True`` — the full protocol driven by a
  :class:`~repro.core.maps.MapPlan` (positions from the static liveness
  analysis);
* ``memory_managed=False`` — the *baseline* of Tables 2/3: all volatile
  space pre-allocated, all addresses known a priori, no MAP costs.

Performance architecture
------------------------

The static preprocessing (trigger tasks, message fan-out, receiver
requirement counts) depends only on the schedule, not on the memory
capacity, so it lives in :class:`CompiledSchedule` and is computed once
per schedule.  The experiment sweeps run one schedule under many
capacities; compiling once and passing ``compiled=`` skips the repeated
validation / liveness analysis / table construction.  A
``CompiledSchedule`` also memoises MAP plans per capacity.

Readiness of a task is tracked with countdown counters: every task
starts with the number of distinct remote inputs it waits for, each
arrival decrements the counters of the tasks waiting on that key, and a
task is ready exactly when its counter reaches zero — no per-wake-up
rescan of the requirement list.

All dynamic state of :meth:`Simulator.run` is local to the call: a
``Simulator`` (and the ``MapPlan``/``CompiledSchedule`` it holds) can be
run repeatedly — even concurrently from several threads — and a failed
run (:class:`~repro.errors.DeadlockError`, …) leaves no residue behind.

Event ordering and time arithmetic
----------------------------------

The event queue is a heap of ``(time, seq, kind, payload)`` tuples where
``seq`` is a strictly monotone push counter.  Same-timestamp events are
therefore processed in *push order* (deterministic FIFO tie-breaking);
:func:`post` asserts both invariants at push time — ``seq``
monotonicity, and causality (``time >= now``, the timestamp of the
event currently being processed), which together guarantee the heap
never pops an event "in the past" and that tie order is exactly
creation order.  All event times are plain Python ``float64`` values
produced by *sequential* additions (``start + cost``); there is no
re-association, no compensated summation and no numpy accumulation
anywhere in the loop, so a given schedule produces bit-identical times
on every run.  The array-compiled engine (:mod:`repro.machine.compiled`)
reproduces the same float expressions in the same order and only
completes a task inline when its finish time is *strictly* before the
earliest queued event, which preserves this (time, seq) order exactly —
the differential oracle compares engines with ``==``, not ``allclose``.

Engine selection
----------------

``Simulator(..., engine="compiled")`` routes fault-free, uninstrumented
runs through the array-compiled engine; runs with ``metrics=True``,
``trace=True``, an attached instrument, active fault injection, a
caller-supplied ``plan`` object, or negative spec costs fall back to
this interpreted engine *explicitly* (``SimResult.engine`` records
which engine produced the result).

Telemetry
---------

The run loop drives the :mod:`repro.obs` instrument layer with typed
protocol events (state transitions, puts issued/suspended/drained,
address-package traffic, MAP free/allocate decisions).  Instrumentation
follows the null-object pattern and is gated by a single ``observing``
boolean hoisted out of the loop: with ``trace=False``/``metrics=False``
and no instrument attached, the per-event cost is one local-bool test
and **no allocation** — the disabled engine speed is recorded by
``benchmarks/bench_sweep_engine.py``.  ``metrics=True`` attaches the
standard :class:`~repro.obs.instruments.MetricsSuite` and fills
:attr:`SimResult.metrics` / :attr:`SimResult.telemetry`; ``trace=True``
is now a :class:`~repro.obs.tracelog.TraceLog` instrument.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from time import perf_counter
from typing import Optional

from ..core.liveness import MemoryProfile, analyze_memory
from ..core.maps import MapPlan, MapPoint, plan_maps
from ..core.placement import validate_owner_compute
from ..core.schedule import Schedule
from ..errors import (
    CapacityError,
    DataConsistencyError,
    DeadlockError,
    SimulationError,
)
from ..obs.instrument import Instrument, MultiInstrument
from ..obs.instruments import MetricsSuite
from ..obs.metrics import build_metrics
from ..obs.tracelog import TraceEvent, TraceLog
from .memory import ObjectAllocator
from .spec import CRAY_T3D, MachineSpec

__all__ = [
    "CompiledSchedule",
    "ENGINE_COUNTER_KEYS",
    "ProcessorStats",
    "ProcState",
    "SimResult",
    "Simulator",
    "TraceEvent",
    "simulate",
]


class ProcState(Enum):
    REC = "REC"
    EXE = "EXE"
    SND = "SND"
    MAP = "MAP"
    END = "END"
    DONE = "DONE"


# Event kinds (ordered tuples on a heap).
_TASK_DONE = 0
_DATA_ARRIVE = 1
_ADDR_ARRIVE = 2
_SLOT_FREE = 3

#: Always-present keys of :attr:`CompiledSchedule.counters` (the
#: ``fallback:<reason>`` tallies appear on first use).  ``*_s`` keys
#: are :func:`time.perf_counter` phase timers in seconds; the
#: ``exec_plan_s`` miss timer *includes* any first-call lowering /
#: MAP-planning it triggers (subtract ``lower_s`` / ``plan_s`` for the
#: exclusive cost).
ENGINE_COUNTER_KEYS = (
    "plan_hits", "plan_misses", "plan_s",
    "lower_hits", "lower_misses", "lower_s",
    "exec_plan_hits", "exec_plan_misses", "exec_plan_s",
    "compiled_runs", "exec_s", "interpreted_runs",
)


@dataclass
class ProcessorStats:
    """Per-processor execution statistics."""

    busy_time: float = 0.0
    #: CPU time spent on protocol work: MAP actions, package assembly,
    #: RA reads, send overheads.
    overhead_time: float = 0.0
    num_maps: int = 0
    #: Tasks of the schedule order executed by this processor.
    num_tasks: int = 0
    data_msgs_sent: int = 0
    sync_msgs_sent: int = 0
    suspended_sends: int = 0
    packages_sent: int = 0
    packages_read: int = 0
    peak_memory: int = 0
    finish_time: float = 0.0

    @property
    def idle_time(self) -> float:
        """Time neither computing nor doing protocol work (blocked in
        REC / MAP / END waits)."""
        return max(self.finish_time - self.busy_time - self.overhead_time, 0.0)


@dataclass
class SimResult:
    """Outcome of one simulated execution."""

    parallel_time: float
    task_finish_time: float
    stats: list[ProcessorStats]
    capacity: int
    memory_managed: bool
    plan: Optional[MapPlan] = None
    trace: Optional[list[TraceEvent]] = None
    #: Versioned metrics document (``metrics=True``; see
    #: :func:`repro.obs.metrics.build_metrics`).
    metrics: Optional[dict] = None
    #: The :class:`~repro.obs.instruments.MetricsSuite` that observed the
    #: run (``metrics=True``); feeds the Chrome-trace / HTML exporters.
    telemetry: Optional[MetricsSuite] = None
    #: ``heuristic:pP:Nt`` label of the executed schedule.
    schedule_label: str = ""
    #: Which engine produced this result: ``"interpreted"`` or
    #: ``"compiled"`` (a requested-compiled run that fell back to the
    #: interpreted engine records ``"interpreted"``).
    engine: str = "interpreted"
    #: Why a requested-compiled run fell back to the interpreted engine
    #: (``"metrics"``, ``"trace"``, ``"instrument"``, ``"faults"``,
    #: ``"caller-plan"``, ``"negative-cost"``); ``None`` when no
    #: fallback happened.
    fallback_reason: Optional[str] = None

    def render_trace(self, limit: Optional[int] = 200) -> str:
        """Human-readable event log (requires ``trace=True``).

        ``limit`` caps the number of events shown; ``limit=None`` means
        *all* events.  The first line is a header identifying the run.
        """
        if self.trace is None:
            return "(tracing was not enabled)"
        shown = self.trace if limit is None else self.trace[:limit]
        lines = [
            f"# trace: schedule={self.schedule_label or '?'} "
            f"procs={len(self.stats)} capacity={self.capacity} "
            f"memory_managed={self.memory_managed} "
            f"events={len(self.trace)}"
        ]
        lines += [
            f"{e.time:12.6f}  P{e.proc}  {e.kind:<7} {e.detail}"
            for e in shown
        ]
        if len(self.trace) > len(shown):
            lines.append(f"... ({len(self.trace) - len(shown)} more events)")
        return "\n".join(lines)

    @property
    def avg_maps(self) -> float:
        """Average MAPs over processors that own tasks — the same
        non-empty-order rule as :attr:`repro.core.maps.MapPlan.avg_maps`,
        so the ``#MAPs`` columns of Tables 2/3/5 agree between the
        static plan and the executed result."""
        counts = [s.num_maps for s in self.stats if s.num_tasks]
        return sum(counts) / len(counts) if counts else 0.0

    @property
    def peak_memory(self) -> int:
        return max((s.peak_memory for s in self.stats), default=0)

    @property
    def total_data_msgs(self) -> int:
        return sum(s.data_msgs_sent for s in self.stats)

    @property
    def utilization(self) -> float:
        if self.parallel_time <= 0:
            return 1.0
        p = len(self.stats)
        return sum(s.busy_time for s in self.stats) / (p * self.parallel_time)


def require_finite_capacity(value, what: str = "capacity") -> None:
    """Raise :class:`~repro.errors.CapacityError` unless ``value`` is a
    finite number (NaN and infinities cannot size a memory)."""
    if not (isinstance(value, int) or math.isfinite(value)):
        raise CapacityError(f"{what} must be finite, got {value!r}")


class CompiledSchedule:
    """Capacity-independent static tables for simulating one schedule.

    Compiling is the expensive part of constructing a
    :class:`Simulator`: schedule validation, the liveness analysis, the
    producer-unit triggers, message fan-out and the receiver requirement
    counters.  None of it depends on the memory capacity or execution
    mode, so one compiled schedule serves every run of that schedule —
    pass it via ``Simulator(compiled=...)``.

    MAP plans *do* depend on the capacity; :meth:`plan_for` memoises
    them per capacity so a sweep re-running one schedule under a
    capacity it has already planned pays nothing.

    Cache-staleness guard
    ---------------------
    Both memoised caches are guarded against silent staleness:

    * the MAP-plan cache (:meth:`plan_for`) is keyed by capacity only,
      which is sound *because* everything else a plan depends on — the
      schedule orders, the graph shape and the processor count — is
      frozen into this object at ``_compile`` time.  A structural
      fingerprint is captured then, and :meth:`check_fresh` (called on
      every ``plan_for`` / compiled-engine lookup) raises
      :class:`~repro.errors.SimulationError` if the underlying
      ``Schedule``/graph was mutated afterwards, instead of serving a
      plan for a schedule that no longer exists.
    * compiled-engine execution plans additionally depend on the
      :class:`~repro.machine.spec.MachineSpec` (cost parameters) and the
      execution mode, so they are cached under the full key
      ``(capacity, spec, memory_managed, preknown)`` — ``MachineSpec``
      is a frozen dataclass and hashes by value, so two sweeps over
      different machines never share an execution plan.
    """

    def __init__(
        self,
        schedule: Schedule,
        profile: Optional[MemoryProfile] = None,
        validate: bool = True,
    ):
        self.schedule = schedule
        self.graph = schedule.graph
        self.num_procs = schedule.num_procs
        if validate:
            schedule.validate()
            validate_owner_compute(
                self.graph, schedule.placement, schedule.assignment
            )
        self.profile = profile if profile is not None else analyze_memory(schedule)
        self._plans: dict[int, MapPlan] = {}
        #: compiled-engine execution plans, keyed
        #: ``(capacity, spec, memory_managed, preknown)`` — see
        #: :func:`repro.machine.compiled.get_exec_plan`.
        self._exec_plans: dict[tuple, object] = {}
        #: lowered dense-array IR (shared by every execution plan).
        self._lowered: Optional[object] = None
        #: engine introspection counters: cache hits/misses and phase
        #: timers for the MAP-plan / lowering / ExecPlan caches, run
        #: counts per engine and ``fallback:<reason>`` tallies.  Updated
        #: only at cache-lookup boundaries and run entry — never inside
        #: the execution hot loops.
        self.counters: dict = {k: 0.0 if k.endswith("_s") else 0
                               for k in ENGINE_COUNTER_KEYS}
        self._compile()
        self._fingerprint = self._schedule_fingerprint()

    # -- producer units -------------------------------------------------

    def pid(self, task: str) -> str:
        """Producer unit: commuting-group key or the task itself."""
        return self._pid_of[task]

    def _compile(self) -> None:
        g, sched = self.graph, self.schedule
        assignment = sched.assignment
        nprocs = self.num_procs
        pos = sched.position()

        self._pid_of: dict[str, str] = {}
        for name in g.task_names:
            t = g.task(name)
            self._pid_of[name] = t.commute if t.commute is not None else name
        pid_of = self._pid_of

        # Trigger task of each producer unit: the unit's last task in the
        # processor order (commuting groups are co-located).
        trigger: dict[str, str] = {}
        for t in g.task_names:
            u = pid_of[t]
            cur = trigger.get(u)
            if cur is None or pos[t] > pos[cur]:
                trigger[u] = t
        self.trigger = trigger

        # Outgoing messages per trigger task.
        #   data: (obj, unit, dest, nbytes)   sync: (unit, dest)
        out_data: dict[str, list[tuple[str, str, int, int]]] = {}
        out_sync: dict[str, list[tuple[str, int]]] = {}
        seen_data: set[tuple[str, str, int]] = set()
        seen_sync: set[tuple[str, int]] = set()
        # Receiver-side requirements per task:
        #   list of ("data", obj, unit) / ("sync", unit)
        needs: dict[str, list[tuple]] = {t: [] for t in g.task_names}
        # How many unexecuted tasks of each processor still need a given
        # received key (for the stale-copy consistency check).
        need_count: list[dict[tuple, int]] = [dict() for _ in range(nprocs)]
        # Tasks waiting on each received key, per destination processor
        # (drives the readiness countdown counters).
        data_waiters: list[dict[tuple[str, str], list[str]]] = [
            dict() for _ in range(nprocs)
        ]
        sync_waiters: list[dict[str, list[str]]] = [dict() for _ in range(nprocs)]
        # Distinct remote inputs each task waits for.
        pending: dict[str, int] = {}

        for u, v, objs in g.edges():
            pu, pv = assignment[u], assignment[v]
            if pu == pv:
                continue
            unit = pid_of[u]
            trig = trigger[unit]
            if objs:
                # The payload of a commuting group is its accumulated
                # result: one message per (object, group, destination),
                # issued when the group's last local task finishes.  The
                # true graph gives readers edges from *every* member, so
                # waiting for the group adds no false synchronisation.
                for m in sorted(objs):
                    key = (m, unit, pv)
                    if key not in seen_data:
                        seen_data.add(key)
                        out_data.setdefault(trig, []).append(
                            (m, unit, pv, g.object(m).size)
                        )
                    needs[v].append(("data", m, unit))
                    cnt = need_count[pv]
                    cnt[(m, unit)] = cnt.get((m, unit), 0) + 1
                    waiters = data_waiters[pv].setdefault((m, unit), [])
                    if v not in waiters:
                        waiters.append(v)
                        pending[v] = pending.get(v, 0) + 1
            else:
                # Synchronisation edges are member-specific (they encode
                # a transformed anti/output dependence from one task);
                # firing them at group completion instead would create
                # circular waits the true graph does not have.
                key = (u, pv)
                if key not in seen_sync:
                    seen_sync.add(key)
                    out_sync.setdefault(u, []).append((u, pv))
                needs[v].append(("sync", u))
                waiters = sync_waiters[pv].setdefault(u, [])
                if v not in waiters:
                    waiters.append(v)
                    pending[v] = pending.get(v, 0) + 1
        self.out_data = out_data
        self.out_sync = out_sync
        self.needs = needs
        self.need_count0 = need_count
        self.data_waiters = data_waiters
        self.sync_waiters = sync_waiters
        self.pending0 = pending

        # Per-task execution constants for the hot loop.
        self.weight: dict[str, float] = {
            t: g.task(t).weight for t in g.task_names
        }
        #: task -> tuple of (object, producer unit) version updates.
        self.write_version: dict[str, tuple[tuple[str, str], ...]] = {
            t: tuple((m, pid_of[t]) for m in g.task(t).writes)
            for t in g.task_names
        }
        #: task -> received keys it consumes (with multiplicity, matching
        #: ``need_count0``).
        self.consumes: dict[str, tuple[tuple[str, str], ...]] = {
            t: tuple(
                (req[1], req[2]) for req in needs[t] if req[0] == "data"
            )
            for t in g.task_names
        }
        self.obj_size: dict[str, int] = {o.name: o.size for o in g.objects()}

        # Every volatile object a processor reads must have a producer
        # somewhere, otherwise its owner would never send data (and the
        # address-package handshake could block a MAP forever).  Graphs
        # built with ``materialize_inputs=True`` satisfy this by
        # construction.
        produced = {m for t in g.tasks() for m in t.writes}
        for q in range(nprocs):
            for m in self.profile.procs[q].span:
                if m not in produced:
                    raise SimulationError(
                        f"volatile object {m!r} read on P{q} has no producer; "
                        "build the graph with materialize_inputs=True"
                    )

        # Permanent footprint per processor (allocated for the whole run).
        self.perm_bytes = [pp.perm_bytes for pp in self.profile.procs]

    # -- cache-staleness guard ------------------------------------------

    def _schedule_fingerprint(self) -> tuple:
        """Structural identity of the schedule/graph the caches assume.

        Cheap (O(P)) by design so :meth:`check_fresh` can run on every
        memoised lookup: graph shape (task/object/edge counts), the
        processor count and the per-processor order lengths plus their
        final tasks.  Any mutation of ``schedule.orders`` or the graph
        that could invalidate a cached plan changes at least one of
        these."""
        g, sched = self.graph, self.schedule
        return (
            g.num_tasks,
            g.num_objects,
            g.num_edges,
            sched.num_procs,
            tuple(len(o) for o in sched.orders),
            tuple(o[-1] if o else "" for o in sched.orders),
        )

    def check_fresh(self) -> None:
        """Raise :class:`~repro.errors.SimulationError` if the schedule
        or graph was mutated after compilation (the memoised plans and
        execution plans would silently describe a stale schedule)."""
        if self._schedule_fingerprint() != self._fingerprint:
            raise SimulationError(
                "CompiledSchedule is stale: the schedule or graph changed "
                "after compilation; build a new CompiledSchedule instead of "
                "mutating the schedule behind a cached one"
            )

    # -- MAP plans ------------------------------------------------------

    def plan_for(self, capacity: int) -> MapPlan:
        """MAP plan of this schedule under ``capacity``, memoised.

        Raises :class:`~repro.errors.NonExecutableScheduleError` below
        ``MIN_MEM`` (failures are not cached).  The capacity-only key is
        guarded by :meth:`check_fresh`; see the class docstring.  A
        non-finite capacity raises :class:`~repro.errors.CapacityError`."""
        self.check_fresh()
        require_finite_capacity(capacity)
        plan = self._plans.get(capacity)
        if plan is None:
            self.counters["plan_misses"] += 1
            t0 = perf_counter()
            plan = plan_maps(self.schedule, capacity, self.profile)
            self.counters["plan_s"] += perf_counter() - t0
            self._plans[capacity] = plan
        else:
            self.counters["plan_hits"] += 1
        return plan


class Simulator:
    """Execute one schedule on the simulated machine.

    Parameters
    ----------
    schedule:
        A validated static schedule (owner-compute is asserted).  May be
        omitted when ``compiled`` is given.
    spec:
        Machine cost parameters (default: :data:`~repro.machine.spec.CRAY_T3D`).
    capacity:
        Per-processor memory in bytes/units; defaults to
        ``spec.memory_capacity``.  With ``memory_managed=True`` a
        :class:`~repro.errors.NonExecutableScheduleError` propagates from
        the MAP planner when the capacity is below ``MIN_MEM``; the
        baseline mode requires ``capacity >= TOT``.
    memory_managed:
        Toggle the active memory management protocol (see module doc).
    plan / profile:
        Optional precomputed MAP plan and memory profile (re-used by the
        experiment sweeps).
    compiled:
        Optional :class:`CompiledSchedule`; skips validation, liveness
        analysis and static preprocessing entirely.  One compiled
        schedule can back any number of simulators.

    :meth:`run` keeps all mutable execution state local to the call, so
    a simulator can be run repeatedly (and concurrently) and an aborted
    run never corrupts the shared ``plan``/``compiled`` objects.
    """

    def __init__(
        self,
        schedule: Optional[Schedule] = None,
        spec: MachineSpec = CRAY_T3D,
        capacity: Optional[int] = None,
        memory_managed: bool = True,
        plan: Optional[MapPlan] = None,
        profile: Optional[MemoryProfile] = None,
        validate: bool = True,
        preknown_addresses: bool = False,
        trace: bool = False,
        compiled: Optional[CompiledSchedule] = None,
        metrics: bool = False,
        instrument: Optional[Instrument] = None,
        faults: Optional["FaultSpec"] = None,  # noqa: F821
        engine: str = "interpreted",
    ):
        """See class docstring; ``preknown_addresses=True`` models a
        steady-state iteration of an iterative application (RAPID's
        target workloads, Figure 1: "execute tasks iteratively"): the
        volatile addresses notified during the first iteration remain
        valid, so MAPs still pay their allocate/free costs but no
        address packages travel and no send ever suspends.

        ``metrics=True`` attaches a fresh
        :class:`~repro.obs.instruments.MetricsSuite` per run and fills
        ``SimResult.metrics``/``SimResult.telemetry``; ``instrument``
        attaches a custom :class:`~repro.obs.instrument.Instrument`
        (reused across runs — its ``on_run_begin`` must reset state).
        Both compose with ``trace=True``.

        ``faults`` accepts a
        :class:`~repro.conformance.faults.FaultSpec` (duck-typed:
        anything with ``active`` and ``injector()``); each run draws a
        fresh run-local injector, so faulted executions stay
        deterministic and repeatable.  An inactive spec costs one
        ``is None`` test per injection site.

        ``engine`` selects the execution engine: ``"interpreted"`` (the
        reference oracle, default) or ``"compiled"`` (the array-compiled
        engine of :mod:`repro.machine.compiled`).  Observed,
        fault-injected or caller-supplied-plan runs are not supported by
        the compiled engine and fall back to the interpreted one
        explicitly; ``SimResult.engine`` records which engine actually
        ran."""
        if engine not in ("interpreted", "compiled"):
            raise SimulationError(
                f"unknown engine {engine!r}; expected 'interpreted' or "
                "'compiled'"
            )
        self.engine = engine
        if compiled is None:
            if schedule is None:
                raise SimulationError("Simulator needs a schedule or a compiled schedule")
            compiled = CompiledSchedule(schedule, profile=profile, validate=validate)
        elif schedule is not None and schedule is not compiled.schedule:
            raise SimulationError("schedule does not match compiled.schedule")
        self.compiled = compiled
        self.schedule = compiled.schedule
        self.spec = spec
        self.g = compiled.graph
        self.p = compiled.num_procs
        self.memory_managed = memory_managed
        self.preknown_addresses = preknown_addresses
        self.trace_enabled = trace
        self.metrics_enabled = metrics
        self.instrument = instrument
        self.faults = faults
        self.schedule_label = (
            f"{self.schedule.meta.get('heuristic', '?')}"
            f":p{self.p}:{self.g.num_tasks}t"
        )
        self.profile = compiled.profile
        if capacity is None:
            capacity = (
                spec.memory_capacity if memory_managed else max(self.profile.tot, 1)
            )
        require_finite_capacity(capacity)
        self.capacity = int(capacity)
        if memory_managed:
            self.plan = plan if plan is not None else compiled.plan_for(self.capacity)
        else:
            if self.capacity < self.profile.tot:
                raise SimulationError(
                    "baseline mode needs capacity >= TOT "
                    f"({self.capacity} < {self.profile.tot})"
                )
            self.plan = None
        # MAPs by position per processor (tiny; per-simulator because the
        # plan may be caller-provided).
        self._map_at: list[dict[int, MapPoint]] = [dict() for _ in range(self.p)]
        if self.plan is not None:
            for pts in self.plan.points:
                for mp in pts:
                    self._map_at[mp.proc][mp.position] = mp

    def _pid(self, task: str) -> str:
        """Producer unit: commuting-group key or the task itself."""
        return self.compiled.pid(task)

    # ------------------------------------------------------------------
    # dynamic execution
    # ------------------------------------------------------------------

    def _compiled_fallback_reason(self) -> Optional[str]:
        """Why this run cannot use the array-compiled engine (or None).

        Observation (metrics/trace/instrument) and fault injection hook
        into per-event callbacks the compiled engine deliberately does
        not have; a caller-supplied MAP plan bypasses the memoised
        ``plan_for`` cache the execution plans are lowered from; and
        negative cost parameters break the causality invariant the
        inline-completion rule relies on.  All of these fall back to
        the interpreted oracle explicitly; the reason string is tallied
        in :attr:`CompiledSchedule.counters` (``fallback:<reason>``)
        and recorded on :attr:`SimResult.fallback_reason`."""
        if self.metrics_enabled:
            return "metrics"
        if self.trace_enabled:
            return "trace"
        if self.instrument is not None and self.instrument.enabled:
            return "instrument"
        if self.faults is not None and self.faults.active:
            return "faults"
        if self.memory_managed and self.plan is not self.compiled._plans.get(
            self.capacity
        ):
            return "caller-plan"
        spec = self.spec
        costs = (
            spec.put_latency, spec.byte_time, spec.send_overhead,
            spec.map_overhead, spec.alloc_cost, spec.free_cost,
            spec.package_overhead, spec.address_cost, spec.ra_cost,
        )
        if min(costs) < 0:
            return "negative-cost"
        return None

    def run(self) -> SimResult:
        counters = self.compiled.counters
        if self.engine == "compiled":
            reason = self._compiled_fallback_reason()
            if reason is None:
                from .compiled import run_compiled

                counters["compiled_runs"] += 1
                t0 = perf_counter()
                res = run_compiled(self)
                counters["exec_s"] += perf_counter() - t0
                return res
            key = "fallback:" + reason
            counters[key] = counters.get(key, 0) + 1
            counters["interpreted_runs"] += 1
            res = self._run_interpreted()
            res.fallback_reason = reason
            return res
        counters["interpreted_runs"] += 1
        return self._run_interpreted()

    def _run_interpreted(self) -> SimResult:
        sched, spec = self.schedule, self.spec
        cs = self.compiled
        nprocs = self.p
        # Hot-loop locals (closure lookups beat attribute lookups).
        out_data, out_sync = cs.out_data, cs.out_sync
        weight, write_version, consumes = cs.weight, cs.write_version, cs.consumes
        REC, EXE, SND = ProcState.REC, ProcState.EXE, ProcState.SND
        MAP, END, DONE = ProcState.MAP, ProcState.END, ProcState.DONE
        wake_states = (REC, MAP, END)

        # --- mutable state (all run-local) ---------------------------
        seq = 0
        last_seq = -1
        now = 0.0  # timestamp of the event currently being processed
        events: list[tuple] = []  # (time, seq, kind, payload)

        def post(t: float, kind: int, payload: tuple) -> None:
            # Tie-breaking contract (see module docstring): same-time
            # events pop in push order because ``seq`` increases
            # strictly at every push; causality (t >= now) guarantees
            # nothing is ever scheduled before the event being handled,
            # so heap order == processing order deterministically.  The
            # compiled engine reproduces exactly this (time, seq) order.
            nonlocal seq, last_seq
            assert seq > last_seq, (
                f"event seq must be strictly monotone ({seq} <= {last_seq})"
            )
            assert t >= now, (
                f"event scheduled in the past (t={t!r} < now={now!r})"
            )
            last_seq = seq
            heapq.heappush(events, (t, seq, kind, payload))
            seq += 1

        # --- telemetry (run-local; null-object instruments) -----------
        suite: Optional[MetricsSuite] = None
        tlog: Optional[TraceLog] = None
        insts: list[Instrument] = []
        if self.metrics_enabled:
            suite = MetricsSuite()
            insts.append(suite)
        if self.trace_enabled:
            tlog = TraceLog()
            insts.append(tlog)
        if self.instrument is not None and self.instrument.enabled:
            insts.append(self.instrument)
        obs: Optional[Instrument] = None
        if len(insts) == 1:
            obs = insts[0]
        elif insts:
            obs = MultiInstrument(insts)
        #: Single gate hoisted out of the hot loop: when no instrument is
        #: attached, each call site costs one local-bool test — no event
        #: objects, no detail strings, no allocation (see the
        #: instrumentation section of ``bench_sweep_engine.py``).
        observing = obs is not None
        if observing:
            obs.on_run_begin(0.0, nprocs, self.capacity, self.memory_managed)

        #: Run-local fault injector; ``None`` (the common case) keeps
        #: every injection site at a single local-is-None test.
        fi = None
        if self.faults is not None and self.faults.active:
            fi = self.faults.injector()

        state = [REC] * nprocs
        idx = [0] * nprocs
        avail = [0.0] * nprocs  # earliest time of the next local action
        done: set[str] = set()
        stats = [ProcessorStats() for _ in range(nprocs)]
        alloc = [ObjectAllocator(self.capacity) for _ in range(nprocs)]
        obj_size = cs.obj_size
        for q in range(nprocs):
            if cs.perm_bytes[q]:
                alloc[q].alloc("<permanent>", cs.perm_bytes[q])
                if observing:
                    obs.on_alloc(0.0, q, "<permanent>", cs.perm_bytes[q],
                                 alloc[q].used)
        if not self.memory_managed:
            # Baseline: all volatile space allocated up-front.
            for q in range(nprocs):
                for m in self.profile.procs[q].span:
                    alloc[q].alloc(m, obj_size[m])
                    if observing:
                        obs.on_alloc(0.0, q, m, obj_size[m], alloc[q].used)

        #: received volatile contents: per processor, object -> versions.
        received_data: list[dict[str, set[str]]] = [dict() for _ in range(nprocs)]
        received_sync: list[set[str]] = [set() for _ in range(nprocs)]
        #: countdown of unmet remote inputs per task (0 = ready).
        pending_inputs = dict(cs.pending0)
        data_waiters = cs.data_waiters
        sync_waiters = cs.sync_waiters
        current_version: dict[str, Optional[str]] = dict.fromkeys(obj_size)
        # Sender-side address knowledge: (obj, dest) pairs.
        addr_known: list[set[tuple[str, int]]] = [set() for _ in range(nprocs)]
        if not self.memory_managed or self.preknown_addresses:
            for q in range(nprocs):
                for m in self.profile.procs[q].span:
                    owner = sched.placement[m]
                    addr_known[owner].add((m, q))
        suspended: list[list[tuple[str, str, int, int]]] = [[] for _ in range(nprocs)]
        # Address-package slots: slot_busy[src][dst] from src's viewpoint;
        # inbox[dst][src] holds an unread package's object list.
        slot_busy: list[list[bool]] = [[False] * nprocs for _ in range(nprocs)]
        inbox: list[dict[int, list[str]]] = [dict() for _ in range(nprocs)]
        # Packages a blocked MAP still has to send: (dst, objs).
        pending_pkgs: list[list[tuple[int, list[str]]]] = [[] for _ in range(nprocs)]
        map_pending: list[bool] = [False] * nprocs
        # Position of the last MAP executed per processor (positions are
        # strictly increasing, so this marks a MAP done without mutating
        # the shared plan).
        map_done = [-1] * nprocs
        need_count = [dict(d) for d in cs.need_count0]
        finished_procs = 0
        last_task_finish = 0.0

        # --- helpers ---------------------------------------------------
        def charge(q: int, t: float, cost: float, kind: str) -> float:
            start = max(avail[q], t)
            end = start + cost
            avail[q] = end
            stats[q].overhead_time += cost
            if observing:
                obs.on_overhead(start, end, q, kind)
            return end

        nic_free = [0.0] * nprocs  # injection-link availability (optional)

        def dispatch_data(q: int, m: str, unit: str, dest: int, nbytes: int, t: float) -> None:
            if current_version[m] != unit:
                raise DataConsistencyError(
                    f"P{q} sending {m!r} version {current_version[m]!r} for an "
                    f"edge requiring version {unit!r}"
                )
            t2 = charge(q, t, spec.send_overhead, "send")
            stats[q].data_msgs_sent += 1
            net = spec.message_time(nbytes)
            if spec.nic_serialize:
                start = max(nic_free[q], t2)
                nic_free[q] = start + nbytes * spec.byte_time
                arrive = start + net
            else:
                arrive = t2 + net
            if fi is not None:
                arrive += fi.put_delay(q, dest, net)
            if observing:
                obs.on_put(t2, arrive, q, dest, m, unit, nbytes)
            post(arrive, _DATA_ARRIVE, (dest, m, unit, q))

        def ra(q: int, t: float) -> None:
            """Read arrived address packages, then check the suspended
            queue (the RA + CQ pair of Figure 3(b))."""
            if inbox[q]:
                for src, objs in sorted(inbox[q].items()):
                    for m in objs:
                        addr_known[q].add((m, src))
                    stats[q].packages_read += 1
                    charge(q, t, spec.ra_cost, "ra")
                    if observing:
                        obs.on_package_read(max(avail[q], t), q, src, len(objs))
                    # Consuming frees the sender's slot after one latency.
                    free_at = max(avail[q], t) + spec.put_latency
                    if fi is not None:
                        free_at += fi.consume_delay(q, src, spec.put_latency)
                    post(free_at, _SLOT_FREE, (src, q))
                inbox[q].clear()
            if suspended[q]:
                still: list[tuple[str, str, int, int]] = []
                ready: list[tuple[str, str, int, int]] = []
                for item in suspended[q]:
                    if (item[0], item[2]) in addr_known[q]:
                        ready.append(item)
                    else:
                        still.append(item)
                suspended[q] = still
                for m, unit, dest, nbytes in ready:
                    dispatch_data(q, m, unit, dest, nbytes, max(avail[q], t))
                    if observing:
                        obs.on_put_drain(max(avail[q], t), q, dest, m, len(still))

        def try_send_packages(q: int, t: float) -> bool:
            """Send pending address packages; True when none remain."""
            still: list[tuple[int, list[str]]] = []
            for dst, objs in pending_pkgs[q]:
                if slot_busy[q][dst] and (fi is None or not fi.overwrite_slots):
                    still.append((dst, objs))
                    if observing:
                        obs.on_package_block(max(avail[q], t), q, dst, len(objs))
                    continue
                slot_busy[q][dst] = True
                cost = spec.package_overhead + len(objs) * spec.address_cost
                t2 = charge(q, t, cost, "package")
                stats[q].packages_sent += 1
                if observing:
                    obs.on_package_send(t2, q, dst, len(objs))
                post(t2 + spec.put_latency, _ADDR_ARRIVE, (dst, q, list(objs)))
            pending_pkgs[q] = still
            return not still

        def do_map(q: int, mp: MapPoint, t: float) -> None:
            stats[q].num_maps += 1
            if observing:
                obs.on_map(max(avail[q], t), q, mp.position, mp.frees, mp.allocs)
            cost = (
                spec.map_overhead
                + len(mp.frees) * spec.free_cost
                + len(mp.allocs) * spec.alloc_cost
            )
            charge(q, t, cost, "map")
            t_map = avail[q]  # memory ops take effect at MAP completion
            for m in mp.frees:
                alloc[q].free(m)
                # The content dies with the space; later arrivals of the
                # same object would be protocol violations.
                received_data[q].pop(m, None)
                if observing:
                    obs.on_free(t_map, q, m, obj_size[m], alloc[q].used)
            for m in mp.allocs:
                alloc[q].alloc(m, obj_size[m])
                if observing:
                    obs.on_alloc(t_map, q, m, obj_size[m], alloc[q].used)
            stats[q].peak_memory = max(stats[q].peak_memory, alloc[q].peak)
            if not self.preknown_addresses:
                pending_pkgs[q].extend(
                    (dst, list(objs)) for dst, objs in sorted(mp.notifications.items())
                )
                map_pending[q] = True

        def advance(q: int, t: float) -> None:
            nonlocal finished_procs
            if state[q] is EXE or state[q] is DONE:
                return
            if inbox[q] or suspended[q]:
                ra(q, t)
            order = sched.orders[q]
            map_at = self._map_at[q]
            while True:
                if map_pending[q]:
                    if not try_send_packages(q, max(avail[q], t)):
                        state[q] = MAP
                        if observing:
                            obs.on_state(max(avail[q], t), q, "MAP")
                        return
                    map_pending[q] = False
                if idx[q] >= len(order):
                    if suspended[q] or pending_pkgs[q]:
                        state[q] = END
                        if observing:
                            obs.on_state(max(avail[q], t), q, "END")
                        return
                    if state[q] is not DONE:
                        state[q] = DONE
                        stats[q].finish_time = max(avail[q], t)
                        finished_procs += 1
                        if observing:
                            obs.on_proc_end(stats[q].finish_time, q)
                    return
                mp = map_at.get(idx[q])
                if mp is not None and map_done[q] < idx[q]:
                    map_done[q] = idx[q]
                    do_map(q, mp, t)
                    continue
                task = order[idx[q]]
                if pending_inputs.get(task, 0):
                    state[q] = REC
                    if observing:
                        obs.on_state(max(avail[q], t), q, "REC")
                    return
                # EXE
                state[q] = EXE
                w = weight[task]
                if fi is not None:
                    w *= fi.exe_factor(q)
                start = max(avail[q], t)
                stats[q].busy_time += w
                avail[q] = start + w
                if observing:
                    obs.on_exe(start, start + w, q, task)
                post(start + w, _TASK_DONE, (q, task))
                return

        def complete(q: int, task: str, t: float) -> None:
            nonlocal last_task_finish
            done.add(task)
            if t > last_task_finish:
                last_task_finish = t
            idx[q] += 1
            stats[q].num_tasks += 1
            for m, unit in write_version[task]:
                current_version[m] = unit
            # Account consumed keys (stale-copy bookkeeping).
            nc = need_count[q]
            for key in consumes[task]:
                nc[key] -= 1
            # SND: issue messages triggered by this task.
            state[q] = SND
            if observing:
                obs.on_state(t, q, "SND")
            for m, unit, dest, nbytes in out_data.get(task, ()):
                if (m, dest) in addr_known[q]:
                    dispatch_data(q, m, unit, dest, nbytes, t)
                else:
                    suspended[q].append((m, unit, dest, nbytes))
                    stats[q].suspended_sends += 1
                    if observing:
                        obs.on_put_suspend(t, q, dest, m, unit, len(suspended[q]))
            for unit, dest in out_sync.get(task, ()):
                t2 = charge(q, t, spec.send_overhead, "send")
                stats[q].sync_msgs_sent += 1
                if observing:
                    obs.on_sync(t2, t2 + spec.put_latency, q, dest, unit)
                post(t2 + spec.put_latency, _DATA_ARRIVE, (dest, None, unit, q))
            state[q] = REC
            advance(q, max(avail[q], t))

        # --- bootstrap ---------------------------------------------------
        for q in range(nprocs):
            advance(q, 0.0)

        # --- event loop --------------------------------------------------
        while events:
            t, _s, kind, payload = heapq.heappop(events)
            now = t
            if kind == _TASK_DONE:
                q, task = payload
                complete(q, task, t)
            elif kind == _DATA_ARRIVE:
                dest, m, unit, _src = payload
                if m is None:
                    if unit not in received_sync[dest]:
                        received_sync[dest].add(unit)
                        for w_task in sync_waiters[dest].get(unit, ()):
                            pending_inputs[w_task] -= 1
                else:
                    if (
                        self.memory_managed
                        and not self.preknown_addresses
                        and not alloc[dest].is_allocated(m)
                    ):
                        # In steady-state iterative mode the address slot
                        # persists across MAPs, so early arrival is legal
                        # there; in the first-iteration protocol it is a
                        # violation (data must land in allocated space).
                        raise SimulationError(
                            f"data for {m!r} arrived at P{dest} with no "
                            "allocated space (protocol violation)"
                        )
                    # Stale-copy check: overwrite of an older version must
                    # not be needed by any pending local reader.
                    versions = received_data[dest].setdefault(m, set())
                    for old in [u for u in versions if u != unit]:
                        if need_count[dest].get((m, old), 0) > 0:
                            raise DataConsistencyError(
                                f"P{dest} received {m!r}/{unit!r} while "
                                f"version {old!r} is still needed"
                            )
                        versions.discard(old)
                    if unit not in versions:
                        versions.add(unit)
                        for w_task in data_waiters[dest].get((m, unit), ()):
                            pending_inputs[w_task] -= 1
                    if observing:
                        obs.on_data_arrive(t, dest, m, unit, _src)
                if state[dest] in wake_states:
                    advance(dest, t)
            elif kind == _ADDR_ARRIVE:
                dst, src, objs = payload
                inbox[dst][src] = objs
                if state[dst] in wake_states:
                    advance(dst, t)
                elif state[dst] is DONE:
                    # A finished processor still reads packages so the
                    # sender's slot is released (defensive; should be
                    # unreachable when the graph has producers for every
                    # volatile object).
                    ra(dst, t)
            elif kind == _SLOT_FREE:
                src, dst = payload
                slot_busy[src][dst] = False
                if state[src] in wake_states:
                    advance(src, t)

        if finished_procs != nprocs:
            blocked = {
                q: state[q].value for q in range(nprocs) if state[q] is not DONE
            }
            err = DeadlockError(blocked, len(done), self.g.num_tasks)
            # Attach a per-processor diagnosis (next task + unmet needs)
            # plus the wait-for edges the conformance layer turns into a
            # cycle witness: blocked proc -> procs it waits on.
            details: dict[int, str] = {}
            wait_for: dict[int, set[int]] = {}
            assignment = sched.assignment
            trigger = cs.trigger
            for q in range(nprocs):
                if state[q] is ProcState.DONE:
                    continue
                waits = wait_for.setdefault(q, set())
                order = sched.orders[q]
                if idx[q] < len(order):
                    task = order[idx[q]]
                    missing = []
                    for req in cs.needs[task]:
                        if req[0] == "data" and req[2] not in received_data[q].get(req[1], ()):
                            missing.append(f"data {req[1]}@{req[2]}")
                            waits.add(assignment[trigger[req[2]]])
                        elif req[0] == "sync" and req[1] not in received_sync[q]:
                            missing.append(f"sync {req[1]}")
                            waits.add(assignment[req[1]])
                    details[q] = f"next={task} missing={missing}"
                else:
                    details[q] = (
                        f"END suspended={suspended[q]} pending_pkgs={pending_pkgs[q]}"
                    )
                # A blocked MAP waits on the destination whose slot is
                # busy; a suspended put waits on its destination's MAP
                # (the address package travels dest -> sender).
                for dst, _objs in pending_pkgs[q]:
                    if slot_busy[q][dst]:
                        waits.add(dst)
                for m, _unit, dest, _nbytes in suspended[q]:
                    if (m, dest) not in addr_known[q]:
                        waits.add(dest)
                waits.discard(q)
            err.details = details
            err.wait_for = wait_for
            raise err
        if len(done) != self.g.num_tasks:
            raise SimulationError(
                f"only {len(done)}/{self.g.num_tasks} tasks executed"
            )
        for q in range(nprocs):
            stats[q].peak_memory = max(stats[q].peak_memory, alloc[q].peak)
            if stats[q].peak_memory > self.capacity:
                raise SimulationError(
                    f"P{q} peak memory {stats[q].peak_memory} exceeds "
                    f"capacity {self.capacity}"
                )
        pt = max((s.finish_time for s in stats), default=0.0)
        if observing:
            obs.on_run_end(pt)
        result = SimResult(
            parallel_time=pt,
            task_finish_time=last_task_finish,
            stats=stats,
            capacity=self.capacity,
            memory_managed=self.memory_managed,
            plan=self.plan,
            trace=tlog.events if tlog is not None else None,
            telemetry=suite,
            schedule_label=self.schedule_label,
            engine="interpreted",
        )
        if suite is not None:
            result.metrics = build_metrics(result, suite)
        return result


def simulate(
    schedule: Schedule,
    spec: MachineSpec = CRAY_T3D,
    capacity: Optional[int] = None,
    memory_managed: bool = True,
    **kw,
) -> SimResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(
        schedule, spec=spec, capacity=capacity, memory_managed=memory_managed, **kw
    ).run()
