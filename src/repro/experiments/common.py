"""Shared infrastructure for regenerating the paper's tables and figures.

Conventions (section 5.1 of the paper):

* ``TOT`` — total memory needed by a schedule without any recycling; the
  memory constraints are percentages of TOT.  Cross-heuristic
  comparisons (Tables 4-7) use the *RCP schedule's* TOT as the common
  reference so that a "75%" cell is the same absolute capacity for both
  algorithms (that is what makes the paper's ``*`` entries — one
  algorithm executable, the other not — well defined).
* ``PT increase`` — relative parallel-time increase versus the baseline:
  the RCP schedule with 100% memory and **no** memory-management
  overhead.
* ``#MAPs`` — average number of memory allocation points per processor.
* Non-executable configurations (``MIN_MEM`` above the capacity) are
  reported as ``inf``, printed ``inf`` like the paper's tables.

The :class:`ExperimentContext` caches schedules, profiles and simulation
results so a sweep over memory fractions re-uses its scheduling work.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.liveness import MemoryProfile, analyze_memory
from ..core.schedule import Schedule
from ..errors import ExperimentConfigError
from ..machine.simulator import (
    CompiledSchedule,
    SimResult,
    Simulator,
    require_finite_capacity,
)
from ..machine.spec import CRAY_T3D, MachineSpec
from ..rapid.inspector import order_with
from ..sparse.cholesky import build_cholesky
from ..sparse.lu import build_lu
from ..sparse.matrices import bcsstk15_like, bcsstk24_like, goodwin_like
from ..sparse.treegraph import build_etree_problem

#: Memory fractions of the paper's overhead tables.
FRACTIONS = (1.0, 0.75, 0.5, 0.4)
#: Extended fractions of the heuristic-comparison tables.
FRACTIONS_CMP = (0.75, 0.5, 0.4, 0.25)
#: Processor counts of the paper's tables.
PROCS = (2, 4, 8, 16, 32)

#: Workload keys built into :meth:`ExperimentContext.problem`.
BUILTIN_WORKLOADS = ("chol15", "chol24", "lu-goodwin", "etree15")

INF = float("inf")


@dataclass
class CellMetrics:
    """One (configuration, capacity) measurement.

    ``columns`` holds the opt-in sweep columns the cell was measured
    with (see ``columns`` of :meth:`ExperimentContext.run_cell`), keyed
    by :class:`~repro.experiments.sweep.SweepRecord` field name; it is
    empty for a plain cell.
    """

    executable: bool
    pt: float = INF
    pt_increase: float = INF
    avg_maps: float = INF
    capacity: int = 0
    min_mem: int = 0
    tot: int = 0
    columns: dict = field(default_factory=dict)

    @property
    def pt_increase_pct(self) -> float:
        return self.pt_increase * 100.0


@dataclass(frozen=True)
class CellRun:
    """One measured cell as a column collector sees it (see
    :data:`repro.experiments.sweep.COLUMN_FAMILIES`)."""

    key: str
    p: int
    heuristic: str
    capacity: int
    #: capacity handed to the heuristic (``merge_capacity``), else None
    cap_arg: Optional[int]
    min_mem: int
    #: the simulation; ``None`` when the cell is non-executable
    result: Optional[SimResult]
    #: invariant violations; ``None`` unless the cell ran checked
    violations: Optional[int]


#: TOT bases :meth:`ExperimentContext.run_cell` accepts.
REFERENCES = ("self", "rcp")


def require_procs(p) -> None:
    """Reject a processor count that is not an integer >= 1."""
    if isinstance(p, bool) or not isinstance(p, numbers.Integral) or p < 1:
        raise ExperimentConfigError(
            f"processor count must be an integer >= 1, got {p!r}"
        )


def require_reference(reference) -> None:
    """Reject a TOT reference other than those in :data:`REFERENCES`."""
    if reference not in REFERENCES:
        raise ExperimentConfigError(
            f"unknown reference {reference!r}; choose from {list(REFERENCES)}"
        )


class ExperimentContext:
    """Caches problems, schedules, profiles and baselines per workload."""

    def __init__(self, spec: MachineSpec = CRAY_T3D):
        self.spec = spec
        self._problems: dict[str, object] = {}
        self._registered: dict[str, object] = {}
        self._schedules: dict[tuple, Schedule] = {}
        self._profiles: dict[tuple, MemoryProfile] = {}
        self._compiled: dict[tuple, CompiledSchedule] = {}
        self._baseline_pt: dict[tuple, float] = {}
        self._sims: dict[tuple, tuple[SimResult, Optional[int]]] = {}
        self._analysis: dict[tuple, float] = {}
        self._bounds: dict[tuple, object] = {}

    # -- workloads -------------------------------------------------------

    def problem(self, key: str):
        """Named workload; built lazily.  Keys: ``chol15``, ``chol24``,
        ``lu-goodwin``, ``etree15`` and any registered via
        :meth:`register`."""
        if key not in self._problems:
            flop_time = 1.0 / self.spec.flop_rate
            if key == "chol15":
                self._problems[key] = build_cholesky(
                    bcsstk15_like(scale=0.15), block_size=12, flop_time=flop_time,
                    with_kernels=False,
                )
            elif key == "chol24":
                self._problems[key] = build_cholesky(
                    bcsstk24_like(scale=0.15), block_size=12, flop_time=flop_time,
                    with_kernels=False,
                )
            elif key == "lu-goodwin":
                self._problems[key] = build_lu(
                    goodwin_like(scale=0.07), block_size=12, flop_time=flop_time,
                    with_kernels=False,
                )
            elif key == "etree15":
                self._problems[key] = build_etree_problem(
                    bcsstk15_like(scale=0.15), flop_time=flop_time,
                )
            else:
                known = sorted(
                    set(BUILTIN_WORKLOADS) | set(self._registered)
                )
                raise KeyError(
                    f"unknown workload {key!r}; choose one of {known} "
                    "or register() a custom problem"
                )
        return self._problems[key]

    def register(self, key: str, problem) -> None:
        """Register a custom problem (must expose ``graph``,
        ``placement(p)`` and ``assignment(placement)``).  Registered
        problems must be picklable to take part in a parallel sweep
        (:func:`repro.experiments.sweep.full_sweep` with ``jobs > 1``)."""
        self._problems[key] = problem
        self._registered[key] = problem

    def shipped_problems(self, workloads) -> dict[str, object]:
        """The registered problems a parallel sweep over ``workloads``
        must ship to its workers.

        Only problems actually named in the grid are included — workers
        never pay to unpickle (or choke on) registrations the sweep does
        not use — and each shipped problem is pickled *here*, so an
        unpicklable one fails fast with a clear error instead of a deep
        ``ProcessPoolExecutor`` traceback mid-sweep.
        """
        import pickle

        wanted = set(workloads)
        out: dict[str, object] = {}
        for key, problem in self._registered.items():
            if key not in wanted:
                continue
            try:
                pickle.dumps(problem)
            except Exception as err:
                raise ValueError(
                    f"registered problem {key!r} is not picklable and cannot "
                    f"be shipped to sweep workers: {err!r}. Make the problem "
                    "picklable (module-level classes, no lambdas/closures) "
                    "or run the sweep with jobs=1."
                ) from err
            out[key] = problem
        return out

    # -- schedules ---------------------------------------------------------

    def schedule(self, key: str, p: int, heuristic: str, capacity: Optional[int] = None) -> Schedule:
        ck = (key, p, heuristic, capacity)
        if ck not in self._schedules:
            prob = self.problem(key)
            placement = prob.placement(p)
            assignment = prob.assignment(placement)
            self._schedules[ck] = order_with(
                heuristic,
                prob.graph,
                placement,
                assignment,
                comm=self.spec.comm_model(),
                capacity=capacity,
            )
        return self._schedules[ck]

    def profile(self, key: str, p: int, heuristic: str, capacity: Optional[int] = None) -> MemoryProfile:
        ck = (key, p, heuristic, capacity)
        if ck not in self._profiles:
            self._profiles[ck] = analyze_memory(self.schedule(key, p, heuristic, capacity))
        return self._profiles[ck]

    def compiled(self, key: str, p: int, heuristic: str, capacity: Optional[int] = None) -> CompiledSchedule:
        """Compiled (validated, preprocessed) form of a schedule.

        One compiled schedule serves every capacity of a sweep, so the
        validation / liveness / static-table work is paid once per
        (workload, procs, heuristic) instead of once per cell."""
        ck = (key, p, heuristic, capacity)
        if ck not in self._compiled:
            self._compiled[ck] = CompiledSchedule(
                self.schedule(key, p, heuristic, capacity),
                profile=self.profile(key, p, heuristic, capacity),
            )
        return self._compiled[ck]

    def reference_tot(self, key: str, p: int) -> int:
        """The RCP schedule's TOT — the 100% reference of section 5.1."""
        return self.profile(key, p, "rcp").tot

    def baseline_pt(self, key: str, p: int, engine: str = "interpreted") -> float:
        """Parallel time of the RCP schedule, 100% memory, no memory
        management (the comparison base of Tables 2/3).

        Cached per engine: the engines agree exactly (the differential
        suite asserts it), but keeping the cache keys separate means a
        mixed-engine session never hides a disagreement."""
        ck = (key, p, engine)
        if ck not in self._baseline_pt:
            res = Simulator(
                spec=self.spec,
                memory_managed=False,
                compiled=self.compiled(key, p, "rcp"),
                engine=engine,
            ).run()
            self._baseline_pt[ck] = res.parallel_time
        return self._baseline_pt[ck]

    # -- measurements -------------------------------------------------------

    def analysis_errors(
        self, key: str, p: int, heuristic: str, capacity: int,
        cap_arg: Optional[int] = None,
    ) -> float:
        """Error-severity findings of the static analyzer for one cell
        (cached; O(plan), no simulation)."""
        ak = (key, p, heuristic, cap_arg, capacity)
        if ak not in self._analysis:
            from ..analysis import analyze_schedule

            prof = self.profile(key, p, heuristic, cap_arg)
            # Share the compiled schedule's memoised plan (what the
            # simulator executes); non-executable cells have no plan
            # and are reported via SA101.
            plan = (
                self.compiled(key, p, heuristic, cap_arg).plan_for(capacity)
                if prof.executable_under(capacity) else None
            )
            report = analyze_schedule(
                self.schedule(key, p, heuristic, cap_arg),
                capacity=capacity,
                profile=prof,
                plan=plan,
            )
            self._analysis[ak] = float(len(report.errors))
        return self._analysis[ak]

    def bounds_for(
        self, key: str, p: int, heuristic: str,
        capacity: Optional[int] = None,
    ):
        """Certified PT/MIN_MEM lower bounds for one cell's schedule
        (cached; see :func:`repro.analysis.schedule_bounds`).

        The bounds depend only on the graph, placement and assignment —
        not on the per-processor orders — so every heuristic of one
        (workload, procs) pair shares the same
        :class:`~repro.analysis.BoundSet`; the cache key keeps the
        heuristic anyway because a capacity-merged schedule (DTS) can
        coarsen the graph itself.
        """
        bk = (key, p, heuristic, capacity)
        if bk not in self._bounds:
            from ..analysis import schedule_bounds

            self._bounds[bk] = schedule_bounds(
                self.schedule(key, p, heuristic, capacity),
                comm=self.spec.comm_model(),
            )
        return self._bounds[bk]

    def run_cell(
        self,
        key: str,
        p: int,
        heuristic: str,
        fraction: float,
        reference: str = "self",
        merge_capacity: bool = False,
        engine: str = "interpreted",
        columns: Sequence[str] = (),
    ) -> CellMetrics:
        """Measure one table cell.

        ``reference`` selects the TOT base for the capacity: ``"self"``
        (the schedule's own TOT, Tables 2/3) or ``"rcp"`` (the RCP
        schedule's TOT, Tables 4-7).  With ``merge_capacity=True`` the
        heuristic receives the capacity (DTS slice merging).

        ``engine`` selects the simulator engine (see
        :class:`~repro.machine.simulator.Simulator`); metric/check cells
        are observed runs and therefore fall back to the interpreted
        engine regardless of the requested value.

        ``columns`` names the opt-in column families of
        :data:`repro.experiments.sweep.COLUMN_FAMILIES` to fill into
        :attr:`CellMetrics.columns` (e.g. ``("metrics", "bounds")``).
        ``metrics`` runs the simulation instrumented (:mod:`repro.obs`)
        and ``check`` attaches an
        :class:`~repro.conformance.InvariantChecker`; simulations of the
        different modes are cached separately so mixing them never
        reuses the wrong run.  The other families read the cached run or
        static analyses and never change what runs.

        A processor count that is not an integer >= 1, an unknown
        ``reference`` or an unknown family raises
        :class:`~repro.errors.ExperimentConfigError`; a non-finite
        ``fraction`` raises :class:`~repro.errors.CapacityError`.
        """
        from .sweep import column_families

        require_procs(p)
        require_reference(reference)
        require_finite_capacity(fraction, "capacity fraction")
        families = column_families(columns)
        tot = (
            self.reference_tot(key, p)
            if reference == "rcp"
            else self.profile(key, p, heuristic).tot
        )
        capacity = int(math.floor(tot * fraction))
        cap_arg = capacity if merge_capacity else None
        prof = self.profile(key, p, heuristic, cap_arg)
        base = self.baseline_pt(key, p, engine)
        res = nviol = None
        if prof.min_mem <= capacity:
            metrics, check = "metrics" in columns, "check" in columns
            sk = (key, p, heuristic, cap_arg, capacity, metrics, check, engine)
            if sk not in self._sims:
                checker = None
                if check:
                    from ..conformance import InvariantChecker

                    checker = InvariantChecker(
                        self.compiled(key, p, heuristic, cap_arg)
                    )
                res = Simulator(
                    spec=self.spec,
                    capacity=capacity,
                    compiled=self.compiled(key, p, heuristic, cap_arg),
                    metrics=metrics,
                    instrument=checker,
                    engine=engine,
                ).run()
                self._sims[sk] = (
                    res,
                    len(checker.violations) if checker is not None else None,
                )
            res, nviol = self._sims[sk]
        run = CellRun(key, p, heuristic, capacity, cap_arg, prof.min_mem,
                      res, nviol)
        values: dict = {}
        for family in families:
            values.update(zip(family.fields, family.collect(self, run)))
        timing = {} if res is None else dict(
            pt=res.parallel_time,
            pt_increase=(res.parallel_time - base) / base,
            avg_maps=res.avg_maps,
        )
        return CellMetrics(
            executable=res is not None, capacity=capacity,
            min_mem=prof.min_mem, tot=tot, columns=values, **timing,
        )

    def engine_counters(self) -> dict:
        """Aggregated engine introspection counters over every compiled
        schedule this context holds (see
        :data:`~repro.machine.simulator.ENGINE_COUNTER_KEYS`): MAP-plan /
        lowering / ExecPlan cache hits and misses, phase timers, run
        counts per engine and ``fallback:<reason>`` tallies."""
        totals: dict = {}
        for cs in self._compiled.values():
            for k, v in cs.counters.items():
                totals[k] = totals.get(k, 0) + v
        return totals


def compare_pt(a: CellMetrics, b: CellMetrics) -> float | str:
    """The paper's 'A vs. B' entry: ``PT_B / PT_A - 1``.

    ``"*"`` when B is executable but A is not; ``"-"`` when neither is.
    """
    if a.executable and b.executable:
        return b.pt / a.pt - 1.0
    if b.executable:
        return "*"
    if a.executable:
        return "!"  # A runs, B does not (no such entries in the paper)
    return "-"
