"""Generic parameter sweeps with CSV export.

The table modules regenerate the paper's exact layouts; downstream users
usually want the raw grid instead.  :func:`full_sweep` runs every
(workload × processors × heuristic × memory fraction) combination
through the cached :class:`~repro.experiments.common.ExperimentContext`
and returns flat records; :func:`to_csv` serialises them (stdlib only).

Grid cells are independent, so :func:`full_sweep` can fan the grid out
over worker processes (``jobs > 1``).  Work is grouped by
(workload, processors): every cell of a group shares the group's
schedules, compiled simulator tables and RCP baseline, so that shared
work is computed once per group rather than once per cell.  Results are
returned in the same deterministic order as the serial sweep — the
simulation itself is deterministic, so ``jobs=N`` produces records (and
CSV bytes) identical to ``jobs=1``.

For long runs the grid can execute under the fault-tolerant supervisor
(:mod:`repro.experiments.runtime`): per-group timeouts, bounded retries,
worker-pool resurrection, structured failure records instead of an
aborted sweep, and a checkpoint journal
(:mod:`repro.experiments.checkpoint`) that makes interrupted sweeps
resumable — see the ``runtime``/``checkpoint``/``resume`` parameters of
:func:`full_sweep` and ``docs/resilience.md``.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Optional, Sequence

from ..errors import ExperimentConfigError
from .common import (
    INF,
    CellRun,
    ExperimentContext,
    require_procs,
    require_reference,
)

FIELDS = (
    "workload",
    "procs",
    "heuristic",
    "fraction",
    "executable",
    "capacity",
    "min_mem",
    "tot",
    "parallel_time",
    "pt_increase",
    "avg_maps",
)

#: The columns of each opt-in family of :data:`COLUMN_FAMILIES`, in CSV
#: order: telemetry (``metrics=True``), conformance (``check=True``),
#: static analysis (``analyze=True``), certified bounds
#: (``bounds=True``), engine introspection (``engine_stats=True``) and
#: the failure columns of a supervised sweep that recorded a
#: :class:`~repro.experiments.runtime.CellFailure`.
METRIC_FIELDS = (
    "map_overhead_frac",
    "max_hwm",
    "max_suspq",
)
CHECK_FIELDS = ("violations",)
ANALYZE_FIELDS = ("analysis_errors",)
BOUNDS_FIELDS = ("pt_bound", "mem_bound", "pt_bound_gap", "mem_bound_gap")
ENGINE_FIELDS = ("engine_used", "fallback_reason")
FAILURE_FIELDS = ("status", "error", "attempts", "elapsed")


@dataclass(frozen=True)
class SweepRecord:
    workload: str
    procs: int
    heuristic: str
    fraction: float
    executable: bool
    capacity: int
    min_mem: int
    tot: int
    parallel_time: float
    pt_increase: float
    avg_maps: float
    #: populated only by ``full_sweep(..., metrics=True)``
    map_overhead_frac: Optional[float] = None
    max_hwm: Optional[float] = None
    max_suspq: Optional[float] = None
    #: populated only by ``full_sweep(..., check=True)``
    violations: Optional[float] = None
    #: populated only by ``full_sweep(..., analyze=True)``
    analysis_errors: Optional[float] = None
    #: populated only by ``full_sweep(..., bounds=True)``: certified
    #: static lower bounds and the cell's relative slack over them
    pt_bound: Optional[float] = None
    mem_bound: Optional[float] = None
    pt_bound_gap: Optional[float] = None
    mem_bound_gap: Optional[float] = None
    #: populated only by ``full_sweep(..., engine_stats=True)``:
    #: the engine that executed the cell and the fallback reason of a
    #: requested-compiled cell that ran interpreted (empty otherwise)
    engine_used: Optional[str] = None
    fallback_reason: Optional[str] = None
    #: failure columns, populated only on cells of a group that a
    #: supervised sweep recorded as failed (``"timeout"``/``"crashed"``/
    #: ``"error"``; see :mod:`repro.experiments.runtime`)
    status: Optional[str] = None
    error: Optional[str] = None
    attempts: Optional[int] = None
    elapsed: Optional[float] = None


def _collect_metrics(ctx: ExperimentContext, run: CellRun) -> tuple:
    """Telemetry of the instrumented run (:mod:`repro.obs`); the timing
    columns are unaffected because instrumentation never changes event
    order."""
    if run.result is None:
        return (INF, INF, INF)
    summary = run.result.metrics["summary"]
    return (summary["map_overhead_frac"], float(summary["max_hwm"]),
            float(summary["max_suspq"]))


def _collect_check(ctx: ExperimentContext, run: CellRun) -> tuple:
    """Violations the :class:`~repro.conformance.InvariantChecker` saw
    (0 everywhere when Theorem 1 holds)."""
    return (INF if run.result is None else float(run.violations),)


def _collect_analysis(ctx: ExperimentContext, run: CellRun) -> tuple:
    """Error-severity findings of :func:`repro.analysis.analyze_schedule`
    on the cell's plan; static, so a non-executable cell still gets a
    real count (its ``SA101``)."""
    return (ctx.analysis_errors(run.key, run.p, run.heuristic, run.capacity,
                                run.cap_arg),)


def _collect_bounds(ctx: ExperimentContext, run: CellRun) -> tuple:
    """Certified lower bounds of :mod:`repro.analysis.bounds` and the
    cell's slack over them (``value/bound - 1``).  Static and cached per
    (workload, procs, heuristic); only ``pt_bound_gap`` needs a PT, so
    it is ``inf`` on a non-executable cell."""
    bset = ctx.bounds_for(run.key, run.p, run.heuristic, run.cap_arg)
    pt_bound, mem_bound = bset.pt.value, bset.min_mem.value
    pt_gap = (
        run.result.parallel_time / pt_bound - 1.0
        if run.result is not None and pt_bound and pt_bound > 0 else INF
    )
    mem_gap = run.min_mem / mem_bound - 1.0 if mem_bound > 0 else INF
    return (pt_bound, mem_bound, pt_gap, mem_gap)


def _collect_engine(ctx: ExperimentContext, run: CellRun) -> tuple:
    """The engine that executed the cell and the fallback reason of a
    requested-compiled cell that ran interpreted (a non-executable cell
    ran none)."""
    if run.result is None:
        return (None, None)
    return (run.result.engine, run.result.fallback_reason)


@dataclass(frozen=True)
class ColumnFamily:
    """One opt-in group of sweep columns.

    ``name`` is the :func:`full_sweep` flag (and
    :func:`~repro.experiments.checkpoint.grid_fingerprint` key) that
    requests the family; ``fields`` are its :class:`SweepRecord`
    columns, in CSV order; ``collect(ctx, run)`` returns their values
    for one measured cell (a :class:`~repro.experiments.common.CellRun`).
    A family without a collector is filled outside the cell loop.
    """

    name: str
    fields: tuple
    collect: Optional[Callable[[ExperimentContext, CellRun], tuple]] = None


#: The opt-in column families, in CSV column order.  A family's columns
#: appear in the CSV only when some record carries them, so a sweep
#: without it is byte-identical to one that never knew it.
COLUMN_FAMILIES = (
    ColumnFamily("metrics", METRIC_FIELDS, _collect_metrics),
    ColumnFamily("check", CHECK_FIELDS, _collect_check),
    ColumnFamily("analyze", ANALYZE_FIELDS, _collect_analysis),
    ColumnFamily("bounds", BOUNDS_FIELDS, _collect_bounds),
    ColumnFamily("engine_stats", ENGINE_FIELDS, _collect_engine),
    # filled only by _failure_records, for groups a supervised sweep
    # recorded as failed
    ColumnFamily("failure", FAILURE_FIELDS),
)

#: The families a cell can be asked to collect, by name.
CELL_FAMILIES = {f.name: f for f in COLUMN_FAMILIES if f.collect is not None}


def column_families(names: Sequence[str]) -> list[ColumnFamily]:
    """The collectable families named in ``names``, in table order."""
    unknown = [n for n in names if n not in CELL_FAMILIES]
    if unknown:
        raise ExperimentConfigError(
            f"unknown column family(ies) {unknown}; "
            f"choose from {list(CELL_FAMILIES)}"
        )
    return [f for f in CELL_FAMILIES.values() if f.name in names]


def _run_group(
    ctx: ExperimentContext,
    key: str,
    p: int,
    heuristics: Sequence[str],
    fractions: Sequence[float],
    reference: str,
    engine: str = "interpreted",
    columns: Sequence[str] = (),
) -> list[SweepRecord]:
    """All records of one (workload, procs) group, in grid order."""
    out: list[SweepRecord] = []
    for h in heuristics:
        for f in fractions:
            cell = ctx.run_cell(
                key, p, h, f, reference=reference, engine=engine,
                columns=columns,
            )
            out.append(
                SweepRecord(
                    workload=key,
                    procs=p,
                    heuristic=h,
                    fraction=f,
                    executable=cell.executable,
                    capacity=cell.capacity,
                    min_mem=cell.min_mem,
                    tot=cell.tot,
                    parallel_time=cell.pt,
                    pt_increase=cell.pt_increase,
                    avg_maps=cell.avg_maps,
                    **cell.columns,
                )
            )
    return out


#: Per-worker-process context; built once by :func:`_worker_init` so
#: schedules and baselines are shared across the groups a worker runs.
_WORKER_CTX: Optional[ExperimentContext] = None


def _worker_init(spec, registered) -> None:
    """Build the per-worker context.  ``registered`` holds only the
    custom problems the grid actually names (see
    :meth:`~repro.experiments.common.ExperimentContext.shipped_problems`),
    so workers never re-register workloads the sweep will not run."""
    global _WORKER_CTX
    _WORKER_CTX = ExperimentContext(spec=spec)
    for key, problem in registered.items():
        _WORKER_CTX.register(key, problem)


def _worker_run_group(args) -> list[SweepRecord]:
    """Run one task tuple of :func:`full_sweep` in a worker process."""
    if _WORKER_CTX is None:
        raise ExperimentConfigError(
            "sweep worker has no context: _worker_init must run first"
        )
    return _run_group(_WORKER_CTX, *args)


def _worker_engine_counters() -> dict:
    """Aggregated engine introspection counters of this worker's
    context (empty before :func:`_worker_init` ran); the supervised
    entry point emits per-attempt deltas into the runtime trace."""
    return _WORKER_CTX.engine_counters() if _WORKER_CTX is not None else {}


def _failure_records(
    failure,
    heuristics: Sequence[str],
    fractions: Sequence[float],
) -> list[SweepRecord]:
    """Expand one :class:`~repro.experiments.runtime.CellFailure` into
    per-cell records carrying the failure columns (timing fields are
    ``inf``, like non-executable cells)."""
    inf = float("inf")
    message = " ".join(failure.error.split())
    return [
        SweepRecord(
            workload=failure.workload,
            procs=failure.procs,
            heuristic=h,
            fraction=f,
            executable=False,
            capacity=0,
            min_mem=0,
            tot=0,
            parallel_time=inf,
            pt_increase=inf,
            avg_maps=inf,
            status=failure.status,
            error=message,
            attempts=failure.attempts,
            elapsed=failure.elapsed,
        )
        for h in heuristics
        for f in fractions
    ]


def full_sweep(
    ctx: ExperimentContext,
    workloads: Sequence[str] = ("chol15", "lu-goodwin"),
    procs: Sequence[int] = (2, 4, 8, 16, 32),
    heuristics: Sequence[str] = ("rcp", "mpo", "dts"),
    fractions: Sequence[float] = (1.0, 0.75, 0.5, 0.4, 0.25),
    reference: str = "rcp",
    jobs: Optional[int] = 1,
    metrics: bool = False,
    check: bool = False,
    analyze: bool = False,
    engine: str = "interpreted",
    engine_stats: bool = False,
    bounds: bool = False,
    runtime=None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    harness_faults=None,
    obs_dir: Optional[str] = None,
    progress: bool = False,
) -> list[SweepRecord]:
    """Run the full grid; non-executable cells get ``inf`` metrics.

    ``jobs`` selects the number of worker processes (``None``/``0`` =
    one per CPU).  Parallel runs return exactly the records of the
    serial run, in the same order; the workers rebuild their own
    :class:`~repro.experiments.common.ExperimentContext` from
    ``ctx.spec``, so custom problems registered on ``ctx`` must be
    picklable to sweep with ``jobs > 1``.

    ``metrics``, ``check``, ``analyze``, ``bounds`` and
    ``engine_stats`` each fill one opt-in column family of
    :data:`COLUMN_FAMILIES` (see its collector for what it measures).
    ``metrics`` and ``check`` observe every cell's simulation; the
    others read the run or static analyses and never change what runs.
    On a non-executable cell the columns that need a run are ``inf``
    (the engine columns empty).  An unknown heuristic or ``reference``,
    or a processor count that is not an integer >= 1, raises before any
    cell runs.

    ``engine`` selects the simulator engine for every cell (see
    :class:`~repro.machine.simulator.Simulator`).  The engines agree
    exactly on all record fields — ``engine="compiled"`` produces CSV
    byte-identical to the interpreted sweep, only faster; cells that
    must run observed (``metrics``/``check``) fall back to the
    interpreted engine per the fallback contract.

    Passing any of ``runtime`` (a
    :class:`~repro.experiments.runtime.RuntimePolicy`), ``checkpoint``
    (a journal directory), ``resume`` or ``harness_faults`` (a
    :class:`~repro.experiments.runtime.HarnessFaultSpec`) runs the grid
    under the *supervised* executor (:mod:`repro.experiments.runtime`):
    per-group wall-clock timeouts, bounded retries with deterministic
    backoff, worker-pool resurrection, streaming checkpoints, and
    structured failure records (the ``status``/``error``/``attempts``/
    ``elapsed`` columns) instead of an aborted sweep.  A fault-free
    supervised sweep returns exactly the plain sweep's records;
    ``resume=True`` replays groups already committed to the
    ``checkpoint`` journal and executes only the remainder, so a resumed
    run's CSV is byte-identical to an uninterrupted one.

    ``obs_dir`` (a directory path) makes the run *observed*: the
    supervisor and every worker append runtime-trace shards there
    (schema ``repro-runtime-trace/1``; see :mod:`repro.obs.runtime`),
    and ``progress=True`` drives a live stderr ticker from the same
    event stream.  Either implies the supervised executor; both default
    off, leaving the plain path untouched.
    """
    # The arguments, so the opt-in column flags are found by family name.
    flags = dict(locals())
    from ..rapid.inspector import HEURISTICS

    unknown = [h for h in heuristics if h not in HEURISTICS]
    if unknown:
        raise ValueError(
            f"unknown heuristic(s) {unknown}; choose from {list(HEURISTICS)}"
        )
    require_reference(reference)
    for p in procs:
        require_procs(p)
    columns = tuple(name for name in CELL_FAMILIES if flags[name])
    if not jobs or jobs < 0:
        jobs = os.cpu_count() or 1
    supervised = (
        runtime is not None or checkpoint is not None or resume
        or harness_faults is not None or obs_dir is not None or progress
    )
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint directory")
    groups = [(key, p) for key in workloads for p in procs]
    # _run_group's arguments after the context, one tuple per group.
    tasks = [
        (key, p, tuple(heuristics), tuple(fractions), reference, engine,
         columns)
        for key, p in groups
    ]
    if not supervised and (jobs == 1 or len(groups) <= 1):
        return [rec for task in tasks for rec in _run_group(ctx, *task)]
    registered = ctx.shipped_problems(workloads)
    if not supervised:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(groups)),
            initializer=_worker_init,
            initargs=(ctx.spec, registered),
        ) as pool:
            chunks = list(pool.map(_worker_run_group, tasks))
        return [rec for chunk in chunks for rec in chunk]

    from .runtime import CellFailure, run_supervised

    tracer = None
    t_begin = None
    if obs_dir is not None or progress:
        from time import monotonic

        from ..obs.runtime import MultiSink, RuntimeTracer, SweepProgress

        t_begin = monotonic()
        sinks: list = []
        if obs_dir is not None:
            sinks.append(RuntimeTracer(obs_dir, role="supervisor"))
        if progress:
            sinks.append(SweepProgress(total=len(groups)))
        tracer = sinks[0] if len(sinks) == 1 else MultiSink(sinks)

    journal = None
    done: dict[tuple[str, int], list[SweepRecord]] = {}
    if checkpoint is not None:
        from .checkpoint import CheckpointJournal, grid_fingerprint

        journal = CheckpointJournal(
            checkpoint,
            grid_fingerprint(
                ctx.spec, workloads, procs, heuristics, fractions, reference,
                engine=engine, harness_faults=harness_faults,
                **{name: name in columns for name in CELL_FAMILIES},
            ),
        )
        journal.start(resume=resume)
        if resume:
            done = journal.completed()
    todo = [
        ((key, p), task)
        for (key, p), task in zip(groups, tasks)
        if (key, p) not in done
    ]

    def on_group(key, records) -> None:
        if journal is not None:
            journal.record_group(key[0], key[1], records)
            if tracer is not None:
                tracer.emit("checkpoint_shard", group=key,
                            records=len(records))

    try:
        if tracer is not None:
            tracer.emit("sweep_begin", groups=len(groups), todo=len(todo),
                        resumed=len(done), jobs=jobs)
            for key in done:
                tracer.emit("resume_hit", group=key,
                            records=len(done[key]))
        outcomes = run_supervised(
            todo,
            jobs=jobs,
            initializer=_worker_init,
            initargs=(ctx.spec, registered),
            policy=runtime,
            faults=harness_faults,
            on_complete=on_group if journal is not None else None,
            tracer=tracer,
            obs_dir=obs_dir,
        )
        fresh = {key: outcome for (key, _), outcome in zip(todo, outcomes)}
        out = []
        for key, p in groups:
            result = done.get((key, p))
            if result is None:
                result = fresh[(key, p)]
            if isinstance(result, CellFailure):
                out.extend(_failure_records(result, heuristics, fractions))
            else:
                out.extend(result)
        if tracer is not None:
            from time import monotonic

            from ..obs.runtime import status_counts

            tracer.emit("sweep_end", counts=status_counts(out),
                        elapsed=round(monotonic() - t_begin, 3))
        return out
    finally:
        if tracer is not None:
            tracer.close()


def to_csv(records: Iterable[SweepRecord], path: Optional[str] = None) -> str:
    """Serialise sweep records as CSV; optionally write to ``path``.

    :data:`FIELDS` always; then each family of
    :data:`COLUMN_FAMILIES`, in table order, when some record carries
    it (a family is recognised by its first column being set).  Without
    opt-in columns the output is byte-identical to a plain sweep's CSV.

    Writing is crash-safe: the text goes to a same-directory temporary
    file and is atomically renamed into place, so an interrupted sweep
    never leaves a truncated CSV behind.
    """
    records = list(records)
    fields = FIELDS + tuple(
        name
        for family in COLUMN_FAMILIES
        if any(getattr(r, family.fields[0]) is not None for r in records)
        for name in family.fields
    )
    from .checkpoint import atomic_write_text, record_to_json

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
    writer.writeheader()
    for r in records:
        row = record_to_json(r)
        writer.writerow({k: "" if v is None else v for k, v in row.items()})
    text = buf.getvalue()
    if path:
        atomic_write_text(path, text)
    return text


_PARSE = {"str": str, "int": int, "float": float, "bool": lambda x: x == "True"}

#: ``column -> (parse, optional)``, read off the :class:`SweepRecord`
#: annotations (``float`` also parses ``"inf"``).
_COLUMN_PARSERS = {
    f.name: (
        _PARSE[f.type.removeprefix("Optional[").removesuffix("]")],
        f.type.startswith("Optional["),
    )
    for f in fields(SweepRecord)
}


def from_csv(text: str) -> list[SweepRecord]:
    """Parse CSV produced by :func:`to_csv` (round-trip support), with
    or without the opt-in columns; a missing or empty optional cell is
    ``None``."""
    out: list[SweepRecord] = []
    for row in csv.DictReader(io.StringIO(text)):
        values = {}
        for name, (parse, optional) in _COLUMN_PARSERS.items():
            x = row.get(name) if optional else row[name]
            values[name] = None if optional and x in (None, "") else parse(x)
        out.append(SweepRecord(**values))
    return out
