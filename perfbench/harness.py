"""Workloads, problem construction, timed passes and reference checks.

A *workload* is one sweep grid run serially through the public
:func:`repro.experiments.sweep.full_sweep`.  A *pass* is one sweep of a
workload over freshly built problems in a fresh
:class:`~repro.experiments.common.ExperimentContext`, serialised with
:func:`~repro.experiments.sweep.to_csv`: what a user of ``repro sweep``
waits for once the problems exist.  A *metered* pass
(:func:`metered_pass`) does the same work in short consecutive units,
with a :mod:`calibrate` speed sample between units, so that its time
can be expressed at a fixed host speed.

``--seed`` selects one of :data:`VARIANTS`, the recorded input
variants (``seed % len(VARIANTS)``); each variant fixes the seeds of the
matrix generators.  Variant 0 uses the generators' default seeds, so its
problems are exactly the built-in ones of ``ExperimentContext.problem``
and its CSV is byte-identical to a plain ``full_sweep``.  Every variant
has a reference CSV per workload under ``reference/``, recorded with
the interpreted engine (the repository's differential oracle) by
``record_reference.py``; a variant without one is refused.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
#: Run artefacts (span documents); ignored by git.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.experiments.common import ExperimentContext  # noqa: E402
from repro.experiments.sweep import full_sweep, to_csv  # noqa: E402
from repro.machine.spec import CRAY_T3D  # noqa: E402
from repro.sparse.cholesky import build_cholesky  # noqa: E402
from repro.sparse.lu import build_lu  # noqa: E402
from repro.sparse.matrices import (  # noqa: E402
    bcsstk15_like,
    bcsstk24_like,
    goodwin_like,
)
from repro.sparse.treegraph import build_etree_problem  # noqa: E402

#: Matrix-generator seeds of each input variant.  Variant 0 is the
#: generators' defaults (the built-in problems); variant 1 is the
#: held-out variant, each default seed plus 100.  ``goodwin_like``'s
#: seed perturbs matrix values only, so ``lu-goodwin`` has the same
#: task graph in both variants.
VARIANTS = (
    {"bcsstk15": 15, "bcsstk24": 24, "goodwin": 7},
    {"bcsstk15": 115, "bcsstk24": 124, "goodwin": 107},
)


def variant_of(seed: int) -> int:
    return seed % len(VARIANTS)


def build_problem(key: str, variant: int):
    """The problem ``ExperimentContext.problem(key)`` builds, with the
    matrix seed of ``variant`` (same constructors and parameters)."""
    seeds = VARIANTS[variant]
    flop_time = 1.0 / CRAY_T3D.flop_rate
    if key == "chol15":
        return build_cholesky(
            bcsstk15_like(scale=0.15, seed=seeds["bcsstk15"]), block_size=12,
            flop_time=flop_time, with_kernels=False,
        )
    if key == "chol24":
        return build_cholesky(
            bcsstk24_like(scale=0.15, seed=seeds["bcsstk24"]), block_size=12,
            flop_time=flop_time, with_kernels=False,
        )
    if key == "lu-goodwin":
        return build_lu(
            goodwin_like(scale=0.07, seed=seeds["goodwin"]), block_size=12,
            flop_time=flop_time, with_kernels=False,
        )
    if key == "etree15":
        return build_etree_problem(
            bcsstk15_like(scale=0.15, seed=seeds["bcsstk15"]),
            flop_time=flop_time,
        )
    raise KeyError(f"no constructor for problem {key!r}")


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple
    procs: tuple
    heuristics: tuple
    fractions: tuple
    engine: str = "interpreted"
    options: dict = field(default_factory=dict)
    #: Fractions per unit of a metered pass (a unit takes ~0.5 s).
    unit_fractions: int = 5

    @property
    def cells(self) -> int:
        return (len(self.problems) * len(self.procs) * len(self.heuristics)
                * len(self.fractions))

    def sweep_kwargs(self, engine=None) -> dict:
        return dict(
            workloads=self.problems, procs=self.procs,
            heuristics=self.heuristics, fractions=self.fractions,
            reference="rcp", jobs=1, engine=engine or self.engine,
            **self.options,
        )

    def groups(self) -> list:
        """The ``(problem, procs)`` groups, in ``full_sweep``'s order."""
        return [(key, p) for key in self.problems for p in self.procs]

    def units(self) -> list:
        """The grid cut into consecutive ``full_sweep`` arguments, in
        ``full_sweep``'s cell order: one heuristic of one group and up
        to :attr:`unit_fractions` of its fractions each."""
        n = self.unit_fractions
        return [
            {"workloads": (key,), "procs": (p,), "heuristics": (h,),
             "fractions": self.fractions[i:i + n]}
            for key, p in self.groups()
            for h in self.heuristics
            for i in range(0, len(self.fractions), n)
        ]

    def slice(self) -> "Workload":
        """One (problem, procs) group: the smallest grid that still runs
        every layer this workload exercises."""
        return replace(self, problems=self.problems[:1], procs=self.procs[:1])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-grid",
            ("chol15", "lu-goodwin"), (2, 4, 8, 16, 32), ("rcp", "mpo", "dts"),
            (1.0, 0.75, 0.5, 0.4, 0.25),
        ),
        Workload(
            "capacity-scan",
            ("chol15", "lu-goodwin"), (8, 32), ("rcp", "mpo"),
            tuple(round(1.0 - 0.02 * i, 2) for i in range(40)),
            engine="compiled", unit_fractions=10,
        ),
        Workload(
            "large-audited",
            ("chol24", "etree15"), (4, 16, 32), ("rcp", "mpo", "dts", "tree"),
            (1.0, 0.5), engine="compiled",
            options={"metrics": True, "bounds": True, "analyze": True},
            unit_fractions=2,
        ),
    )
}


def build_problems(workload: Workload, variant: int) -> dict:
    return {key: build_problem(key, variant) for key in workload.problems}


def reference_path(workload: Workload, variant: int) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload.name}.v{variant}.csv")


def load_reference(workload: Workload, variant: int) -> str:
    path = reference_path(workload, variant)
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def count_failed(csv_text, reference: str, cells: int) -> int:
    """Cells whose CSV row differs from the reference row at the same
    position, or is missing or extra; all ``cells`` when the pass raised
    (``csv_text`` is ``None``) or the header differs."""
    got = csv_text.splitlines() if csv_text is not None else []
    want = reference.splitlines()
    if not got or not want or got[0] != want[0]:
        return cells
    got, want = got[1:], want[1:]
    failed = sum(1 for a, b in zip(got, want) if a != b)
    return min(cells, failed + abs(len(want) - len(got)))


def _context(problems: dict) -> ExperimentContext:
    ctx = ExperimentContext()
    for key, problem in problems.items():
        ctx.register(key, problem)
    return ctx


def run_pass(workload: Workload, problems: dict, engine=None, call=None):
    """One sweep of ``workload`` over ``problems`` in a fresh context.

    ``call(fn)`` runs the sweep-and-serialise step (the traced run opens
    its root span there).  Returns ``(csv_text, seconds, ctx)``;
    ``csv_text`` is ``None`` when the sweep raised (every cell of the
    pass then counts as failed).
    """
    ctx = _context(problems)

    def sweep() -> str:
        return to_csv(full_sweep(ctx, **workload.sweep_kwargs(engine)))

    t0 = perf_counter()
    try:
        text = call(sweep) if call is not None else sweep()
    except Exception as err:  # a raising cell fails the pass, not the run
        print(f"pass raised: {err!r}", file=sys.stderr)
        text = None
    return text, perf_counter() - t0, ctx


def metered_pass(workload: Workload, problems: dict):
    """The pass of :func:`run_pass`, run as one ``full_sweep`` call per
    :meth:`Workload.units` entry on the same context, then ``to_csv``.

    Every cell goes through ``ctx.run_cell`` in the order of one
    ``full_sweep`` call, and the context caches what cells share
    (schedules, baselines, plans), so the work and the CSV are those of
    one call.  Each unit and the CSV step is timed on a
    :class:`calibrate.Meter`.  Returns ``(csv_text, meter, ctx)``;
    ``csv_text`` is ``None`` when a unit raised.
    """
    ctx = _context(problems)
    kwargs = workload.sweep_kwargs()
    meter = calibrate.Meter()
    records = []
    try:
        for unit in workload.units():
            records += meter.time(full_sweep, ctx, **{**kwargs, **unit})
        text = meter.time(to_csv, records)
    except Exception as err:  # a raising cell fails the pass, not the run
        print(f"pass raised: {err!r}", file=sys.stderr)
        text = None
    return text, meter, ctx


def metered_build(workload: Workload, variant: int):
    """:func:`build_problems` timed on a fresh :class:`calibrate.Meter`."""
    meter = calibrate.Meter()
    return meter.time(build_problems, workload, variant), meter


def count_counters(counters: dict) -> dict:
    """The exact (non-timer) entries of ``ExperimentContext.engine_counters``."""
    return {k: v for k, v in sorted(counters.items()) if not k.endswith("_s")}

