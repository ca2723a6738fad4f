"""The opt-in column families of a live sweep, all at once.

One compiled-engine sweep with every run-time family on (``metrics``,
``check``, ``analyze``, ``bounds``, ``engine_stats``) must give each
family the columns a sweep with that family alone gives, serialise to
the same CSV bytes serially, with ``jobs=2`` and through a partly
replayed checkpoint journal, and survive the JSON journal round trip.
"""

import json
import math

import pytest

from repro.experiments import ExperimentContext
from repro.experiments.checkpoint import record_from_json, record_to_json
from repro.experiments.sweep import (
    ANALYZE_FIELDS,
    BOUNDS_FIELDS,
    CELL_FAMILIES,
    CHECK_FIELDS,
    ENGINE_FIELDS,
    FIELDS,
    METRIC_FIELDS,
    SweepRecord,
    from_csv,
    full_sweep,
    to_csv,
)

INF = float("inf")

GRID = dict(
    workloads=("lu-goodwin",), procs=(2, 4), heuristics=("rcp", "dts"),
    fractions=(1.0, 0.5, 0.25), reference="rcp", engine="compiled",
)
ALL = {name: True for name in CELL_FAMILIES}


@pytest.fixture(scope="module")
def combined():
    return full_sweep(ExperimentContext(), **GRID, **ALL)


@pytest.fixture(scope="module")
def singles():
    return {
        name: full_sweep(ExperimentContext(), **GRID, **{name: True})
        for name in CELL_FAMILIES
    }


def columns(records, fields):
    return [tuple(getattr(r, f) for f in fields) for r in records]


class TestFamiliesStayIndependent:
    def test_grid_has_both_kinds_of_cell(self, combined):
        assert {r.executable for r in combined} == {True, False}

    def test_header_carries_every_family_in_table_order(self, combined):
        header = to_csv(combined).splitlines()[0]
        assert header == ",".join(
            FIELDS + METRIC_FIELDS + CHECK_FIELDS + ANALYZE_FIELDS
            + BOUNDS_FIELDS + ENGINE_FIELDS
        )

    @pytest.mark.parametrize(
        ("name", "fields"),
        [
            ("metrics", FIELDS + METRIC_FIELDS),
            ("check", FIELDS + CHECK_FIELDS),
            ("analyze", FIELDS + ANALYZE_FIELDS),
            ("bounds", FIELDS + BOUNDS_FIELDS),
        ],
    )
    def test_family_matches_its_single_family_sweep(
        self, combined, singles, name, fields
    ):
        assert columns(combined, fields) == columns(singles[name], fields)

    def test_engine_stats_reports_the_engine_that_ran(self, combined, singles):
        # Alone, every executable cell runs compiled.  With metrics and
        # check on, the same cells are observed runs and fall back.
        for alone, mixed in zip(singles["engine_stats"], combined):
            assert alone.executable == mixed.executable
            if alone.executable:
                assert (alone.engine_used, alone.fallback_reason) == (
                    "compiled", None)
                assert (mixed.engine_used, mixed.fallback_reason) == (
                    "interpreted", "metrics")
            else:
                assert alone.engine_used is mixed.engine_used is None


class TestCsvBytes:
    def test_jobs2_matches_serial(self, combined):
        par = full_sweep(ExperimentContext(), **GRID, **ALL, jobs=2)
        assert to_csv(par) == to_csv(combined)

    def test_partly_replayed_resume_matches_serial(self, combined, tmp_path):
        ckpt = tmp_path / "ckpt"
        first = full_sweep(ExperimentContext(), **GRID, **ALL,
                           checkpoint=str(ckpt))
        assert to_csv(first) == to_csv(combined)
        # Forget one group, so the resume replays one from the journal
        # and runs the other afresh.
        manifest = ckpt / "MANIFEST.json"
        doc = json.loads(manifest.read_text())
        del doc["groups"]["lu-goodwin@4"]
        manifest.write_text(json.dumps(doc))
        resumed = full_sweep(ExperimentContext(), **GRID, **ALL,
                             checkpoint=str(ckpt), resume=True)
        assert to_csv(resumed) == to_csv(combined)

    def test_csv_round_trip(self, combined):
        assert from_csv(to_csv(combined)) == combined


class TestJsonRoundTrip:
    def test_every_family_populated(self):
        rec = SweepRecord(
            workload="lu-goodwin", procs=4, heuristic="dts", fraction=0.25,
            executable=False, capacity=100, min_mem=400, tot=400,
            parallel_time=INF, pt_increase=INF, avg_maps=INF,
            map_overhead_frac=INF, max_hwm=INF, max_suspq=INF,
            violations=INF, analysis_errors=4.0,
            pt_bound=0.25, mem_bound=300.0, pt_bound_gap=INF,
            mem_bound_gap=1 / 3,
            engine_used="interpreted", fallback_reason=None,
            status="crashed", error="worker process died", attempts=3,
            elapsed=12.5,
        )
        back = record_from_json(json.loads(json.dumps(record_to_json(rec))))
        assert back == rec
        assert math.isinf(back.pt_bound_gap) and back.fallback_reason is None
        assert isinstance(back.attempts, int)

    def test_live_records(self, combined):
        for rec in combined:
            assert record_from_json(
                json.loads(json.dumps(record_to_json(rec)))
            ) == rec
