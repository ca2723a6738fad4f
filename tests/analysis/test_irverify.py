"""Lowered-IR verifier (`repro.analysis.irverify`, SA5xx).

Clean verdicts on every shipped lowering, and one surgical mutation per
rule family: each corrupt IR is rejected with its specific SA5xx
diagnostic — never a crash, never a silent pass.  Every test builds its
own `CompiledSchedule` so mutating the memoised lowering/exec plan
cannot leak into shared caches.
"""

import numpy as np
import pytest

from repro.analysis import (
    debug_verify,
    verify_exec_plan,
    verify_lowering,
    verify_report,
)
from repro.core import Schedule, owner_compute_assignment
from repro.core.placement import placement_from_dict
from repro.errors import SimulationError
from repro.experiments import ExperimentContext
from repro.graph import Task, TaskGraph
from repro.graph.paper_example import schedule_c
from repro.machine.compiled import LoweredSchedule, get_exec_plan, lower_schedule
from repro.machine.simulator import CompiledSchedule
from repro.machine.spec import UNIT_MACHINE


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext()


def fresh_paper():
    """A private CompiledSchedule of the worked example."""
    return CompiledSchedule(schedule_c())


def error_codes(diags):
    return {d.rule for d in diags}


def fresh_sync_edge():
    """P1 reads ``a`` from P0, and P0 rewrites ``a`` only after that
    read (an objectless cross-processor sync edge), so every index table
    the run loop executes is non-empty — unlike the shipped workloads,
    which lower no sync keys at P4."""
    g = TaskGraph()
    g.add_object("a", 2)
    g.add_object("b", 2)
    g.add_task(Task("wa", writes=("a",)))
    g.add_task(Task("rb", reads=("a",), writes=("b",)))
    g.add_task(Task("wa2", writes=("a",)))
    g.add_edge("wa", "rb", "a")
    g.add_edge("rb", "wa2")
    g.freeze()
    pl = placement_from_dict(2, {"a": 0, "b": 1})
    asg = owner_compute_assignment(g, pl)
    return CompiledSchedule(Schedule(g, pl, asg, [["wa", "wa2"], ["rb"]]))


#: Every index table the compiled run loop reads, with the attribute
#: holding the size of the id space its entries index.
EXECUTED_INDEX_TABLES = [
    ("od_mk", "num_mk"), ("od_ak", "num_ak"), ("od_dest", "num_procs"),
    ("od_oid", "num_objects"), ("os_sk", "num_sk"), ("cons_mk", "num_mk"),
    ("wait_tid", "num_tasks"), ("swait_tid", "num_tasks"),
    ("grp_mk", "num_mk"),
]


class TestCleanVerdicts:
    def test_paper_lowering_is_clean(self):
        assert verify_lowering(fresh_paper()) == []

    def test_paper_exec_plan_is_clean(self):
        cs = fresh_paper()
        assert verify_exec_plan(cs, 8, UNIT_MACHINE) == []

    @pytest.mark.parametrize("h", ["rcp", "mpo", "dts", "tree", "etf"])
    def test_every_shipped_heuristic_lowers_clean(self, ctx, h):
        cs = ctx.compiled("etree15", 2, h)
        prof = cs.profile
        diags = verify_exec_plan(cs, prof.tot, ctx.spec)
        assert diags == []

    def test_report_wrapper_is_ok(self):
        report = verify_report(fresh_paper(), capacity=8, spec=UNIT_MACHINE)
        assert report.ok
        assert report.diagnostics == []
        assert "OK" in report.summary()

    def test_non_executable_capacity_degrades_not_crashes(self):
        # Capacity below MIN_MEM admits no exec plan; the verifier
        # falls back to the lowering passes (SA101 is the analyzer's).
        cs = fresh_paper()
        report = verify_report(cs, capacity=1, spec=UNIT_MACHINE)
        assert report.ok


class TestMutationsAreRejected:
    """One corrupt IR per rule family — specific code, no crash."""

    def test_sa501_non_monotone_csr(self):
        cs = fresh_paper()
        lo = lower_schedule(cs)
        lo.od_ptr[1] = lo.od_ptr[-1] + 5  # pointer row past the table
        diags = verify_lowering(cs)
        assert error_codes(diags) == {"SA501"}
        assert any("od_ptr" in d.message for d in diags)

    def test_sa501_out_of_space_index(self):
        cs = fresh_paper()
        lo = lower_schedule(cs)
        lo.wait_tid[0] = lo.num_tasks + 99
        diags = verify_lowering(cs)
        assert error_codes(diags) == {"SA501"}

    @pytest.mark.parametrize("table, space", EXECUTED_INDEX_TABLES)
    def test_sa501_out_of_space_entry_in_each_executed_table(
        self, table, space
    ):
        cs = fresh_sync_edge()
        lo = lower_schedule(cs)
        assert verify_lowering(cs) == []
        rows = getattr(lo, table)
        assert rows, f"{table} is empty on the sync-edge graph"
        rows[0] = getattr(lo, space) + 99
        assert error_codes(verify_lowering(cs)) == {"SA501"}

    def test_lowering_holds_each_table_once(self):
        # The verifier checks the stem-named tables, so they must be the
        # very lists the run loop indexes: no numpy copy, no list mirror.
        lo = lower_schedule(fresh_sync_edge())
        assert not [n for n in LoweredSchedule.__slots__ if n.endswith("_l")]
        assert not [
            n for n in LoweredSchedule.__slots__
            if isinstance(getattr(lo, n), np.ndarray)
        ]

    def test_sa501_gates_the_deeper_passes(self):
        # A structurally corrupt CSR must not be chased by the
        # bijection/version walks — only SA501 is reported.
        cs = fresh_paper()
        lo = lower_schedule(cs)
        lo.od_ptr[1] = lo.od_ptr[-1] + 5
        lo.task_name[0] = "impostor"  # would be SA502 if reached
        diags = verify_exec_plan(cs, 8, UNIT_MACHINE)
        assert error_codes(diags) == {"SA501"}

    def test_sa502_broken_task_bijection(self):
        cs = fresh_paper()
        lo = lower_schedule(cs)
        lo.task_name[0] = "impostor"
        diags = verify_lowering(cs)
        assert "SA502" in error_codes(diags)

    def test_sa503_version_flag_drift(self):
        cs = fresh_paper()
        lo = lower_schedule(cs)
        if not lo.od_ok0:
            pytest.skip("no outgoing data on this lowering")
        lo.od_ok0[0] = not bool(lo.od_ok0[0])
        diags = verify_lowering(cs)
        assert "SA503" in error_codes(diags)

    def test_sa504_step_program_drops_a_task(self):
        cs = fresh_paper()
        ep = get_exec_plan(cs, 8, UNIT_MACHINE, True, False)
        for q, steps in enumerate(ep.steps):
            if steps:
                ep.steps[q] = steps[:-1]
                break
        diags = verify_exec_plan(cs, 8, UNIT_MACHINE)
        assert "SA504" in error_codes(diags)

    def test_sa505_negative_weight(self):
        cs = fresh_paper()
        lo = lower_schedule(cs)
        lo.weight[0] = -1.0
        diags = verify_lowering(cs)
        assert "SA505" in error_codes(diags)

    def test_mutations_never_raise(self):
        # Even wildly corrupt arrays come back as diagnostics.
        cs = fresh_paper()
        lo = lower_schedule(cs)
        lo.od_ptr[:] = [-7] * len(lo.od_ptr)
        lo.wait_ptr[:] = [10**6] * len(lo.wait_ptr)
        diags = verify_exec_plan(cs, 8, UNIT_MACHINE)
        assert diags
        assert all(d.rule.startswith("SA5") for d in diags)


class TestDebugPath:
    def test_debug_verify_clean(self):
        debug_verify(fresh_paper())  # no exception

    def test_debug_verify_raises_on_corruption(self):
        cs = fresh_paper()
        lo = lower_schedule(cs)
        lo.od_ptr[1] = lo.od_ptr[-1] + 5
        with pytest.raises(SimulationError, match="SA501"):
            debug_verify(cs)

    def test_env_hook_verifies_fresh_lowerings(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_IR", "1")
        cs = fresh_paper()
        lower_schedule(cs)  # would raise via debug_verify on a bad IR
        get_exec_plan(cs, 8, UNIT_MACHINE, True, False)
