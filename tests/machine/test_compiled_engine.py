"""Differential tests: the array-compiled engine against the
interpreted oracle.

Every comparison here is *exact* — ``==`` on floats, never
``approx``/``allclose`` — because the compiled engine's contract
(:mod:`repro.machine.compiled`) is bit-identical time arithmetic on
fault-free runs, not numerical closeness.  The suite covers:

* the sweep-grid workloads under all three execution modes (managed,
  preknown addresses, unmanaged baseline) and both cost models;
* tie-heavy :data:`UNIT_MACHINE` cases, where many events share a
  timestamp and agreement proves the engines break ties identically;
* error parity — protocol violations and deadlocks must raise the same
  exception type with the same message;
* the fallback contract — observed / fault-injected / caller-plan runs
  report ``engine == "interpreted"``;
* the cache-staleness guards (schedule mutation behind a memoised
  :class:`CompiledSchedule`, and per-:class:`MachineSpec` execution
  plans).
"""

import dataclasses
import math

import pytest

from repro.core import analyze_memory, dts_order, mpo_order, rcp_order
from repro.errors import DeadlockError, SimulationError
from repro.graph.paper_example import paper_example_graph, schedule_b, schedule_c
from repro.machine import CRAY_T3D, MEIKO_CS2, UNIT_MACHINE, Simulator
from repro.machine.simulator import CompiledSchedule, ProcessorStats

STAT_FIELDS = [f.name for f in dataclasses.fields(ProcessorStats)]

ORDERS = {"rcp": rcp_order, "mpo": mpo_order, "dts": dts_order}


def assert_exact_match(make_sim):
    """Run ``make_sim(engine)`` under both engines; either both raise
    the same error with the same message, or every result field is
    exactly equal.  Returns the compiled-engine result (or None)."""
    outcomes = {}
    for engine in ("interpreted", "compiled"):
        try:
            outcomes[engine] = ("ok", make_sim(engine).run())
        except (SimulationError, DeadlockError) as e:
            outcomes[engine] = (type(e).__name__, str(e))
    ka, kb = outcomes["interpreted"], outcomes["compiled"]
    if ka[0] != "ok" or kb[0] != "ok":
        assert (ka[0], ka[1]) == (kb[0], kb[1])
        return None
    ra, rb = ka[1], kb[1]
    assert ra.engine == "interpreted"
    assert rb.engine == "compiled", "compiled run silently fell back"
    assert ra.parallel_time == rb.parallel_time
    assert ra.task_finish_time == rb.task_finish_time
    assert ra.plan is rb.plan
    assert ra.capacity == rb.capacity
    assert ra.memory_managed == rb.memory_managed
    for sa, sb in zip(ra.stats, rb.stats):
        for f in STAT_FIELDS:
            assert getattr(sa, f) == getattr(sb, f), f
    return rb


class TestPaperExample:
    """The worked Figure 2 example: unit costs, many simultaneous
    events — the tie-breaking stress case."""

    @pytest.mark.parametrize("sched_f", [schedule_b, schedule_c])
    @pytest.mark.parametrize("mode", ["managed", "preknown", "baseline"])
    def test_exact(self, sched_f, mode):
        g = paper_example_graph()
        cs = CompiledSchedule(sched_f(g))
        prof = cs.profile
        caps = sorted({prof.min_mem, (prof.min_mem + prof.tot) // 2, prof.tot})
        for cap in caps:
            if mode == "baseline" and cap < prof.tot:
                continue
            kw = (
                dict(memory_managed=False)
                if mode == "baseline"
                else dict(preknown_addresses=(mode == "preknown"))
            )
            assert_exact_match(
                lambda e, cap=cap, kw=kw: Simulator(
                    spec=UNIT_MACHINE, capacity=cap, compiled=cs, engine=e, **kw
                )
            )


class TestSeededGrids:
    """Random trace / layered graphs across heuristics, cost models,
    capacities and modes."""

    @pytest.mark.parametrize("family", ["trace", "layered"])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("heuristic", ["rcp", "mpo", "dts"])
    def test_exact(self, family, seed, heuristic, seeded_case):
        case = seeded_case(seed=seed, procs=3, family=family)
        s = ORDERS[heuristic](case.graph, case.placement, case.assignment)
        cs = CompiledSchedule(s)
        prof = cs.profile
        for spec in (UNIT_MACHINE, CRAY_T3D, MEIKO_CS2):
            for cap in sorted({prof.min_mem, prof.tot}):
                for preknown in (False, True):
                    assert_exact_match(
                        lambda e, spec=spec, cap=cap, pk=preknown: Simulator(
                            spec=spec, capacity=cap, compiled=cs, engine=e,
                            preknown_addresses=pk,
                        )
                    )
            assert_exact_match(
                lambda e, spec=spec: Simulator(
                    spec=spec, capacity=prof.tot, compiled=cs,
                    memory_managed=False, engine=e,
                )
            )


class TestSweepWorkloads:
    """The benchmark workloads the sweep grid actually runs."""

    @pytest.mark.parametrize("key,procs", [("lu-goodwin", 4), ("lu-goodwin", 8)])
    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_exact(self, key, procs, fraction):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext()
        cs = ctx.compiled(key, procs, "rcp")
        prof = ctx.profile(key, procs, "rcp")
        cap = int(math.floor(prof.tot * fraction))
        if prof.min_mem > cap:
            pytest.skip("cell not executable")
        assert_exact_match(
            lambda e: Simulator(spec=ctx.spec, capacity=cap, compiled=cs, engine=e)
        )

    def test_serial_schedule_exact(self):
        """The p=1 gate cell of the engine benchmark: every task is
        silent, the compiled run collapses to segment kernels."""
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext()
        cs = ctx.compiled("lu-goodwin", 1, "rcp")
        prof = ctx.profile("lu-goodwin", 1, "rcp")
        res = assert_exact_match(
            lambda e: Simulator(
                spec=ctx.spec, capacity=prof.tot, compiled=cs, engine=e
            )
        )
        assert res is not None and res.parallel_time > 0


class TestErrorParity:
    def test_deadlock_identical(self):
        """A constructed address-handshake deadlock raises the same
        DeadlockError (type, message, diagnosis) from both engines."""
        g = paper_example_graph()
        cs = CompiledSchedule(schedule_c(g))
        # Strip the notifications from the memoised plan: space exists
        # but owners never learn addresses, so data never flows.  The
        # plan stays the memoised one, so the compiled engine stays
        # eligible and must diagnose the identical deadlock.
        plan = cs.plan_for(9)
        for pts in plan.points:
            for mp in pts:
                mp.notifications.clear()
        errs = {}
        for engine in ("interpreted", "compiled"):
            with pytest.raises(DeadlockError) as ei:
                Simulator(
                    spec=UNIT_MACHINE, capacity=9, compiled=cs, engine=engine
                ).run()
            errs[engine] = ei.value
        a, b = errs["interpreted"], errs["compiled"]
        assert str(a) == str(b)
        assert a.blocked == b.blocked
        assert a.completed == b.completed
        assert a.details == b.details

    def test_corrupted_plan_error_identical(self):
        """A double allocation smuggled into the memoised plan trips
        the same allocator error, with the same message, from both
        engines (the compiled engine replicates the allocator's check
        order exactly)."""
        from repro.errors import MemoryError_

        g = paper_example_graph()
        cs = CompiledSchedule(schedule_c(g))
        plan = cs.plan_for(9)
        mp = plan.points[1][0]
        assert mp.allocs
        mp.allocs.append(mp.allocs[0])  # duplicate allocation
        msgs = {}
        for engine in ("interpreted", "compiled"):
            with pytest.raises(MemoryError_) as ei:
                Simulator(
                    spec=UNIT_MACHINE, capacity=9, compiled=cs, engine=engine
                ).run()
            msgs[engine] = str(ei.value)
        assert msgs["interpreted"] == msgs["compiled"]


class TestFallbacks:
    """Observed, fault-injected and caller-plan runs must fall back to
    the interpreted oracle and say so via ``SimResult.engine``."""

    @pytest.fixture()
    def cs(self):
        g = paper_example_graph()
        return CompiledSchedule(schedule_c(g))

    def test_metrics_falls_back(self, cs):
        res = Simulator(
            spec=UNIT_MACHINE, capacity=9, compiled=cs,
            metrics=True, engine="compiled",
        ).run()
        assert res.engine == "interpreted"
        assert res.metrics is not None

    def test_trace_falls_back(self, cs):
        res = Simulator(
            spec=UNIT_MACHINE, capacity=9, compiled=cs,
            trace=True, engine="compiled",
        ).run()
        assert res.engine == "interpreted"
        assert res.trace

    def test_enabled_instrument_falls_back(self, cs):
        from repro.conformance import InvariantChecker

        checker = InvariantChecker(cs)
        res = Simulator(
            spec=UNIT_MACHINE, capacity=9, compiled=cs,
            instrument=checker, engine="compiled",
        ).run()
        assert res.engine == "interpreted"
        assert checker.ok

    def test_disabled_instrument_stays_compiled(self, cs):
        from repro.obs import NULL_INSTRUMENT

        res = Simulator(
            spec=UNIT_MACHINE, capacity=9, compiled=cs,
            instrument=NULL_INSTRUMENT, engine="compiled",
        ).run()
        assert res.engine == "compiled"

    def test_active_faults_fall_back(self, cs):
        from repro.conformance import FaultSpec

        res = Simulator(
            spec=UNIT_MACHINE, capacity=9, compiled=cs,
            faults=FaultSpec(put_latency_factor=2.0),
            engine="compiled",
        ).run()
        assert res.engine == "interpreted"

    def test_inactive_faults_stay_compiled(self, cs):
        from repro.conformance import FaultSpec

        res = Simulator(
            spec=UNIT_MACHINE, capacity=9, compiled=cs,
            faults=FaultSpec(), engine="compiled",
        ).run()
        assert res.engine == "compiled"

    def test_caller_plan_falls_back(self, cs):
        from repro.core.maps import plan_maps

        plan = plan_maps(cs.schedule, 9, cs.profile)  # fresh, not memoised
        res = Simulator(
            spec=UNIT_MACHINE, capacity=9, compiled=cs,
            plan=plan, engine="compiled",
        ).run()
        assert res.engine == "interpreted"

    def test_unknown_engine_rejected(self, cs):
        with pytest.raises(SimulationError):
            Simulator(spec=UNIT_MACHINE, capacity=9, compiled=cs, engine="jit")

    def test_auto_engine_rejected(self, cs):
        with pytest.raises(SimulationError, match="'interpreted' or 'compiled'"):
            Simulator(spec=UNIT_MACHINE, capacity=9, compiled=cs, engine="auto")


class TestCacheStaleness:
    """Satellite regressions: memoised plans must never survive a
    mutated schedule or leak across machine specs."""

    def _cs(self):
        g = paper_example_graph()
        return CompiledSchedule(schedule_c(g))

    def test_mutated_schedule_detected_by_run(self):
        cs = self._cs()
        sim = Simulator(spec=UNIT_MACHINE, capacity=9, compiled=cs, engine="compiled")
        Simulator(spec=UNIT_MACHINE, capacity=9, compiled=cs, engine="compiled").run()
        cs.schedule.orders[0].pop()  # mutate behind the cache
        with pytest.raises(SimulationError, match="stale"):
            sim.run()

    def test_mutated_schedule_detected_by_plan_for(self):
        cs = self._cs()
        cs.plan_for(9)
        cs.schedule.orders[1].pop()
        with pytest.raises(SimulationError, match="stale"):
            cs.plan_for(9)

    def test_exec_plans_keyed_by_spec(self, seeded_case):
        """Scaling the overhead costs between runs of the *same*
        compiled schedule must produce the scaled-spec result, not a
        stale cost table (regression: the execution-plan cache key
        includes the MachineSpec)."""
        case = seeded_case(seed=0, procs=3)
        s = rcp_order(case.graph, case.placement, case.assignment)
        cs = CompiledSchedule(s)
        cap = cs.profile.tot
        results = {}
        for factor in (1.0, 8.0):
            spec = CRAY_T3D.scaled_overheads(factor)
            rb = assert_exact_match(
                lambda e, spec=spec: Simulator(
                    spec=spec, capacity=cap, compiled=cs, engine=e
                )
            )
            results[factor] = rb.parallel_time
        assert results[8.0] > results[1.0]

    def test_exec_plans_keyed_by_mode(self):
        """preknown and managed runs of one compiled schedule must not
        share lowered state."""
        cs = self._cs()
        for preknown in (False, True, False):
            assert_exact_match(
                lambda e, pk=preknown: Simulator(
                    spec=UNIT_MACHINE, capacity=9, compiled=cs, engine=e,
                    preknown_addresses=pk,
                )
            )


class TestRepeatability:
    def test_compiled_run_is_repeatable(self):
        """Run-local state: the same simulator yields identical results
        across repeated compiled runs (drift-free time arithmetic)."""
        g = paper_example_graph()
        cs = CompiledSchedule(schedule_c(g))
        sim = Simulator(spec=UNIT_MACHINE, capacity=9, compiled=cs, engine="compiled")
        r1, r2 = sim.run(), sim.run()
        assert r1.engine == r2.engine == "compiled"
        assert r1.parallel_time == r2.parallel_time
        for sa, sb in zip(r1.stats, r2.stats):
            assert sa == sb
