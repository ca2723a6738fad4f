"""Tests for the error hierarchy and miscellaneous surfaces."""


from repro import errors


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "GraphError",
            "CycleError",
            "DependenceError",
            "SchedulingError",
            "PlacementError",
            "NonExecutableScheduleError",
            "MemoryError_",
            "SimulationError",
            "DeadlockError",
            "DataConsistencyError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_non_executable_message(self):
        e = errors.NonExecutableScheduleError(3, required=100, capacity=80)
        assert "processor 3" in str(e)
        assert e.required == 100 and e.capacity == 80

    def test_cycle_hint(self):
        assert "T1" in str(errors.CycleError("T1"))
        assert "cycle" in str(errors.CycleError())

    def test_deadlock_payload(self):
        e = errors.DeadlockError({0: "REC", 2: "MAP"}, completed=5, total=9)
        s = str(e)
        assert "5/9" in s and "P0:REC" in s and "P2:MAP" in s
        assert e.blocked == {0: "REC", 2: "MAP"}

    def test_simulation_error_is_not_memory_error(self):
        assert not issubclass(errors.SimulationError, errors.MemoryError_)


class TestPackageSurface:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None or name == "__version__"

    def test_subpackage_exports_resolve(self):
        import repro.core as core
        import repro.graph as graph
        import repro.machine as machine
        import repro.rapid as rapid
        import repro.sparse as sparse

        for mod in (core, graph, machine, rapid, sparse):
            for name in mod.__all__:
                assert getattr(mod, name) is not None, f"{mod.__name__}.{name}"


class TestHostileSizesAndCapacities:
    """Object sizes must be finite non-negative integers; capacities and
    capacity fractions must be finite — each refusal is a typed error."""

    def test_bad_object_sizes_are_typed(self):
        import numpy as np
        import pytest

        from repro.graph import DataObject

        for size in (float("nan"), float("inf"), 2.5, -1, "8", True):
            with pytest.raises(errors.ObjectSizeError) as info:
                DataObject("x", size)
            assert isinstance(info.value, errors.GraphError)
            assert isinstance(info.value, ValueError)
        assert DataObject("x", np.int64(8)).size == 8
        assert DataObject("x", 0).size == 0

    def test_non_finite_capacities_are_typed(self):
        import pytest

        from repro.experiments import ExperimentContext
        from repro.graph.paper_example import schedule_c
        from repro.machine import UNIT_MACHINE, Simulator
        from repro.machine.simulator import CompiledSchedule

        cs = CompiledSchedule(schedule_c())
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(errors.CapacityError):
                Simulator(compiled=cs, spec=UNIT_MACHINE, capacity=bad)
            with pytest.raises(errors.CapacityError):
                cs.plan_for(bad)
        assert issubclass(errors.CapacityError, errors.ReproError)
        ctx = ExperimentContext()
        for bad in (float("nan"), float("inf")):
            with pytest.raises(errors.CapacityError):
                ctx.run_cell("chol15", 2, "rcp", bad)
        # finite capacities keep working, whatever their numeric type
        assert Simulator(compiled=cs, spec=UNIT_MACHINE, capacity=8.0).run()


class TestHostileTaskWeights:
    """Task weights must be finite non-negative reals; each refusal is a
    typed error that is also a ValueError."""

    def test_bad_weights_are_typed(self):
        import numpy as np
        import pytest

        from repro.graph import Task

        for w in (float("nan"), float("inf"), float("-inf"), -1.0, -1,
                  True, np.bool_(False), "1", None):
            with pytest.raises(errors.TaskWeightError) as info:
                Task("t", weight=w)
            assert isinstance(info.value, errors.GraphError)
            assert isinstance(info.value, ValueError)
        for w in (0, 0.0, 2, 2.5, np.float64(1.5), np.int64(3)):
            assert Task("t", weight=w).weight == w

    def test_builder_rejects_bad_weights(self):
        import pytest

        from repro.graph import GraphBuilder

        b = GraphBuilder()
        b.add_object("a", 1)
        with pytest.raises(errors.TaskWeightError):
            b.add_task("t", writes=("a",), weight=float("nan"))


class TestExperimentConfig:
    """Bad processor counts, TOT references and column families are
    rejected up front with a typed error that is also a ValueError."""

    def test_error_is_typed(self):
        assert issubclass(errors.ExperimentConfigError, errors.ReproError)
        assert issubclass(errors.ExperimentConfigError, ValueError)

    def test_run_cell_rejects_bad_procs(self):
        import numpy as np
        import pytest

        from repro.experiments import ExperimentContext

        ctx = ExperimentContext()
        for bad in (0, -1, 2.0, True, "4", None):
            with pytest.raises(errors.ExperimentConfigError):
                ctx.run_cell("chol15", bad, "rcp", 1.0)
        assert ctx.run_cell("chol15", np.int64(2), "rcp", 1.0).executable

    def test_run_cell_rejects_unknown_reference_and_family(self):
        import pytest

        from repro.experiments import ExperimentContext

        ctx = ExperimentContext()
        with pytest.raises(errors.ExperimentConfigError, match="bogus"):
            ctx.run_cell("chol15", 2, "rcp", 1.0, reference="bogus")
        with pytest.raises(errors.ExperimentConfigError, match="failure"):
            ctx.run_cell("chol15", 2, "rcp", 1.0, columns=("failure",))

    def test_full_sweep_checks_before_running(self):
        import pytest

        from repro.experiments import ExperimentContext, full_sweep

        class NoProblems(ExperimentContext):
            def problem(self, key):
                raise AssertionError("a cell ran before validation")

        grid = dict(workloads=("chol15",), heuristics=("rcp",),
                    fractions=(1.0,))
        with pytest.raises(errors.ExperimentConfigError):
            full_sweep(NoProblems(), procs=(2, 0), **grid)
        with pytest.raises(errors.ExperimentConfigError):
            full_sweep(NoProblems(), procs=(2,), reference="bogus", **grid)

    def test_worker_without_context_is_typed(self, monkeypatch):
        import pytest

        from repro.experiments import sweep

        monkeypatch.setattr(sweep, "_WORKER_CTX", None)
        with pytest.raises(errors.ExperimentConfigError):
            sweep._worker_run_group(
                ("chol15", 2, ("rcp",), (1.0,), "rcp", "interpreted", ())
            )
