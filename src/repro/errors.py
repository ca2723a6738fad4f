"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the interesting cases (most notably
:class:`NonExecutableScheduleError`, which corresponds to the ``infinity``
entries of Tables 2/3 of the paper: a schedule whose ``MIN_MEM`` exceeds
the per-processor memory capacity).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphError(ReproError):
    """Malformed task graph: unknown objects, duplicate tasks, cycles, ..."""


class CycleError(GraphError):
    """The dependence graph contains a cycle (it must be a DAG)."""

    def __init__(self, cycle_hint: str = ""):
        msg = "task dependence graph contains a cycle"
        if cycle_hint:
            msg += f" (involving {cycle_hint})"
        super().__init__(msg)


class DependenceError(GraphError):
    """The transformed graph is not dependence-complete.

    An anti or output dependence between two tasks is not subsumed by a
    true-dependence path, so executing the true-dependence graph alone
    could produce a wrong value (see paper section 2 and 3.4).
    """


class ObjectSizeError(GraphError, ValueError):
    """A data object's size is not a finite non-negative integer.

    Also a :class:`ValueError`, which negative sizes always raised.  The
    liveness tables and the MAP planner rely on exact integer byte
    sums.
    """


class TaskWeightError(GraphError, ValueError):
    """A task's weight is not a finite non-negative real number.

    Also a :class:`ValueError`, which negative weights always raised.
    The engines add weights into finish times, and the compiled engine's
    vectorised segment kernel relies on nondecreasing finish-time
    prefixes, which a NaN or negative weight would break.
    """


class CapacityError(ReproError, ValueError):
    """A memory capacity (or capacity fraction) is not a finite number."""


class ExperimentConfigError(ReproError, ValueError):
    """An experiment cell or sweep was configured with invalid inputs:
    a processor count that is not an integer >= 1, an unknown TOT
    reference, an unknown column family, or a sweep worker used before
    its context was built.  Also a :class:`ValueError`, so callers that
    treat bad arguments as ``ValueError`` keep working."""


class SchedulingError(ReproError):
    """A scheduling algorithm was invoked with inconsistent inputs."""


class PlacementError(ReproError):
    """Data placement / ownership constraints are violated.

    Under the owner-compute rule every task that modifies a data object
    must run on the object's owner processor (paper, Definition 1).
    """


class NonExecutableScheduleError(ReproError):
    """The schedule cannot run under the given memory capacity.

    Mirrors Definition 6 of the paper: ``MIN_MEM`` of the schedule is
    greater than the available per-processor memory.  Experiment tables
    print such configurations as ``inf``.
    """

    def __init__(self, processor: int, required: int, capacity: int):
        self.processor = processor
        self.required = required
        self.capacity = capacity
        super().__init__(
            f"schedule is non-executable: processor {processor} needs "
            f"{required} units of memory but only {capacity} are available"
        )


class MemoryError_(ReproError):
    """Raised by the simulated per-processor allocator on misuse.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`.
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class DeadlockError(SimulationError):
    """The simulation stopped making progress before completion.

    Theorem 1 of the paper proves this cannot happen when the memory
    capacity admits the schedule; the simulator still detects the
    condition defensively and reports the set of blocked processors.
    """

    def __init__(self, blocked: dict[int, str], completed: int, total: int):
        self.blocked = dict(blocked)
        self.completed = completed
        self.total = total
        states = ", ".join(f"P{p}:{s}" for p, s in sorted(blocked.items()))
        super().__init__(
            f"no progress possible: {completed}/{total} tasks completed; "
            f"blocked processors: {states or 'none'}"
        )


class DataConsistencyError(SimulationError):
    """A processor observed a stale or wrong version of a data object."""


class InvariantViolationError(SimulationError):
    """An online protocol invariant failed during a checked execution.

    Raised by :class:`repro.conformance.InvariantChecker` in strict mode;
    in the default collecting mode violations are recorded instead.  The
    ``violation`` attribute carries the structured
    :class:`~repro.conformance.invariants.Violation` record.
    """

    def __init__(self, violation):
        self.violation = violation
        super().__init__(
            f"invariant {violation.invariant!r} violated at "
            f"t={violation.time:g} on P{violation.proc}: {violation.detail}"
        )
