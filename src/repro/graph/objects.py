"""Data objects of the irregular computation model.

The paper's computation model (section 2) consists of a set of tasks and
a set of *distinct data objects*; each task reads/writes a subset of the
objects.  A data object is the unit of placement (it has a unique owner
processor, Definition 1), the unit of communication (its whole content is
deposited into a remote processor's memory with one RMA put) and the unit
of memory management (volatile copies are allocated once and freed at
their dead point, section 3.2).

Sizes are plain non-negative integers in abstract *units*; the sparse
substrates use bytes (8 bytes per stored double) while the worked
examples of the paper use unit-size objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Integral

from ..errors import ObjectSizeError


class AccessMode(Enum):
    """How a task touches a data object."""

    READ = "read"
    WRITE = "write"
    READWRITE = "readwrite"

    @property
    def reads(self) -> bool:
        return self in (AccessMode.READ, AccessMode.READWRITE)

    @property
    def writes(self) -> bool:
        return self in (AccessMode.WRITE, AccessMode.READWRITE)


@dataclass(frozen=True)
class DataObject:
    """A named, fixed-size unit of application data.

    Parameters
    ----------
    name:
        Unique identifier within a :class:`~repro.graph.taskgraph.TaskGraph`.
    size:
        Memory footprint in abstract units (``>= 0``).  One unit for the
        paper's worked example, bytes for the sparse-matrix substrates.
    """

    name: str
    size: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("data object name must be non-empty")
        size = self.size
        if type(size) is not int and (
            isinstance(size, bool) or not isinstance(size, Integral)
        ):
            raise ObjectSizeError(
                f"data object {self.name!r} has non-integer size {size!r}"
            )
        if size < 0:
            raise ObjectSizeError(f"data object {self.name!r} has negative size {size}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataObject({self.name!r}, size={self.size})"


@dataclass(frozen=True)
class Access:
    """A single (object, mode) pair in a task's access list."""

    obj: str
    mode: AccessMode

    @property
    def reads(self) -> bool:
        return self.mode.reads

    @property
    def writes(self) -> bool:
        return self.mode.writes
