"""Span tracing of the sweep's layers, from outside the program.

:class:`LayerTracer` replaces each layer's public entry point with a
wrapper that opens a span, calls the original and closes the span.  The
names are patched where their callers look them up, because the callers
import them by name.  A span stack gives each layer its *self* time:
its span's duration minus the time covered by the spans it encloses
(``get_exec_plan`` encloses ``lower_schedule`` and ``plan_maps``;
``Simulator.run`` encloses ``get_exec_plan``).

Spans are kept in memory; :meth:`LayerTracer.document` hands them over
for writing once the pass has ended.

Use the tracer in a process of its own: while installed it changes
module globals that every caller in the process shares.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

#: ``(module, attribute path, layer)``: the call sites the tracer patches.
PATCHES = (
    ("repro.experiments.common", "order_with", "core.order"),
    ("repro.experiments.common", "analyze_memory", "core.liveness"),
    ("repro.machine.simulator", "plan_maps", "core.plan_maps"),
    ("repro.machine.simulator", "CompiledSchedule.__init__", "machine.compile"),
    ("repro.machine.compiled", "lower_schedule", "machine.lower"),
    ("repro.machine.compiled", "get_exec_plan", "machine.exec_plan"),
    ("repro.machine.simulator", "Simulator.run", "machine.exec"),
    ("repro.analysis", "analyze_schedule", "analysis.analyze"),
    ("repro.analysis", "schedule_bounds", "analysis.bounds"),
)


def _owner(module: str, path: str):
    """The object holding the patched attribute, and the attribute name."""
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def originals() -> dict:
    """The unpatched objects at every call site of :data:`PATCHES`."""
    out = {}
    for module, path, _ in PATCHES:
        owner, name = _owner(module, path)
        out[(module, path)] = getattr(owner, name)
    return out


class LayerTracer:
    """Span stack plus per-layer self time, call counts and the work
    counts of every :class:`~repro.machine.simulator.SimResult`."""

    def __init__(self) -> None:
        #: closed spans: ``[layer, start, end, parent index or -1]``
        self.spans: list = []
        #: open spans: ``[span index, start, time covered by children]``
        self._stack: list = []
        self.self_s: dict = {}
        self.calls: dict = {}
        self.msgs = 0
        self.maps = 0
        self._saved: dict = {}

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``."""
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([layer, 0.0, 0.0, parent])
        start = perf_counter()
        self._stack.append([idx, start, 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            _, _, child = self._stack.pop()
            dur = end - start
            self.spans[idx][1:3] = start, end
            self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - child
            self.calls[layer] = self.calls.get(layer, 0) + 1
            if self._stack:
                self._stack[-1][2] += dur

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(layer, fn, *args, **kwargs)

        if layer == "machine.exec":
            @functools.wraps(fn)
            def run(*args, **kwargs):
                res = wrapper(*args, **kwargs)
                self.msgs += res.total_data_msgs
                self.maps += sum(s.num_maps for s in res.stats)
                return res

            return run
        return wrapper

    def install(self) -> None:
        for module, path, layer in PATCHES:
            owner, name = _owner(module, path)
            orig = getattr(owner, name)
            self._saved[(module, path)] = orig
            setattr(owner, name, self._wrap(layer, orig))

    def uninstall(self) -> None:
        for (module, path), orig in self._saved.items():
            owner, name = _owner(module, path)
            setattr(owner, name, orig)
        self._saved.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def document(self) -> dict:
        """Every span and the per-layer totals, as JSON-ready data."""
        return {
            "schema": "perfbench-spans/1",
            "spans": self.spans,
            "self_s": self.self_s,
            "calls": self.calls,
            "msgs": self.msgs,
            "maps": self.maps,
        }
