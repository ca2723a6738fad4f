"""The traced pass and the per-layer metrics derived from it.

``python3 perfbench/traced.py --workload W --seed N --out FILE`` builds
the workload's problems and runs one pass under a
:class:`~spans.LayerTracer`, then writes the span document (spans,
per-layer self times and calls, work counts, the pass's CSV and the
engine counters) to ``FILE``.  ``run.py --trace 1`` starts it as a
child process, so the patched call sites never reach a timed pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
from repro.machine.simulator import ENGINE_COUNTER_KEYS  # noqa: E402
from spans import LayerTracer, originals  # noqa: E402

#: Per-layer metrics of a traced pass, with their units.
LAYER_METRICS = (
    ("sparse.build_s", "s"),
    ("core.order_s", "s"),
    ("core.order_calls", "count"),
    ("core.liveness_s", "s"),
    ("machine.compile_s", "s"),
    ("machine.compile_calls", "count"),
    ("core.plan_maps_s", "s"),
    ("core.plan_maps_calls", "count"),
    ("core.plan_hit_ratio", "ratio"),
    ("machine.lower_s", "s"),
    ("machine.lower_hit_ratio", "ratio"),
    ("machine.exec_plan_s", "s"),
    ("machine.exec_plan_hit_ratio", "ratio"),
    ("machine.exec_s", "s"),
    ("machine.runs", "count"),
    ("machine.compiled_ratio", "ratio"),
    ("machine.fallback_metrics", "count"),
    ("machine.msgs", "count"),
    ("machine.maps", "count"),
    ("analysis.analyze_s", "s"),
    ("analysis.bounds_s", "s"),
    ("experiments.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


def traced_pass(workload, variant: int) -> dict:
    """Build and sweep ``workload`` once under the tracer; the span
    document plus ``csv``, ``wall_s``, ``counters`` and ``restored``
    (whether every patched name is back to its original afterwards)."""
    tracer = LayerTracer()
    before = originals()
    problems = tracer.span(
        "sparse.build", harness.build_problems, workload, variant
    )
    with tracer:
        text, wall, ctx = harness.run_pass(
            workload, problems,
            call=lambda fn: tracer.span("experiments", fn),
        )
    after = originals()
    return {
        **tracer.document(),
        "csv": text,
        "wall_s": wall,
        "counters": ctx.engine_counters(),
        "restored": all(after[k] is before[k] for k in before),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(doc: dict, untraced_s: float) -> dict:
    """Every :data:`LAYER_METRICS` entry from a span document."""
    self_s, calls = doc["self_s"], doc["calls"]
    c = dict.fromkeys(ENGINE_COUNTER_KEYS, 0) | doc["counters"]
    # Share of the pass spent inside the patched program layers; the
    # rest is the sweep's own plumbing (``experiments.self_s``).
    program = [k for k in self_s if k not in ("sparse.build", "experiments")]
    fallbacks = sum(v for k, v in c.items() if k.startswith("fallback:"))
    values = {
        "sparse.build_s": self_s.get("sparse.build", 0.0),
        "core.order_calls": calls.get("core.order", 0),
        "machine.compile_calls": calls.get("machine.compile", 0),
        "core.plan_maps_calls": calls.get("core.plan_maps", 0),
        "core.plan_hit_ratio": _ratio(
            c["plan_hits"], c["plan_hits"] + c["plan_misses"]),
        "machine.lower_hit_ratio": _ratio(
            c["lower_hits"], c["lower_hits"] + c["lower_misses"]),
        "machine.exec_plan_hit_ratio": _ratio(
            c["exec_plan_hits"], c["exec_plan_hits"] + c["exec_plan_misses"]),
        "machine.runs": calls.get("machine.exec", 0),
        "machine.compiled_ratio": _ratio(
            c["compiled_runs"], c["compiled_runs"] + fallbacks),
        "machine.fallback_metrics": c.get("fallback:metrics", 0),
        "machine.msgs": doc["msgs"],
        "machine.maps": doc["maps"],
        "experiments.self_s": self_s.get("experiments", 0.0),
        "trace.coverage": sum(self_s[k] for k in program) / doc["wall_s"],
        "trace.overhead": doc["wall_s"] / untraced_s,
    }
    for name, unit in LAYER_METRICS:
        if name not in values and unit == "s":
            values[name] = self_s.get(name[: -len("_s")], 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    doc = traced_pass(harness.WORKLOADS[args.workload], harness.variant_of(args.seed))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
