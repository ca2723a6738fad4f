"""End-to-end benchmark of ``repro sweep`` workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 36 --trace 0

``--trace 0`` times the workload's sweep with tracing off and reports
the end-to-end metrics: ``sweep_s`` (median pass time), ``setup_s``
(median problem-build time over several builds) and ``peak_rss_mb``.
Both times are wall times expressed at the fixed host speed of
``calibrate.REFERENCE_S`` (see ``calibrate.py``).  Passes run back to
back while the next one, judged by the last, should end within
``--seconds``; there is always at least one.

``--trace 1`` runs one untraced pass here and one traced pass in a child
process (``traced.py``), and reports the per-layer metrics of
``traced.LAYER_METRICS``.  It also checks that the traced CSV equals the
untraced one, that the engine counters repeat exactly between the two
passes, and that every patched name was restored.

Every pass's CSV is compared row by row with the reference of the
seed's input variant; a differing row or a raising pass counts its cells
as failed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import traced  # noqa: E402

#: Problem builds per run; ``setup_s`` is their median.
SETUP_BUILDS = 5
#: Wall-clock limit of the traced child process.
CHILD_TIMEOUT_S = 150


def untraced_run(workload, variant: int, reference: str, seconds: float):
    setups, walls = [], []
    for _ in range(SETUP_BUILDS):
        problems, build = harness.metered_build(workload, variant)
        setups.append(build.scaled_s)
    passes, failed = [], 0
    start = perf_counter()
    while True:
        text, meter, ctx = harness.metered_pass(workload, problems)
        passes.append(meter.scaled_s)
        walls.append(meter.raw_s)
        failed += harness.count_failed(text, reference, workload.cells)
        print(f"pass {len(passes)}: {meter.scaled_s:.3f} s at reference speed, "
              f"{meter.raw_s:.3f} s wall, host slowdown factor "
              f"{statistics.median(meter.factors):.3f}")
        # Free this pass's caches first, so the peak RSS is one pass's.
        del ctx, problems
        gc.collect()
        # Start another pass only if it should end within the budget.
        if perf_counter() - start + meter.raw_s > seconds:
            break
        problems, build = harness.metered_build(workload, variant)
        setups.append(build.scaled_s)
    print(f"median pass wall time: {statistics.median(walls):.3f} s")
    metrics = {
        "sweep_s": {"value": statistics.median(passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    return metrics, len(passes) * workload.cells, failed, True


def traced_run(workload, seed: int, variant: int, reference: str):
    problems = harness.build_problems(workload, variant)
    text, untraced_s, ctx = harness.run_pass(workload, problems)
    counts = harness.count_counters(ctx.engine_counters())
    del ctx, problems
    gc.collect()
    failed = harness.count_failed(text, reference, workload.cells)

    os.makedirs(harness.OUT_DIR, exist_ok=True)
    out = os.path.join(harness.OUT_DIR, f"{workload.name}-seed{seed}-spans.json")
    subprocess.run(
        [sys.executable, os.path.join(harness.HERE, "traced.py"),
         "--workload", workload.name, "--seed", str(seed), "--out", out],
        check=True, timeout=CHILD_TIMEOUT_S,
    )
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    failed += harness.count_failed(doc["csv"], reference, workload.cells)
    metrics = traced.layer_metrics(doc, untraced_s)
    checks = {
        "traced CSV equals untraced CSV": doc["csv"] == text,
        "engine counters repeat": harness.count_counters(doc["counters"]) == counts,
        "runs match engine counters": metrics["machine.runs"]["value"]
        == counts.get("compiled_runs", 0) + counts.get("interpreted_runs", 0),
        "patched names restored": doc["restored"],
    }
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(f"spans: {out}")
    return metrics, 2 * workload.cells, failed, all(checks.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = harness.WORKLOADS[args.workload]
    variant = harness.variant_of(args.seed)
    ref_path = harness.reference_path(workload, variant)
    if not os.path.exists(ref_path):
        print(f"seed {args.seed} (input variant {variant}) has no reference "
              f"output {ref_path}; refusing to run unchecked", file=sys.stderr)
        return 2
    reference = harness.load_reference(workload, variant)

    if args.trace:
        metrics, attempted, failed, ok = traced_run(
            workload, args.seed, variant, reference)
    else:
        metrics, attempted, failed, ok = untraced_run(
            workload, variant, reference, args.seconds)

    print(f"workload {workload.name}: {workload.cells} cells, seed {args.seed}, "
          f"input variant {variant}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} (cells attempted: {attempted})")
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
