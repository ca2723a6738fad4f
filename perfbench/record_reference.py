"""Record the reference CSVs the benchmark checks every pass against.

``python3 perfbench/record_reference.py [WORKLOAD ...]`` sweeps each
workload once per input variant with the interpreted engine (the
repository's differential oracle) and writes
``perfbench/reference/<workload>.v<variant>.csv``.  Variant 0 is swept
over the built-in problems of ``ExperimentContext.problem``, so its
reference is plain ``full_sweep`` output; the other variants register
the problems ``harness.build_problem`` makes.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402


def record(workload, variant: int) -> str:
    problems = harness.build_problems(workload, variant) if variant else {}
    text, seconds, _ = harness.run_pass(workload, problems, engine="interpreted")
    if text is None:
        raise RuntimeError(f"{workload.name} v{variant}: sweep raised")
    path = harness.reference_path(workload, variant)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"{path}: {workload.cells} cells in {seconds:.1f} s")
    return text


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or sorted(harness.WORKLOADS)
    os.makedirs(harness.REFERENCE_DIR, exist_ok=True)
    for name in names:
        for variant in range(len(harness.VARIANTS)):
            record(harness.WORKLOADS[name], variant)
    return 0


if __name__ == "__main__":
    sys.exit(main())
