"""Self-tests of the benchmark harness, on one-group slices of each workload.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import calibrate  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from spans import PATCHES, originals  # noqa: E402

NAMES = sorted(harness.WORKLOADS)


def _slice(name: str):
    return harness.WORKLOADS[name].slice()


def _slice_reference(w, variant: int = 0) -> str:
    """The reference rows of the slice's one (problem, procs) group."""
    lines = harness.load_reference(w, variant).splitlines(keepends=True)
    group = [w.problems[0], str(w.procs[0])]
    return lines[0] + "".join(ln for ln in lines[1:] if ln.split(",")[:2] == group)


@pytest.fixture(scope="module")
def untraced():
    """Untraced CSV of every workload's slice, default variant."""
    out = {}
    for name in NAMES:
        w = _slice(name)
        text, _, _ = harness.run_pass(w, harness.build_problems(w, 0))
        out[name] = text
    return out


@pytest.mark.parametrize("name", NAMES)
def test_slice_runs_end_to_end_and_matches_reference(name, untraced):
    w = _slice(name)
    text = untraced[name]
    assert text is not None
    assert len(text.splitlines()) == w.cells + 1
    assert harness.count_failed(text, _slice_reference(w), w.cells) == 0


@pytest.mark.parametrize("name", NAMES)
def test_perturbed_reference_row_is_caught(name, untraced):
    w = _slice(name)
    lines = _slice_reference(w).splitlines(keepends=True)
    row = lines[2].split(",")
    row[8] = "0.5" if row[8] != "0.5" else "0.25"  # parallel_time
    lines[2] = ",".join(row)
    failed = harness.count_failed(untraced[name], "".join(lines), w.cells)
    assert failed == 1
    assert failed / w.cells > 0


def test_default_variant_reproduces_plain_full_sweep_byte_for_byte(untraced):
    # The built-in problems of a plain ExperimentContext, no registration.
    w = _slice("paper-grid")
    plain, _, _ = harness.run_pass(w, {})
    assert untraced["paper-grid"] == plain == _slice_reference(w)


def test_held_out_variant_has_its_own_reference():
    w = _slice("paper-grid")
    text, _, _ = harness.run_pass(w, harness.build_problems(w, 1))
    assert harness.count_failed(text, _slice_reference(w, 1), w.cells) == 0
    assert text != _slice_reference(w, 0)


def test_metered_pass_equals_one_full_sweep():
    # Four groups over both problems, so group order matters.
    base = harness.WORKLOADS["paper-grid"]
    w = dataclasses.replace(base, procs=base.procs[:2])
    whole, _, _ = harness.run_pass(w, harness.build_problems(w, 0))
    text, meter, _ = harness.metered_pass(w, harness.build_problems(w, 0))
    assert text == whole
    lines = harness.load_reference(base, 0).splitlines(keepends=True)
    keep = {(key, str(p)) for key, p in w.groups()}
    assert text == lines[0] + "".join(
        ln for ln in lines[1:] if tuple(ln.split(",")[:2]) in keep)
    assert meter.raw_s > 0 and meter.scaled_s > 0


def test_calibration_kernels_are_fixed_and_leave_gc_alone():
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.array_kernel() == calibrate.array_kernel()
    assert gc.isenabled()
    assert calibrate.sample() > 0
    assert gc.isenabled()


def test_scaled_time_is_work_at_reference_speed():
    # On a host half as fast, two seconds of work are one reference second.
    assert calibrate.scaled(2.0, 2.0, 2.0) == pytest.approx(1.0)
    assert calibrate.scaled(3.0, 1.0, 2.0) == pytest.approx(2.0)
    assert calibrate.scaled(1.0, 1.0, 1.0) == 1.0


@pytest.fixture(scope="module")
def traced_slices():
    return {name: traced.traced_pass(_slice(name), 0) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_traced_csv_equals_untraced(name, untraced, traced_slices):
    assert traced_slices[name]["csv"] == untraced[name]


@pytest.mark.parametrize("name", NAMES)
def test_patched_names_are_restored(name, traced_slices):
    assert traced_slices[name]["restored"]


def test_originals_are_the_module_objects():
    from repro.analysis import analyze_schedule
    from repro.experiments import common
    from repro.machine import compiled, simulator

    now = originals()
    assert now[("repro.experiments.common", "order_with")] is common.order_with
    assert now[("repro.machine.simulator", "Simulator.run")] is (
        simulator.Simulator.__dict__["run"])
    assert now[("repro.machine.compiled", "get_exec_plan")] is compiled.get_exec_plan
    assert now[("repro.analysis", "analyze_schedule")] is analyze_schedule
    assert len(now) == len(PATCHES)


@pytest.mark.parametrize("name", NAMES)
def test_layer_metrics_complete_and_covering(name, traced_slices):
    doc = traced_slices[name]
    metrics = traced.layer_metrics(doc, untraced_s=doc["wall_s"])
    assert list(metrics) == [n for n, _ in traced.LAYER_METRICS]
    assert metrics["trace.coverage"]["value"] >= 0.95
    assert metrics["machine.runs"]["value"] == (
        doc["counters"]["compiled_runs"] + doc["counters"]["interpreted_runs"])
    assert metrics["core.order_calls"]["value"] > 0
    assert metrics["machine.msgs"]["value"] > 0


def test_counts_repeat_exactly(traced_slices):
    w = _slice("capacity-scan")
    again = traced.traced_pass(w, 0)
    first = traced_slices["capacity-scan"]
    assert harness.count_counters(again["counters"]) == harness.count_counters(
        first["counters"])
    for key in ("calls", "msgs", "maps"):
        assert again[key] == first[key]


def test_seed_without_reference_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "REFERENCE_DIR", str(tmp_path))
    code = run.main(["--workload", "paper-grid", "--seed", "0",
                     "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""
