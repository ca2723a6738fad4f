"""CLI coverage for every experiment dispatch path (tiny configs)."""

import pytest

from repro.cli import main


@pytest.mark.parametrize(
    "name",
    ["table2", "table3", "table5"],
)
def test_table_paths(name, capsys):
    assert main([name, "--procs", "4"]) == 0
    out = capsys.readouterr().out
    assert name.replace("table", "Table ") in out


@pytest.mark.parametrize("name", ["table4", "table6", "table7"])
def test_comparison_paths(name, capsys):
    assert main([name, "--app", "lu", "--procs", "4", "8"]) == 0
    out = capsys.readouterr().out
    assert "(lu)" in out


def test_comparison_both_apps(capsys):
    assert main(["table4", "--procs", "4"]) == 0
    out = capsys.readouterr().out
    assert "(cholesky)" in out and "(lu)" in out


@pytest.mark.slow
def test_table8_path(capsys):
    assert main(["table8"]) == 0
    assert "Table 8" in capsys.readouterr().out


def test_sweep_jobs_identical_output(tmp_path, capsys):
    """`sweep --jobs 2` writes byte-identical CSV to the serial run."""
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(["sweep", "--procs", "4", "--out", str(serial)]) == 0
    assert main(["sweep", "--procs", "4", "--jobs", "2", "--out", str(parallel)]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == parallel.read_bytes()


def test_trace_paper_exports(tmp_path, capsys):
    """`trace` on the paper example writes all three artifacts."""
    m = tmp_path / "metrics.json"
    t = tmp_path / "trace.json"
    r = tmp_path / "report.html"
    assert main([
        "trace", "--metrics", str(m), "--trace-out", str(t),
        "--report", str(r),
    ]) == 0
    out = capsys.readouterr().out
    assert "map_overhead=" in out
    import json

    doc = json.loads(m.read_text())
    assert doc["schema"] == "repro-metrics/1"
    assert json.loads(t.read_text())["traceEvents"]
    assert "<svg" in r.read_text()


def test_trace_summary_only(capsys):
    assert main(["trace"]) == 0
    out = capsys.readouterr().out
    assert "summary only" in out


def test_trace_workload_not_executable(capsys):
    assert main([
        "trace", "--workload", "lu-goodwin", "--procs", "4",
        "--fraction", "0.01",
    ]) == 2
    assert "not executable" in capsys.readouterr().err


def test_sweep_prints_summary_without_obs(tmp_path, capsys):
    """The stderr summary (elapsed + per-status counts) appears even
    with observability off — satellite of the runtime-trace work."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--procs", "4", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "sweep: " in err and " cells (" in err and " ok" in err


def test_sweep_obs_dir_writes_merged_trace(tmp_path, capsys):
    """`sweep --obs-dir` produces runtime shards plus the auto-merged
    Perfetto trace, and the CSV matches an unobserved run's bytes."""
    import json

    plain = tmp_path / "plain.csv"
    observed = tmp_path / "observed.csv"
    obs = tmp_path / "obs"
    assert main(["sweep", "--procs", "4", "--out", str(plain)]) == 0
    assert main([
        "sweep", "--procs", "4", "--out", str(observed),
        "--obs-dir", str(obs), "--jobs", "2",
    ]) == 0
    capsys.readouterr()
    assert observed.read_bytes() == plain.read_bytes()
    assert list(obs.glob("runtime-*.jsonl"))
    doc = json.loads((obs / "sweep_trace.json").read_text())
    assert doc["traceEvents"]


def test_obs_merge_command(tmp_path, capsys):
    """`repro obs merge --obs-dir` re-merges an existing directory."""
    import json

    obs = tmp_path / "obs"
    assert main([
        "sweep", "--procs", "4", "--out", str(tmp_path / "s.csv"),
        "--obs-dir", str(obs),
    ]) == 0
    (obs / "sweep_trace.json").unlink()
    assert main(["obs", "merge", "--obs-dir", str(obs)]) == 0
    out = capsys.readouterr().out
    assert "sweep_trace.json" in out
    assert json.loads((obs / "sweep_trace.json").read_text())["traceEvents"]


def test_obs_requires_action_and_dir(capsys):
    assert main(["obs"]) == 2
    assert main(["obs", "merge"]) == 2
    capsys.readouterr()


def test_sweep_engine_stats_columns(tmp_path, capsys):
    """`sweep --engine-stats` adds the engine columns; off by default."""
    plain = tmp_path / "plain.csv"
    stats = tmp_path / "stats.csv"
    assert main(["sweep", "--procs", "4", "--out", str(plain)]) == 0
    assert main([
        "sweep", "--procs", "4", "--engine", "compiled",
        "--engine-stats", "--out", str(stats),
    ]) == 0
    capsys.readouterr()
    assert "engine_used" not in plain.read_text()
    header = stats.read_text().splitlines()[0]
    assert "engine_used" in header and "fallback_reason" in header
    assert ",compiled," in stats.read_text()


def test_sweep_metrics_columns(tmp_path, capsys):
    """`sweep --metrics` adds telemetry columns; without it the CSV
    stays in the legacy format."""
    plain = tmp_path / "plain.csv"
    inst = tmp_path / "metrics.csv"
    assert main(["sweep", "--procs", "4", "--out", str(plain)]) == 0
    assert main(["sweep", "--procs", "4", "--metrics", "--out", str(inst)]) == 0
    capsys.readouterr()
    assert "map_overhead_frac" not in plain.read_text()
    header = inst.read_text().splitlines()[0]
    assert header.endswith("map_overhead_frac,max_hwm,max_suspq")


@pytest.mark.parametrize("procs", ["0", "-1"])
def test_sweep_bad_procs_is_a_usage_error(procs, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--procs", procs, "--out", str(out)]) == 2
    assert "processor count must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()
