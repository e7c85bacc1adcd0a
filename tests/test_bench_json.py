"""tools/bench_json.py on fake run files: paired runs are summarised with the
relative change of their medians and of each pair, a metric is marked unresolved when the
parent's spread exceeds its bound and the two sides' runs overlap, traced
pairs are summarised apart from the timed ones, the run length is taken from
the runs, and a run without its pair, runs of one side from two source
digests, or runs of two lengths stop the tool with a message naming their
files."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_json.py"
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def _write_run(
    run_dir: Path, side: str, workload: str, seed: int, value: float, sha: str = "", trace: int = 0, seconds: float = 25.0
) -> str:
    """One run's standard output: a provenance line, then the result line.
    A traced run reports one per-layer metric in place of the end-to-end ones."""
    provenance = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "src_sha256": sha or f"{side}-sha",
        "python": "3.x",
        "numpy": "2.x",
        "cpu_count": 2,
        "blas_threads": {},
    }
    names = ["infometrics.self_share"] if trace else METRICS
    result = {"failed": 0, "attempted": 10, "metrics": {m: {"value": value} for m in names}}
    name = f"{side}_{workload}_{seed}{'_traced' if trace else ''}.txt"
    lines = ["warm-up chatter", json.dumps({"provenance": provenance}), json.dumps(result)]
    (run_dir / name).write_text("\n".join(lines) + "\n")
    return name


def _run_tool(tmp_path: Path):
    out = tmp_path / "BENCH.json"
    result = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "runs"), "parent-sha", "change-sha", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return result, out


@pytest.fixture
def run_dir(tmp_path: Path) -> Path:
    path = tmp_path / "runs"
    path.mkdir()
    return path


def test_paired_runs_are_summarised(tmp_path, run_dir):
    for seed in (1, 2, 3):
        _write_run(run_dir, "parent", "mc_multistage", seed, 2.0)
        _write_run(run_dir, "change", "mc_multistage", seed, 1.0 + seed)
    result, out = _run_tool(tmp_path)
    assert result.returncode == 0, result.stderr
    summary = json.loads(out.read_text())["workloads"]["mc_multistage"]
    assert summary["pairs"] == 3 and summary["seeds"] == [1, 2, 3]
    assert summary["change"]["setup_s"] == {"median": 3.0, "q1": 2.5, "q3": 3.5}
    # Lower setup_s is better: only seed 1 (2.0 against 2.0) is a tie, seed 2 and 3 lose.
    assert summary["change_wins"]["setup_s"] == 0
    assert summary["change_wins"]["units_per_ref_s"] == 2


def test_relative_change_of_the_medians(tmp_path, run_dir):
    for seed, (parent, change) in enumerate([(2.0, 1.0), (4.0, 3.0), (8.0, 5.0)]):
        _write_run(run_dir, "parent", "sweep_analytic", seed, parent)
        _write_run(run_dir, "change", "sweep_analytic", seed, change)
    _write_run(run_dir, "parent", "compile_wide", 1, 0.0)
    _write_run(run_dir, "change", "compile_wide", 1, 1.0)
    result, out = _run_tool(tmp_path)
    assert result.returncode == 0, result.stderr
    workloads = json.loads(out.read_text())["workloads"]
    # Medians 4.0 and 3.0, whatever the metric.
    assert workloads["sweep_analytic"]["rel_change"] == {m: -0.25 for m in METRICS}
    # A parent median of 0 has no relative change.
    assert workloads["compile_wide"]["rel_change"] == {m: None for m in METRICS}


def test_relative_change_of_each_pair_in_seed_order(tmp_path, run_dir):
    # Written out of seed order; seed 3's parent run is 0 and has no relative change.
    for seed, (parent, change) in [(10, (4.0, 5.0)), (2, (2.0, 1.0)), (3, (0.0, 1.0)), (1, (8.0, 6.0))]:
        _write_run(run_dir, "parent", "mc_multistage", seed, parent)
        _write_run(run_dir, "change", "mc_multistage", seed, change)
    result, out = _run_tool(tmp_path)
    assert result.returncode == 0, result.stderr
    summary = json.loads(out.read_text())["workloads"]["mc_multistage"]
    assert summary["seeds"] == [1, 2, 3, 10]
    assert summary["pair_rel_change"] == {m: [-0.25, -0.5, None, 0.25] for m in METRICS}


def _resolved(tmp_path, run_dir, parent_values, change_values) -> dict:
    """The `resolved` map of one workload whose runs give every metric these values."""
    for seed, (parent, change) in enumerate(zip(parent_values, change_values)):
        _write_run(run_dir, "parent", "qkd_intercept", seed, parent)
        _write_run(run_dir, "change", "qkd_intercept", seed, change)
    result, out = _run_tool(tmp_path)
    assert result.returncode == 0, result.stderr
    return json.loads(out.read_text())["workloads"]["qkd_intercept"]["resolved"]


def test_wide_interleaved_spread_is_unresolved(tmp_path, run_dir):
    # Parent quartiles 2 and 4 about a median of 3: a spread of 67%, past every bound.
    resolved = _resolved(tmp_path, run_dir, [1.0, 2.0, 3.0, 4.0, 5.0], [1.5, 2.5, 3.5, 4.5, 5.5])
    assert resolved == {m: False for m in METRICS}


def test_wide_spread_is_resolved_when_every_change_run_is_better(tmp_path, run_dir):
    # Every change run is lower than every parent run: better unless higher is better.
    resolved = _resolved(tmp_path, run_dir, [10.0, 20.0, 30.0, 40.0, 50.0], [1.0, 2.0, 3.0, 4.0, 5.0])
    assert resolved == {m: m != "units_per_ref_s" for m in METRICS}


def test_narrow_spread_is_resolved(tmp_path, run_dir):
    # Parent quartiles 10.0 and 10.1 about a median of 10.1: a spread of 1%, inside every bound.
    resolved = _resolved(tmp_path, run_dir, [10.0, 10.1, 10.2, 10.1, 10.0], [10.05, 10.15, 9.95, 10.1, 10.2])
    assert resolved == {m: True for m in METRICS}


def test_traced_pairs_are_summarised_apart(tmp_path, run_dir):
    _write_run(run_dir, "parent", "compile_wide", 1, 2.0)
    _write_run(run_dir, "change", "compile_wide", 1, 1.0)
    _write_run(run_dir, "parent", "compile_wide", 1, 0.3, trace=1)
    _write_run(run_dir, "change", "compile_wide", 1, 0.1, trace=1)
    result, out = _run_tool(tmp_path)
    assert result.returncode == 0, result.stderr
    doc = json.loads(out.read_text())
    assert doc["workloads"]["compile_wide"]["pairs"] == 1
    assert doc["workloads"]["compile_wide"]["change"]["setup_s"]["median"] == 1.0
    assert doc["traced"] == {
        "compile_wide": {
            "pairs": 1,
            "seeds": [1],
            "parent": {"infometrics.self_share": 0.3},
            "change": {"infometrics.self_share": 0.1},
        }
    }


@pytest.mark.parametrize("complete_pairs", [0, 2])
def test_unpaired_run_is_named(tmp_path, run_dir, complete_pairs):
    for seed in range(complete_pairs):
        _write_run(run_dir, "parent", "qkd_intercept", seed, 1.0)
        _write_run(run_dir, "change", "qkd_intercept", seed, 1.0)
    lone = _write_run(run_dir, "change", "qkd_intercept", 7, 1.0)
    other = _write_run(run_dir, "parent", "sweep_analytic", 1, 1.0)
    result, out = _run_tool(tmp_path)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert lone in result.stderr and other in result.stderr
    assert not out.exists()


def test_second_run_of_one_side_is_refused(tmp_path, run_dir):
    _write_run(run_dir, "parent", "compile_wide", 1, 1.0)
    _write_run(run_dir, "change", "compile_wide", 1, 1.0)
    (run_dir / "parent_compile_wide_1_again.txt").write_text((run_dir / "parent_compile_wide_1.txt").read_text())
    result, out = _run_tool(tmp_path)
    assert result.returncode == 1 and "a second parent run" in result.stderr
    assert not out.exists()


def test_mixed_source_digests_are_refused(tmp_path, run_dir):
    for seed in (1, 2):
        _write_run(run_dir, "parent", "mc_multistage", seed, 1.0)
        _write_run(run_dir, "change", "mc_multistage", seed, 1.0)
    _write_run(run_dir, "parent", "qkd_intercept", 1, 1.0)
    _write_run(run_dir, "change", "qkd_intercept", 1, 1.0, sha="edited-sha")
    result, out = _run_tool(tmp_path)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "change runs come from more than one source digest" in result.stderr
    assert "edited-sha: change_qkd_intercept_1.txt" in result.stderr
    assert "change-sha: change_mc_multistage_1.txt, change_mc_multistage_2.txt" in result.stderr
    assert not out.exists()


def test_run_length_comes_from_the_runs(tmp_path, run_dir):
    for seed in (1, 2):
        _write_run(run_dir, "parent", "sweep_analytic", seed, 1.0, seconds=8.0)
        _write_run(run_dir, "change", "sweep_analytic", seed, 1.0, seconds=8.0)
    result, out = _run_tool(tmp_path)
    assert result.returncode == 0, result.stderr
    assert json.loads(out.read_text())["run_seconds"] == 8


def test_mixed_run_lengths_are_refused(tmp_path, run_dir):
    _write_run(run_dir, "parent", "sweep_analytic", 1, 1.0, seconds=8.0)
    _write_run(run_dir, "change", "sweep_analytic", 1, 1.0, seconds=8.0)
    _write_run(run_dir, "parent", "compile_wide", 1, 1.0, seconds=10.0)
    _write_run(run_dir, "change", "compile_wide", 1, 1.0, seconds=8.0)
    result, out = _run_tool(tmp_path)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "runs of more than one length" in result.stderr
    assert "10.0 s: parent_compile_wide_1.txt" in result.stderr
    assert "8.0 s: change_compile_wide_1.txt, change_sweep_analytic_1.txt, parent_sweep_analytic_1.txt" in result.stderr
    assert not out.exists()


def test_empty_run_directory_is_refused(tmp_path, run_dir):
    result, out = _run_tool(tmp_path)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr and "no run files" in result.stderr
    assert not out.exists()
