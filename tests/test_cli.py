import ast
import csv
import importlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import densecode
from densecode import (
    DecodingStrategy,
    EveStrategy,
    FINAL_ABSTAIN,
    FINAL_ME,
    QkdReport,
    SchmidtState,
    SimulationReport,
    StagePlan,
    analytic_qkd_error,
    cli,
    mutual_info_me,
    run_simulation,
)
from densecode import protocol_sim
from densecode.channel import COEFF_TOL, check_coeffs
from densecode.infometrics import multistage_bits
from densecode.protocol_sim import MAX_RUN_TERMS, MAX_TREE_CELLS

from conftest import simplex_grid


def run_cli(argv, cwd):
    """The CLI in a process of its own, so that its whole standard output and
    error are captured, numpy warnings included."""
    src = str(Path(densecode.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "densecode.cli", *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )


def read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("sweep-me", "sweep-sep", "sweep-multistage", "montecarlo", "qkd"):
        assert name in out


def test_invalid_flag_exits_nonzero_without_output(tmp_path, capsys):
    out = tmp_path / "never.csv"
    # Each command takes only the flags it reads.
    for argv in (
        ["sweep-me", "--bogus-flag"],
        ["sweep-me", "--xi-steps", "4"],
        ["sweep-me", "--grid", "abc"],
        ["sweep-sep", "--d1", "5"],
        ["sweep-sep", "--grid", "7"],
        ["sweep-multistage", "--trials", "10"],
        ["montecarlo", "--d1", "3", "--d2", "3", "--grid", "7"],
        ["montecarlo", "--margin", "0.01"],
        ["qkd", "--xi-steps", "4"],
        ["qkd", "--d2", "3"],
        # The inert --threads flag is gone from every command.
        ["sweep-me", "--threads", "2"],
        ["sweep-sep", "--threads", "2"],
        ["sweep-multistage", "--threads", "2"],
        ["montecarlo", "--threads", "2"],
        ["qkd", "--threads", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(out)])
        # argparse refuses the flag: exit code 2, after its usage line.
        assert exc.value.code == 2, argv
        assert not out.exists()
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1, argv


def test_unwritable_path_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    rc = cli.main(["sweep-sep", "--xi-steps", "2", "--out", str(out)])
    assert rc != 0
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("montecarlo", {"strategy": {"kind": "multistage", "stages": [1.0]}}, "stages"),
        ("montecarlo", {"state": [1, 2]}, "state"),
        ("montecarlo", {"strategy": ["me"]}, "strategy"),
        ("montecarlo", {"trails": 5}, "trails"),
        ("qkd", {"eve": {"kind": "bogus"}}, "bogus"),
        ("qkd", {"eve": {"kind": "intercept"}}, "strategy"),
        ("qkd", {"eve": "absent"}, "eve"),
        ("qkd", {"state": {"d1": 2, "coeffs": [0.5, 0.5]}}, "d2"),
        ("sweep-sep", {"xi_step": 4}, "xi_step"),
        ("montecarlo", {"strategy": {"kind": "sep_me", "xi": None}}, "'xi'"),
        ("montecarlo", {"strategy": {"kind": "multistage", "stages": [{"xi": "1"}]}}, "'xi'"),
        ("qkd", {"state": {"d1": None, "d2": 2, "coeffs": [0.2, 0.8]}}, "'d1'"),
        ("montecarlo", {"state": {"d1": 2.9, "d2": 2, "coeffs": [0.6, 0.8]}}, "'d1'"),
        ("montecarlo", {"state": {"d1": 2, "d2": True, "coeffs": [0.6, 0.8]}}, "'d2'"),
        ("qkd", {"state": {"d1": 2, "d2": 2, "coeffs": [None, 1.0]}}, "finite"),
        ("qkd", {"trials": None}, "'trials'"),
        ("sweep-me", {"grid": 2.5}, "'grid'"),
        ("sweep-sep", {"xi_steps": "4"}, "'xi_steps'"),
        ("montecarlo", {"seed": 2**64}, "seed 18446744073709551616"),
        ("qkd", {"seed": 2**64}, "seed 18446744073709551616"),
        ("qkd", {"seed": -1}, "seed -1"),
        ("montecarlo", {"trials": 2**63}, "trial count 9223372036854775808"),
        ("qkd", {"trials": 2**63}, "trial count 9223372036854775808"),
        ("qkd", {"trials": 0}, "trial count 0"),
        # The CSV or the JSON sidecar over the config file.
        ("montecarlo", {"out": "config.json"}, "overwrite the config"),
        ("montecarlo", {"out": "config.csv"}, "overwrite the config"),
        ("qkd", {"out": "config.csv"}, "overwrite the config"),
        ("sweep-sep", {"out": "config.json"}, "overwrite the config"),
        # The JSON report beside --out x.json is x.json itself.
        ("montecarlo", {"out": "x.json"}, "would overwrite the CSV output"),
        ("qkd", {"out": "x.json"}, "would overwrite the CSV output"),
        ("sweep-me", {"threads": 2}, "unknown config key 'threads'"),
        ("sweep-sep", {"threads": 2}, "unknown config key 'threads'"),
        ("sweep-multistage", {"threads": 2}, "unknown config key 'threads'"),
        ("montecarlo", {"threads": 2}, "unknown config key 'threads'"),
        ("qkd", {"threads": 2}, "unknown config key 'threads'"),
        # Nested objects name the keys their kind does not read.
        ("montecarlo", {"strategy": {"kind": "me", "xi": 0.5}}, "unknown me strategy key 'xi'"),
        ("montecarlo", {"strategy": {"kind": "me", "stages": [{"xi": 1}]}}, "unknown me strategy key 'stages'"),
        ("montecarlo", {"strategy": {"kind": "sep_me", "final": "me"}}, "unknown sep_me strategy key 'final'"),
        (
            "montecarlo",
            {"strategy": {"kind": "multistage", "stages": [{"xi": 1}], "xi": 0.5}},
            "unknown multistage strategy key 'xi'",
        ),
        (
            "montecarlo",
            {"strategy": {"kind": "multistage", "stages": [{"xi": 1, "final": "me"}]}},
            "unknown stage key 'final'",
        ),
        (
            "qkd",
            {"eve": {"kind": "absent", "strategy": {"kind": "me"}, "fallback": "coin"}},
            "unknown absent eve key 'fallback', 'strategy'",
        ),
        (
            "qkd",
            {"eve": {"kind": "intercept", "strategy": {"kind": "me"}, "guess": "me"}},
            "unknown intercept eve key 'guess'",
        ),
        (
            "qkd",
            {"eve": {"kind": "intercept", "strategy": {"kind": "sep_me", "xi": 0.5, "stages": []}}},
            "unknown sep_me strategy key 'stages'",
        ),
        (
            "montecarlo",
            {"state": {"d1": 2, "d2": 2, "coeffs": [0.2, 0.8], "sqared": True}},
            "unknown state key 'sqared'",
        ),
        ("sweep-sep", {"state": {"d1": 2, "d2": 2, "coeffs": [0.6, 0.8], "rank": 2}}, "unknown state key 'rank'"),
        # "squared" is a JSON boolean; "no" once squared the coefficients.
        *(
            ("montecarlo", {"state": {"d1": 2, "d2": 2, "coeffs": [0.36, 0.64], "squared": flag}}, "'squared'")
            for flag in ("no", 1, None)
        ),
        # "coeffs" is a list of JSON numbers; true once read as 1.0.
        *(
            (command, {"state": {"d1": 2, "d2": 2, "coeffs": coeffs}}, "'coeffs'")
            for command in ("montecarlo", "qkd", "sweep-sep")
            for coeffs in ({"a": 1}, [0.6, "x"], [0.6, True], "abc", None)
        ),
        # Every integer setting takes its flag's type.
        ("sweep-sep", {"xi_steps": 2.5}, "'xi_steps' must be an integer"),
        ("montecarlo", {"trials": 10.5}, "'trials' must be an integer"),
        ("qkd", {"seed": 1.5}, "'seed' must be an integer"),
        ("sweep-me", {"d1": 2.5}, "'d1' must be an integer"),
        ("sweep-multistage", {"d2": 3.5}, "'d2' must be an integer"),
    ],
)
def test_bad_config_fails_cleanly(command, config, key, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    # A case's "out" key names the --out path too (the flag overrides the key).
    out = tmp_path / config.get("out", "never.csv")
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    assert json.loads(path.read_text()) == config


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["sweep-me", "--margin", "0.5"], None, "margin too large for this rank"),
        (["sweep-sep", "--config", "missing.json"], None, "cannot read config missing.json: "),
        (["sweep-sep"], [], "config file must hold a JSON object"),
        (["sweep-sep"], {"out": 3}, "'out' must be a file path, not 3"),
        (["sweep-multistage", "--d1", "2", "--d2", "2"], None, "this sweep needs Schmidt rank >= 3"),
        (["sweep-sep", "--xi-steps", "0"], None, "xi_steps must be >= 1"),
        (["montecarlo"], {"strategy": {"kind": "multistage", "final": "x"}}, "final_action must be 'me' or 'abstain'"),
        (["qkd"], {"state": {"d1": 2, "d2": 2, "coeffs": [1.0]}}, "sifting requires channel rank >= 2"),
        (["montecarlo"], {"state": {"d1": 0, "d2": 2, "coeffs": [1.0]}}, "subsystem dimensions must be positive"),
        (
            ["sweep-sep"],
            {"state": {"d1": 2, "d2": 2, "coeffs": [-0.2, 1.2], "squared": True}},
            "squared coefficients must be nonnegative",
        ),
        # Raw text: an integer past the str-to-int digit limit, which json.dumps cannot render.
        pytest.param(
            ["sweep-me"],
            '{"grid": 1' + "0" * 5000 + "}",
            "cannot read config config.json: Exceeds the limit",
            id="integer-past-the-digit-limit",
        ),
        # The smallest coefficient of a rank-3 lattice, sqrt(1e-30), lies below COEFF_TOL.
        pytest.param(
            ["sweep-me", "--margin", "1e-30"],
            None,
            "boundary margin must be at least 1e-24 at rank 3, not 1e-30\n",
            id="sweep-me-margin-below-the-floor",
        ),
        pytest.param(
            ["sweep-multistage", "--margin", "1e-30"],
            None,
            "boundary margin must be at least 1e-24 at rank 3, not 1e-30\n",
            id="sweep-multistage-margin-below-the-floor",
        ),
    ],
)
def test_error_paths_print_one_line_and_write_nothing(argv, config, message, tmp_path, monkeypatch, capsys):
    # No --out: each command would write its default files into the working directory.
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "config.json").write_text(config if isinstance(config, str) else json.dumps(config))
        argv = [*argv, "--config", "config.json"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if config is None else ["config.json"])


@pytest.mark.parametrize("command", ["montecarlo", "qkd"])
@pytest.mark.parametrize("seed", [2**64, -1])
def test_seed_flag_outside_u64_fails_cleanly(command, seed, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert cli.main([command, "--seed", str(seed), "--trials", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"seed {seed} " in err
    assert not out.exists() and not out.with_suffix(".json").exists()


@pytest.mark.parametrize("command", ["montecarlo", "qkd"])
def test_trials_flag_outside_signed_64_bits_fails_cleanly(command, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert cli.main([command, "--trials", str(2**63), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: trial count {2**63} outside [1, 2**63)\n"
    assert not out.exists() and not out.with_suffix(".json").exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("sweep-me", {"grid": 3}),
        ("sweep-sep", {"xi_steps": 2}),
        ("sweep-multistage", {"grid": 3}),
        ("montecarlo", {"trials": 100}),
        ("qkd", {"trials": 100}),
    ],
)
def test_non_string_out_config_fails_before_writing(command, config, tmp_path):
    # No --out flag: the flag overrides the config value. An int `out` would
    # be taken by open() as a file descriptor, so the CLI runs in its own
    # process and must write nothing to its standard output either.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "out": 1}))
    result = run_cli([command, "--config", str(path)], tmp_path)
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("error:") and "'out'" in result.stderr
    assert result.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command", ["montecarlo", "qkd", "sweep-sep"])
def test_overflowing_coeffs_fail_with_one_line(command, tmp_path):
    # Squaring 1e308 overflows; numpy's RuntimeWarning would print two lines
    # before the error.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"state": {"d1": 2, "d2": 2, "coeffs": [1e308, 1e308]}}))
    result = run_cli([command, "--config", str(path), "--out", "never.csv"], tmp_path)
    assert result.returncode == 1
    assert result.stderr == "error: squared Schmidt coefficients must sum to 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


#: The modules that hold the physics; cli alone reads and writes file formats.
DOMAIN_MODULES = ("channel", "discrimination", "infometrics", "protocol_sim", "qkd")


def test_cli_alone_reads_and_writes_file_formats():
    for name in DOMAIN_MODULES:
        module = importlib.import_module(f"densecode.{name}")
        tree = ast.parse(Path(module.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
        assert "json" not in imported, name
        assert "csv" not in imported, name
        assert not {"_is_real", "config_number", "check_keys"} & set(vars(module)), name
    for cls in (SchmidtState, DecodingStrategy, EveStrategy, SimulationReport, QkdReport):
        for method in ("from_dict", "to_json", "counts_dict"):
            assert not hasattr(cls, method), f"{cls.__name__}.{method}"


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["sweep-me", "--d1", "8", "--d2", "8", "--grid", "100000"], math.comb(100007, 7)),
        (["sweep-multistage", "--d1", "8", "--d2", "8", "--grid", "100000"], math.comb(100007, 7)),
        (["sweep-sep", "--xi-steps", "10000000000"], 10000000001),
        (["sweep-me", "--d1", "1000", "--d2", "1000", "--grid", "2", "--margin", "1e-4"], 500500),
        (["sweep-multistage", "--d1", "8", "--d2", "8", "--grid", "16"], 245157),
    ],
)
def test_oversized_sweep_fails_before_allocating(argv, rows, tmp_path, capsys):
    # Unchecked, the first would allocate 37 GiB, the third 74 GiB and the
    # fourth 4 GB; the last two have fewer than 10**6 rows.
    out = tmp_path / "never.csv"
    assert cli.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"sweep of {rows} x " in err
    assert f"coefficients exceeds the limit of {cli.MAX_SWEEP_COEFFS}" in err
    assert not out.exists()


@pytest.mark.parametrize("d2", [10**5, 10**13])
def test_oversized_run_fails_before_allocating(d2, tmp_path, capsys):
    # Unchecked, d2 = 10**5 ran for 19 s on a 2-core VM and d2 = 10**13 ended in
    # numpy's _ArrayMemoryError traceback.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"state": {"d1": 2, "d2": d2, "coeffs": [0.6, 0.8]}}))
    start = time.perf_counter()
    assert cli.main(["montecarlo", "--config", str(path), "--out", str(tmp_path / "never.csv")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"error: run of {4 * d2**2} information terms exceeds the limit of {MAX_RUN_TERMS}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_run_limit_is_inclusive():
    # The deepest plan at rank 64 and d2 = 64 takes 64 * 64 * 64 * 64**2 terms;
    # the maximally entangled state ends its walk at the first, sure stage.
    deep = DecodingStrategy.multistage(StagePlan((1.0,) * 63, FINAL_ME))
    squared = np.full(64, 1 / 64)
    assert 64**5 == MAX_RUN_TERMS
    assert run_simulation(SchmidtState.from_squared(64, 64, squared), deep, 1, seed=0).n_trials == 1
    with pytest.raises(ValueError, match=f"run of {64**3 * 65**2} information terms exceeds"):
        run_simulation(SchmidtState.from_squared(64, 65, squared), deep, 1, seed=0)


def test_oversized_tree_fails_before_allocating(tmp_path, capsys):
    # Unchecked, a tree of this size (256**3 cells) peaked near 700 MiB.
    squared = np.arange(1, 257) / (256 * 257 / 2)
    plan = {"kind": "multistage", "stages": [{"xi": 1.0}] * 255, "final": "abstain"}
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "state": {"d1": 256, "d2": 256, "coeffs": squared.tolist(), "squared": True},
                "eve": {"kind": "intercept", "strategy": plan, "fallback": "uniform"},
                "trials": 1000,
            }
        )
    )
    start = time.perf_counter()
    assert cli.main(["qkd", "--config", str(path), "--out", str(tmp_path / "never.csv")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"error: branch tree of {256**3} cells exceeds the limit of {MAX_TREE_CELLS}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_tree_limit_is_inclusive(monkeypatch, qubit_state):
    # A qubit sep_me tree with a uniform guess: 2 rows by 2 stage records and 2 guesses.
    eve = EveStrategy.intercept(DecodingStrategy.sep_me(0.5))
    monkeypatch.setattr(protocol_sim, "MAX_TREE_CELLS", 8)
    assert analytic_qkd_error(qubit_state.coeffs, eve) >= 0.0
    monkeypatch.setattr(protocol_sim, "MAX_TREE_CELLS", 7)
    with pytest.raises(ValueError, match="branch tree of 8 cells exceeds the limit of 7"):
        analytic_qkd_error(qubit_state.coeffs, eve)


def test_program_errors_are_not_caught(tmp_path, monkeypatch):
    # Every config error raises ValueError or RuntimeError; a KeyError is a bug.
    def broken(*args, **kwargs):
        raise KeyError("name")

    monkeypatch.setattr(cli, "run_simulation", broken)
    with pytest.raises(KeyError, match="name"):
        cli.main(["montecarlo", "--out", str(tmp_path / "never.csv")])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rank", [20000, 300000])
def test_oversized_lattice_is_refused_quickly(rank, tmp_path, capsys):
    # math.comb of the row count took 4.4 s at rank 300,000, and at rank 20,000
    # its 12,000 digits could not be printed, which ended in another error.
    out = tmp_path / "never.csv"
    argv = ["sweep-multistage", "--d1", str(rank), "--d2", str(rank), "--grid", str(rank), "--margin", "1e-9"]
    start = time.perf_counter()
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    limit = cli.MAX_SWEEP_COEFFS
    assert capsys.readouterr().err == f"error: sweep of more than 10^40 x {rank} coefficients exceeds the limit of {limit}\n"
    assert not out.exists()


def test_lattice_rows_are_counted_exactly_up_to_10_to_the_40():
    # A rank-2 lattice has resolution + 1 rows.
    with pytest.raises(ValueError, match=f"^sweep of {10**40} x 2 coefficients exceeds"):
        simplex_grid(2, 10**40 - 1, 1e-3)
    with pytest.raises(ValueError, match=r"^sweep of more than 10\^40 x 2 coefficients exceeds"):
        simplex_grid(2, 10**40, 1e-3)


def test_sweep_row_limit_is_inclusive():
    cli._check_size(cli.MAX_SWEEP_COEFFS // 8, 8)
    with pytest.raises(ValueError, match=f"sweep of {cli.MAX_SWEEP_COEFFS // 8 + 1} x 8 coefficients"):
        cli._check_size(cli.MAX_SWEEP_COEFFS // 8 + 1, 8)
    # The largest lattice in use stays inside the limit.
    assert math.comb(12 + 7, 7) * 8 < cli.MAX_SWEEP_COEFFS


class TestSweepMe:
    def test_header_centroid_and_formatting(self, tmp_path):
        out = tmp_path / "me.csv"
        assert cli.main(["sweep-me", "--grid", "12", "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert header == ["a0", "a1", "I_bits"]
        best = max(rows, key=lambda r: float(r[2]))
        assert abs(float(best[0]) - 3**-0.5) < 1e-6
        assert abs(float(best[2]) - math.log2(12)) < 1e-6
        for row in rows:
            value = float(row[2])
            assert 2.0 - 1e-9 <= value <= math.log2(12) + 1e-9
            for cell in row:
                assert cell == f"{float(cell):.9g}"

    def test_margin_corners_reach_product_floor(self, tmp_path):
        out = tmp_path / "me.csv"
        cli.main(["sweep-me", "--grid", "12", "--out", str(out)])
        _, rows = read_csv(str(out))
        corners = []
        for row in rows:
            q0, q1 = float(row[0]) ** 2, float(row[1]) ** 2
            if max(q0, q1, 1 - q0 - q1) >= 1 - 2 * 1e-3 - 1e-9:
                corners.append(float(row[2]))
        assert len(corners) == 3
        assert all(abs(v - 2.0) <= 0.02 for v in corners)

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.main(["sweep-me", "--grid", "9", "--out", str(a)])
        cli.main(["sweep-me", "--grid", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSweepSep:
    def test_endpoints(self, tmp_path):
        out = tmp_path / "sep.csv"
        assert cli.main(["sweep-sep", "--xi-steps", "10", "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert header == ["xi", "P_s", "I_total", "I_success", "I_ME"]
        first, last = rows[0], rows[-1]
        assert float(first[0]) == 0.0 and float(last[0]) == 1.0
        assert abs(float(first[1]) - 1.0) < 1e-12
        assert abs(float(first[2]) - float(first[4])) < 1e-9
        assert abs(float(last[1]) - 0.4) < 1e-12
        assert abs(float(last[2]) - 1.4) < 1e-9
        assert abs(float(last[3]) - 2.0) < 1e-9

    def test_success_probability_monotone(self, tmp_path):
        out = tmp_path / "sep.csv"
        cli.main(["sweep-sep", "--xi-steps", "25", "--out", str(out)])
        _, rows = read_csv(str(out))
        p = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(p, p[1:]))


class TestSweepMultistage:
    def test_columns_and_pointwise_gains(self, tmp_path):
        out = tmp_path / "multi.csv"
        assert cli.main(["sweep-multistage", "--grid", "9", "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert header == [
            "a0",
            "a1",
            "I_MC",
            "I_MC_ME",
            "I_MC_MC",
            "I_suc1",
            "I_suc2",
            "I_ME",
            "P_s1",
            "P_overall",
        ]
        for row in rows:
            vals = dict(zip(header, (float(x) for x in row)))
            assert abs(vals["I_suc1"] - math.log2(12)) < 1e-9
            assert vals["I_MC_ME"] >= vals["I_MC"] - 1e-9
            assert vals["I_MC_MC"] >= vals["I_MC"] - 1e-9
            if vals["I_ME"] < vals["I_suc2"]:
                assert vals["P_overall"] > vals["P_s1"]
            else:
                assert abs(vals["P_overall"] - vals["P_s1"]) < 1e-12

    def test_degenerate_rows_floor_to_target_bits(self, tmp_path):
        out = tmp_path / "multi.csv"
        cli.main(["sweep-multistage", "--grid", "9", "--out", str(out)])
        header, rows = read_csv(str(out))
        degenerate = [
            row
            for row in rows
            if abs(float(row[0]) - float(row[1])) < 1e-9
            and float(row[0]) ** 2 < 1 - 2 * float(row[0]) ** 2
        ]
        assert degenerate
        for row in degenerate:
            assert abs(float(row[6]) - 2.0) < 1e-9


class TestMonteCarloCommand:
    def test_summary_within_bounds_and_deterministic(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "state": {"d1": 2, "d2": 2, "coeffs": [0.2, 0.8], "squared": True},
                    "strategy": {"kind": "sep_me", "xi": 1.0},
                }
            )
        )
        out = tmp_path / "mc.csv"
        rc = cli.main(
            ["montecarlo", "--config", str(config), "--trials", "30000", "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_csv(str(out))
        assert header == ["quantity", "empirical", "analytic", "abs_delta", "bound"]
        quantities = [row[0] for row in rows]
        assert "stage1_success_rate" in quantities
        assert "mutual_info_bits" in quantities
        for row in rows:
            assert float(row[3]) <= float(row[4]) + 1e-12
        report = json.loads((tmp_path / "mc.json").read_text())
        assert report["n_trials"] == 30000
        again = tmp_path / "mc2.csv"
        cli.main(
            ["montecarlo", "--config", str(config), "--trials", "30000", "--seed", "5", "--out", str(again)]
        )
        assert out.read_bytes() == again.read_bytes()
        assert (tmp_path / "mc.json").read_bytes() == (tmp_path / "mc2.json").read_bytes()

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trials": 50, "seed": 1}))
        out = tmp_path / "mc.csv"
        rc = cli.main(
            ["montecarlo", "--config", str(config), "--trials", "120", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "mc.json").read_text())
        assert report["n_trials"] == 120
        assert report["seed"] == 1


class TestQkdCommand:
    def test_absent_run_has_zero_errors(self, tmp_path):
        out = tmp_path / "qkd.csv"
        rc = cli.main(["qkd", "--trials", "20000", "--seed", "2", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(str(out))
        row = dict(zip(header, rows[0]))
        assert float(row["error_rate"]) == 0.0
        assert float(row["error_rate_analytic"]) == 0.0
        assert abs(float(row["sift_rate"]) - 0.4) <= float(row["sift_rate_3sigma"])
        assert (tmp_path / "qkd.json").exists()

    def test_eavesdropper_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "state": {"d1": 2, "d2": 2, "coeffs": [0.2, 0.8], "squared": True},
                    "eve": {"kind": "intercept", "strategy": {"kind": "me"}},
                }
            )
        )
        out = tmp_path / "qkd.csv"
        rc = cli.main(
            ["qkd", "--config", str(config), "--trials", "50000", "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_csv(str(out))
        row = dict(zip(header, rows[0]))
        assert abs(float(row["error_rate_analytic"]) - 0.1) < 1e-9
        assert abs(float(row["error_rate"]) - 0.1) <= float(row["error_rate_3sigma"])


def test_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("DENSECODE_THREADS", "2")
    out = tmp_path / "env.csv"
    assert cli.main(["sweep-sep", "--xi-steps", "4", "--out", str(out)]) == 0
    reference = tmp_path / "ref.csv"
    monkeypatch.delenv("DENSECODE_THREADS")
    cli.main(["sweep-sep", "--xi-steps", "4", "--out", str(reference)])
    assert out.read_bytes() == reference.read_bytes()


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of length `parts` summing to `total`,
    in lexicographic order (the recursive reference for simplex_grid)."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _reference_grid(rank: int, resolution: int, margin: float) -> np.ndarray:
    scale = 1.0 - rank * margin
    return np.array(
        [[margin + (k / resolution) * scale for k in combo] for combo in _compositions(resolution, rank)]
    )


#: (resolution, margin, rank): ranks 1-6 at four grids, and ranks 7 and 8, the
#: largest sweeps, at the grids whose reference stays small.
_LATTICES = [
    (res, margin, rank) for res, margin in [(2, 1e-3), (5, 0.01), (12, 1e-3), (13, 0.05)] for rank in range(1, 7)
]
_LATTICES += [(res, margin, rank) for res, margin in [(2, 1e-3), (5, 0.01)] for rank in (7, 8)]


@pytest.mark.parametrize("resolution, margin, rank", _LATTICES)
def test_simplex_grid_matches_recursive_compositions(rank, resolution, margin):
    grid = simplex_grid(rank, resolution, margin)
    reference = _reference_grid(rank, resolution, margin)
    assert grid.shape == reference.shape == (math.comb(resolution + rank - 1, rank - 1), rank)
    assert grid.tobytes() == reference.tobytes()


@pytest.mark.parametrize("resolution, margin, rank", [*_LATTICES, (12, 1e-24, 4)])
def test_lattice_levels_by_code_match_the_reference(rank, resolution, margin):
    levels, codes = cli._lattice(rank, resolution, margin)
    assert codes.dtype == np.uint8
    assert np.sqrt(levels)[codes].tobytes() == np.sqrt(_reference_grid(rank, resolution, margin)).tobytes()
    # A sweep hands its lattice to the figures unchecked: every row is a valid state by construction.
    coeffs = check_coeffs(np.sqrt(levels)[codes])
    assert coeffs.min() >= COEFF_TOL


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-me", "--margin", "1e-24", "--grid", "4"],
        ["sweep-multistage", "--margin", "1e-24", "--grid", "4"],
        ["sweep-me", "--d1", "1", "--d2", "1", "--margin", "1e-30"],
    ],
)
def test_sweeps_at_the_margin_floor_still_run(argv, tmp_path):
    # Rank 3 at the floor itself, and rank 1, whose one point never uses the margin's level.
    out = tmp_path / "sweep.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert rows and all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize("resolution, dtype", [(255, np.uint8), (256, np.uint16), (65536, np.uint32)])
def test_lattice_codes_take_the_smallest_unsigned_dtype(resolution, dtype):
    levels, codes = cli._lattice(2, resolution, 1e-6)
    assert codes.dtype == dtype and levels.shape == (resolution + 1,)
    assert codes[:, 0].tolist() == list(range(resolution + 1)) and (codes.sum(axis=1) == resolution).all()


def test_rank1_sweep_is_one_point_at_any_grid(tmp_path):
    # The one point has share 1, so its lattice needs two levels, not grid + 1:
    # a 31-digit grid ended in a traceback when the levels were built for it.
    texts = []
    for grid in (2, 10**30):
        out = tmp_path / f"rank1_{grid}.csv"
        assert cli.main(["sweep-me", "--d1", "1", "--d2", "3", "--grid", str(grid), "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts == [f"I_bits\r\n{math.log2(3):.9g}\r\n".encode()] * 2


def test_rank8_sweep_me(tmp_path):
    # Batched sweeps make a rank-8 lattice practical: 50,388 points.
    out = tmp_path / "rank8.csv"
    assert cli.main(["sweep-me", "--d1", "8", "--d2", "8", "--grid", "12", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == [f"a{i}" for i in range(7)] + ["I_bits"]
    assert len(rows) == math.comb(12 + 7, 7) == 50388
    grid = simplex_grid(8, 12, 1e-3)
    for r in (0, 20151, len(rows) - 1):
        state = SchmidtState.from_squared(8, 8, grid[r])
        expected = [float(c) for c in state.coeffs[:7]] + [mutual_info_me(state).total_bits]
        assert rows[r] == [f"{v:.9g}" for v in expected]


@pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf])
def test_simplex_grid_rejects_non_finite_margin(margin):
    with pytest.raises(ValueError, match=f"boundary margin must be positive and finite, not {margin!r}"):
        simplex_grid(3, 12, margin)


@pytest.mark.parametrize("command", ["sweep-me", "sweep-multistage"])
def test_nan_margin_flag_fails_naming_the_margin(command, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert cli.main([command, "--margin", "nan", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: boundary margin must be positive and finite, not nan\n"
    assert not out.exists()


def test_simplex_grid_properties():
    grid = simplex_grid(3, 12, 1e-3)
    assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-12)
    assert grid.min() >= 1e-3 - 1e-15
    centroid = np.full(3, 1 / 3)
    assert np.min(np.abs(grid - centroid).sum(axis=1)) < 1e-12
    with pytest.raises(ValueError):
        simplex_grid(3, 1, 1e-3)
    with pytest.raises(ValueError):
        simplex_grid(3, 12, 0.0)
    with pytest.raises(ValueError):
        simplex_grid(0, 12, 1e-3)


def _csv_writer_bytes(header, rows) -> bytes:
    """The reference: csv.writer over cells formatted one at a time."""

    def fmt(value):
        return f"{value:.9g}" if isinstance(value, float) else str(value)

    with io.StringIO(newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[fmt(v) for v in row] for row in rows])
        return fh.getvalue().encode()


def test_write_csv_matches_csv_writer():
    rng = np.random.default_rng(3)
    rows = np.column_stack([rng.random((50, 3)), 10.0 ** rng.integers(-20, 20, 50)]).tolist()
    rows += [
        ["intercept(me, fallback=uniform)", 7, np.int64(2**40), 1e-300, float("nan")],
        ['say "hi"', "a\nb", "c\rd", None, True, np.float64(0.1), -0.0, float("inf")],
        [12345678901, 0.5, "plain", ""],
        [],
        ["", ""],
    ]
    header = ["a0", "label, with comma", "I_bits"]
    assert cli._csv_text([header, *rows]).encode() == _csv_writer_bytes(header, rows)


#: Cells whose text is easy to get wrong: signed zeros, NaN, infinities, the
#: smallest subnormal, and magnitudes where %g switches to exponent form.
_AWKWARD = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-300, 1e-5, 1e-4, 1e16, 123456789.5]


def _awkward_table(rows: int, seed: int = 5) -> np.ndarray:
    """A lattice-like column of few distinct values, awkward cells, values
    spanning 10^+-20, and random floats with no repeats."""
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [
            rng.integers(0, 13, rows) / 13,
            rng.choice(_AWKWARD, rows),
            rng.random(rows) * 10.0 ** rng.integers(-20, 21, rows),
            -rng.random(rows),
        ]
    )


@pytest.mark.parametrize("rows", [1, 8191, 8192, 8193, 20000])
def test_write_table_matches_csv_writer(rows):
    table = _awkward_table(rows)
    # The header goes through csv.writer; this one needs quoting.
    header = ["a0", 'awkward, "quoted"', "I_bits", "negative"]
    assert cli._table_text(header, list(table.T)).encode() == _csv_writer_bytes(header, table.tolist())


def test_write_table_keeps_signed_zeros_and_strided_views_apart():
    table = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [math.nan, -math.nan, 2.0]] * 3)
    text = cli._table_text(["x", "y", "z"], list(table.T)).encode()
    assert text.splitlines()[1:4] == [b"0,-0,1", b"-0,0,1", b"nan,nan,2"]
    for view in (table[:, ::2], table.T.copy().T, table[::-1]):
        header = ["x", "y", "z"][: view.shape[1]]
        assert cli._table_text(header, list(view.T)).encode() == _csv_writer_bytes(header, view.tolist())


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    table=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        elements=st.floats(width=64) | st.sampled_from(_AWKWARD),
    ),
    block=st.integers(1, 5),
)
def test_write_table_matches_csv_writer_on_any_table(table, block):
    # Small blocks, so most examples join several blocks.
    header = [f"c{i}" for i in range(table.shape[1])]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BLOCK_ROWS", block)
        text = cli._table_text(header, list(table.T))
    assert text.encode() == _csv_writer_bytes(header, table.tolist())


@st.composite
def mixed_columns(draw):
    """(rows, columns): 1-6 columns in any order, each a lattice column
    (levels, codes), some sharing one levels array, or a float column whose
    cells come from a pool shared by all float columns, so that columns share
    bit patterns (signed zeros, NaN, repeats)."""
    rows = draw(st.integers(1, 12))
    floats = st.floats(width=64) | st.sampled_from(_AWKWARD)
    pool = draw(st.lists(floats, min_size=1, max_size=8))
    shared = np.array(draw(st.lists(floats, min_size=1, max_size=6)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["figure", "lattice", "shared levels"]), min_size=1, max_size=6)):
        if kind == "figure":
            columns.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))))
            continue
        levels = shared if kind == "shared levels" else np.array(draw(st.lists(floats, min_size=1, max_size=6)))
        codes = draw(st.lists(st.integers(0, levels.size - 1), min_size=rows, max_size=rows))
        columns.append((levels, np.array(codes, dtype=np.uint8)))
    return rows, columns


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(table=mixed_columns(), block=st.integers(1, 5))
def test_mixed_lattice_and_float_columns_match_csv_writer(table, block):
    rows, columns = table
    header = [f"c{i}" for i in range(len(columns))]
    cells = [c[0][c[1]] if isinstance(c, tuple) else c for c in columns]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BLOCK_ROWS", block)
        text = cli._table_text(header, columns)
    assert text.encode() == _csv_writer_bytes(header, np.column_stack(cells).reshape(rows, -1).tolist())


def test_sweep_sep_across_blocks_matches_csv_writer(tmp_path, monkeypatch):
    written = []
    table_text = cli._table_text

    def capture(header, columns):
        written.append((header, np.column_stack(columns)))
        return table_text(header, columns)

    monkeypatch.setattr(cli, "_table_text", capture)
    out = tmp_path / "sep.csv"
    assert cli.main(["sweep-sep", "--xi-steps", "20000", "--out", str(out)]) == 0
    (header, table), = written
    assert table.shape == (20001, 5) and len(table) > 2 * cli._BLOCK_ROWS
    assert out.read_bytes() == _csv_writer_bytes(header, table.tolist())


@pytest.mark.parametrize(
    "state",
    [
        cli._DEFAULT_STATE,
        {"d1": 4, "d2": 5, "coeffs": [0.1, 0.1, 0.3, 0.5], "squared": True},  # a tied minimum
        {"d1": 1, "d2": 3, "coeffs": [1.0]},  # rank 1: the stage never runs
    ],
)
def test_sweep_sep_columns_match_the_scalar_plan(state):
    """Each sweep-sep row equals, bit for bit, multistage_bits of its one-stage
    plan at that row's xi and me_bits of the state."""
    args = cli._build_parser().parse_args(["sweep-sep", "--xi-steps", "40"])
    header, columns = cli._cmd_sweep_sep(args, {"state": state})
    assert header == ["xi", "P_s", "I_total", "I_success", "I_ME"]
    xi, p_s, total, success, i_me = columns
    s = cli._parse_state(state)
    assert xi.tobytes() == (np.arange(41) / 40).tobytes()
    assert i_me.tobytes() == np.full(41, cli.me_bits(s.coeffs, s.d2)).tobytes()
    for r, x in enumerate(xi.tolist()):
        expected_total, (expected_p,), (expected_success,) = multistage_bits(s.coeffs, s.d2, (x,), FINAL_ABSTAIN)
        row = np.array([p_s[r], total[r], success[r]])
        assert row.tobytes() == np.array([expected_p, expected_total, expected_success]).tobytes(), x
    if s.D == 1:
        assert (p_s == 0.0).all() and (total == math.log2(3)).all() and (success == math.log2(3)).all()


def test_lattice_columns_across_blocks_match_csv_writer(tmp_path, monkeypatch):
    written = []
    table_text = cli._table_text

    def capture(header, columns):
        written.append((header, columns))
        return table_text(header, columns)

    monkeypatch.setattr(cli, "_table_text", capture)
    out = tmp_path / "rank8.csv"
    assert cli.main(["sweep-me", "--d1", "8", "--d2", "8", "--grid", "12", "--out", str(out)]) == 0
    (header, columns), = written
    assert [isinstance(column, tuple) for column in columns] == [True] * 7 + [False]
    table = np.column_stack([c[0][c[1]] if isinstance(c, tuple) else c for c in columns])
    assert table.shape == (50388, 8) and len(table) > 6 * cli._BLOCK_ROWS
    assert table[:, :7].tobytes() == np.sqrt(simplex_grid(8, 12, 1e-3))[:, :7].copy().tobytes()
    assert out.read_bytes() == _csv_writer_bytes(header, table.tolist())


def test_lattice_columns_are_not_deduplicated(tmp_path, monkeypatch):
    # One sweep-me block of 2,380 rows: np.unique sees its figure column I_bits
    # only, never a lattice column a0..a3.
    seen = []
    unique = np.unique

    def spy(values, *args, **kwargs):
        seen.append(np.array(values))
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    assert cli.main(["sweep-me", "--d1", "5", "--d2", "5", "--grid", "13", "--out", str(tmp_path / "me.csv")]) == 0
    coeffs = np.sqrt(simplex_grid(5, 13, 1e-3))
    assert not any(np.array_equal(values.view(np.float64), column) for values in seen for column in coeffs.T)
    assert len(seen) == 1 and np.array_equal(seen[0].view(np.float64), cli.me_bits(coeffs, 5))


@pytest.mark.parametrize("command", ["montecarlo", "qkd"])
def test_failed_report_write_leaves_no_csv(command, tmp_path, capsys):
    # The JSON report is written after the CSV; when it cannot be, the CSV goes too.
    report = tmp_path / "x.json"
    (report / "inside").mkdir(parents=True)
    assert cli.main([command, "--trials", "100", "--out", str(tmp_path / "x.csv")]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith(f"error: cannot write output file {report}:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]
    assert [p.name for p in report.iterdir()] == ["inside"]


@pytest.mark.parametrize(
    "argv, names",
    [
        (["sweep-me", "--grid", "4"], ["sweep_me.csv"]),
        (["sweep-sep", "--xi-steps", "2"], ["sweep_sep.csv"]),
        (["sweep-multistage", "--grid", "3"], ["sweep_multistage.csv"]),
        (["montecarlo", "--trials", "100"], ["montecarlo.csv", "montecarlo.json"]),
        (["qkd", "--trials", "100"], ["qkd.csv", "qkd.json"]),
    ],
)
def test_default_outputs_are_named_after_the_command(argv, names, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    if len(names) == 2:
        expected = f"wrote {names[0]} and {names[1]}\n"
    else:
        expected = f"wrote {len(read_csv(names[0])[1])} rows to {names[0]}\n"
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-me", "--grid", "4"],
        ["sweep-sep", "--xi-steps", "3"],
        ["sweep-multistage", "--grid", "3"],
        ["montecarlo", "--trials", "100"],
        ["qkd", "--trials", "100"],
    ],
    ids=lambda argv: argv[0],
)
def test_overwritten_output_keeps_no_stale_tail(argv, tmp_path, capsys):
    # Outputs are rewritten in place; each must then be cut to the new length.
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    fresh.mkdir()
    old.mkdir()
    assert cli.main([*argv, "--out", str(fresh / "x.csv")]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    for name in names:
        (old / name).write_bytes(b"stale\r\n" * (len((fresh / name).read_bytes()) // 7 + 100))
    assert cli.main([*argv, "--out", str(old / "x.csv")]) == 0
    assert sorted(p.name for p in old.iterdir()) == names
    for name in names:
        assert (old / name).read_bytes() == (fresh / name).read_bytes(), name


def test_new_output_mode_follows_the_umask(tmp_path, capsys):
    umask = os.umask(0o022)
    try:
        assert cli.main(["sweep-sep", "--xi-steps", "2", "--out", str(tmp_path / "x.csv")]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "x.csv").stat().st_mode) == 0o644


def test_outputs_are_opened_without_truncation(tmp_path, monkeypatch, capsys):
    # Truncating an existing output before writing it makes the file system
    # free its blocks and allocate them again; the write cuts it afterwards.
    calls = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        calls.append((os.fspath(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    out = tmp_path / "x.csv"
    for _ in range(2):  # a new output, then one that exists
        assert cli.main(["montecarlo", "--trials", "100", "--out", str(out)]) == 0
    outputs = [(path, flags) for path, flags in calls if path.startswith(str(tmp_path))]
    assert [path for path, _ in outputs] == [str(out), str(tmp_path / "x.json")] * 2
    assert all(flags & os.O_TRUNC == 0 for _, flags in outputs)


def test_failed_report_write_keeps_a_fifo_output(tmp_path, capsys):
    # A FIFO output is written as a stream; when a later output fails, it stays.
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    assert cli.main(["montecarlo", "--trials", "100", "--out", str(fresh / "x.csv")]) == 0
    capsys.readouterr()
    fifo, report = tmp_path / "x.csv", tmp_path / "x.json"
    os.mkfifo(fifo)
    report.mkdir()
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert cli.main(["montecarlo", "--trials", "100", "--out", str(fifo)]) == 1
    finally:
        reader.join(timeout=10)
        if reader.is_alive() and fifo.exists():  # the FIFO was never opened for writing
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    assert not reader.is_alive()
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith(f"error: cannot write output file {report}:")
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert received == [(fresh / "x.csv").read_bytes()]
