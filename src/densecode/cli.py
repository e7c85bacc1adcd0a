"""Command-line interface: figure-reproduction sweeps, Monte Carlo runs, and
key-distribution experiments, with JSON config files and CSV output.

This module is the only one that reads or writes a file format: it parses the
config objects that name a state, a decoding strategy and an eavesdropper,
and renders the run reports as JSON. The domain modules hold the physics.

Configuration precedence: command-line flags override config-file entries,
which override built-in defaults. Output files are written only after a
command has computed all of its rows, so a failure leaves no partial file.
Floats are printed with 9 significant digits and row order is deterministic.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import numbers
import os
import sys

import numpy as np

from .channel import SchmidtState, check_coeffs
from .discrimination import FINAL_ABSTAIN, StagePlan
from .infometrics import me_bits, multistage_bits, multistage_columns
from .protocol_sim import GUESS_UNIFORM, INCONCLUSIVE, DecodingStrategy, SimulationReport, run_simulation
from .qkd import EveStrategy, analytic_sift_rate, simulate_qkd

_DEFAULT_MARGIN = 1e-3
_DEFAULT_STATE = {"d1": 2, "d2": 2, "coeffs": [0.2, 0.8], "squared": True}
#: Most coefficients (rows times rank) one sweep may hold; peak memory grows with
#: them. A rank-8 grid-14 sweep-multistage holds 930,240 and peaks near 130 MiB.
MAX_SWEEP_COEFFS = 10**6

#: Every float cell: 9 significant digits.
_FLOAT = "%.9g"
#: Rows _write_table renders at a time; each block holds its cells' text.
_BLOCK_ROWS = 8192
#: Per config object that names a kind: the noun its errors use, and the keys
#: each kind reads besides "kind".
_KINDS = {
    "strategy": ("strategy", {"me": (), "sep_me": ("xi",), "multistage": ("stages", "final")}),
    "eve": ("eavesdropper", {"absent": (), "intercept": ("strategy", "fallback")}),
}


def _csv_text(rows) -> str:
    """`rows` as csv.writer writes them, each float cell with 9 significant digits."""
    fh = io.StringIO(newline="")
    csv.writer(fh).writerows([_FLOAT % cell if isinstance(cell, float) else str(cell) for cell in row] for row in rows)
    return fh.getvalue()


def _write_csv(path: str, header, rows) -> None:
    _write_text(path, _csv_text([header, *rows]))


def _write_table(path: str, header, table: np.ndarray) -> None:
    """Write an (N, C) float64 table with _write_csv's bytes. Per block of rows,
    each distinct bit pattern of a column (so -0.0 is not 0.0) is formatted once."""

    def blocks():
        yield _csv_text([header])
        for start in range(0, len(table), _BLOCK_ROWS):
            columns = []
            for column in table[start : start + _BLOCK_ROWS].T:
                bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
                values = bits.view(np.float64).tolist()
                # One format call for the block's values; "%.9g" never writes a comma.
                text = np.array(((_FLOAT + ",") * len(values) % tuple(values)).split(",")[:-1], dtype=object)
                columns.append(text[inverse].tolist())
            yield "\r\n".join(map(",".join, zip(*columns))) + "\r\n"

    _write_text(path, "".join(blocks()))


def _write_text(path: str, text: str) -> None:
    """Write `text` as is, without newline translation, so CSV lines keep
    the CRLF ends that csv.writer writes."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write output file {path}: {exc}") from exc


def _check_size(rows: int, rank: int) -> None:
    """Fail before a sweep of `rows` states of `rank` coefficients allocates
    anything, if it would hold more than MAX_SWEEP_COEFFS coefficients."""
    if rows * rank > MAX_SWEEP_COEFFS:
        raise ValueError(f"sweep of {rows} x {rank} coefficients exceeds the limit of {MAX_SWEEP_COEFFS}")


def simplex_grid(rank: int, resolution: int, margin: float) -> np.ndarray:
    """Uniform lattice over squared coefficients, affinely shrunk so every
    coordinate stays at least `margin` from the simplex boundary (a boundary
    point would change the Schmidt rank). The centroid is on the grid whenever
    `rank` divides `resolution`.

    Rows are the nonnegative integer compositions of `resolution` into `rank`
    parts, in lexicographic order, each scaled as margin + (k / resolution) *
    (1 - rank * margin)."""
    if rank < 1:
        raise ValueError("grid rank must be >= 1")
    if resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    if not 0 < margin < math.inf:
        raise ValueError(f"boundary margin must be positive and finite, not {margin!r}")
    if rank * margin >= 1.0:
        raise ValueError("margin too large for this rank")
    _check_size(math.comb(resolution + rank - 1, rank - 1), rank)
    # Grow the compositions one part at a time: each prefix with `left` still
    # to place is followed by heads 0..left, which keeps lexicographic order.
    combos = np.zeros((1, 0), dtype=np.int64)
    left = np.array([resolution])
    for _ in range(rank - 1):
        counts = left + 1
        prefix = np.repeat(np.arange(left.size), counts)
        heads = np.arange(prefix.size) - np.repeat(np.cumsum(counts) - counts, counts)
        combos = np.column_stack([combos[prefix], heads])
        left = left[prefix] - heads
    combos = np.column_stack([combos, left])
    return margin + (combos / resolution) * (1.0 - rank * margin)


def _is_real(value) -> bool:
    """A real number, but not a bool (JSON true/false)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _config_number(obj: dict, key: str, default, integral: bool = False):
    """obj[key], or `default` when absent, as an int (`integral`) or a float;
    any other value raises ValueError naming the key."""
    value = obj.get(key, default)
    if not _is_real(value):
        raise ValueError(f"{key!r} must be a number, not {value!r}")
    if integral and not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ValueError(f"{key!r} must be an integer, not {value!r}")
    return int(value) if integral else float(value)


def _check_keys(obj: dict, allowed, where: str) -> None:
    """Raise ValueError naming every key of `obj` that is not in `allowed`."""
    unknown = sorted(set(obj) - set(allowed), key=repr)
    if unknown:
        raise ValueError(f"unknown {where} key {', '.join(map(repr, unknown))}")


def _parse_state(obj) -> SchmidtState:
    """A state from {"d1": ..., "d2": ..., "coeffs": [...], "squared": bool}."""
    if not isinstance(obj, dict):
        raise ValueError("'state' must be an object with keys d1, d2 and coeffs")
    _check_keys(obj, ("d1", "d2", "coeffs", "squared"), "state")
    missing = [key for key in ("d1", "d2", "coeffs") if key not in obj]
    if missing:
        raise ValueError(f"'state' lacks key {missing[0]!r}")
    d1 = _config_number(obj, "d1", None, integral=True)
    d2 = _config_number(obj, "d2", None, integral=True)
    coeffs = obj["coeffs"]
    if not (isinstance(coeffs, list) and coeffs and all(map(_is_real, coeffs))):
        raise ValueError(f"'coeffs' must be a nonempty list of finite numbers, not {coeffs!r}")
    squared = obj.get("squared", False)
    if not isinstance(squared, bool):
        raise ValueError(f"'squared' must be true or false, not {squared!r}")
    return (SchmidtState.from_squared if squared else SchmidtState)(d1, d2, coeffs)


def _kind(obj, key: str) -> str:
    """The kind of config object `obj` under `key`, after checking its keys against that kind."""
    noun, kinds = _KINDS[key]
    if not isinstance(obj, dict):
        raise ValueError(f"'{key}' must be an object with a 'kind'")
    kind = obj.get("kind")
    if not (isinstance(kind, str) and kind in kinds):
        raise ValueError(f"unknown {noun} kind {kind!r}")
    _check_keys(obj, ("kind", *kinds[kind]), f"{kind} {key}")
    return kind


def _parse_strategy(obj) -> DecodingStrategy:
    """A decoding strategy from {"kind": "me"}, {"kind": "sep_me", "xi": ...}
    or {"kind": "multistage", "stages": [{"xi": ...}, ...], "final": ...}."""
    kind = _kind(obj, "strategy")
    if kind == "me":
        return DecodingStrategy.me()
    if kind == "sep_me":
        return DecodingStrategy.sep_me(_config_number(obj, "xi", 1.0))
    stages = obj.get("stages", [])
    if not isinstance(stages, list) or not all(isinstance(st, dict) for st in stages):
        raise ValueError("'stages' must be a list of objects such as {\"xi\": 1.0}")
    for st in stages:
        _check_keys(st, ("xi",), "stage")
    xis = tuple(_config_number(st, "xi", 1.0) for st in stages)
    return DecodingStrategy.multistage(StagePlan(xis, obj.get("final", FINAL_ABSTAIN)))


def _parse_eve(obj) -> EveStrategy:
    """An eavesdropper from {"kind": "absent"} or {"kind": "intercept",
    "strategy": {...}, "fallback": ...}."""
    if _kind(obj, "eve") == "absent":
        return EveStrategy.absent()
    if "strategy" not in obj:
        raise ValueError("an intercepting 'eve' needs key 'strategy'")
    return EveStrategy.intercept(_parse_strategy(obj["strategy"]), obj.get("fallback", GUESS_UNIFORM))


def _nonzero_cells(counts: np.ndarray, key) -> dict:
    """The nonzero cells of a count table, keyed key(*index)."""
    cells = np.nonzero(counts)
    return {key(*index): c for *index, c in zip(*(i.tolist() for i in cells), counts[cells].tolist())}


def _report_json(report) -> str:
    """A run report as indented JSON with sorted keys: its fields but the
    branch tree, with the count table as its nonzero cells keyed by message
    and record label. A Monte Carlo report adds the per-stage success rates;
    a key-distribution report keys Eve's counts by her tree's record labels."""
    obj = {field.name: getattr(report, field.name) for field in dataclasses.fields(report) if field.name != "tree"}
    if isinstance(report, SimulationReport):
        labels = obj["outcome_labels"]
        # The system-2 outcome m, the last part of a key, always equals k.
        obj["counts"] = _nonzero_cells(obj.pop("joint_counts"), lambda j, k, r: f"{j},{k}|{labels[r]}:{k}")
        obj["empirical_success_rate"] = report.empirical_success_rate
    else:
        counts, tree = obj["eve_counts"], report.tree
        obj["eve_counts"] = {} if tree is None else _nonzero_cells(counts, lambda j, r: f"{j}|{tree.records[r]}")
    return json.dumps(obj, indent=2, sort_keys=True)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise RuntimeError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise RuntimeError("config file must hold a JSON object")
    _check_keys(obj, _CONFIG_KEYS, "config")
    return obj


def _setting(args, config: dict, key: str, default, integral: bool):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return _config_number(config, key, default, integral)


def _out_path(args, config: dict, default: str) -> str:
    out = args.out if args.out is not None else config.get("out", default)
    if not isinstance(out, str):
        raise ValueError(f"'out' must be a file path, not {out!r}")
    return _unless_config(args, out)


def _unless_config(args, path: str) -> str:
    """`path`, unless it is the config file, which an output written there would destroy."""
    if args.config and os.path.exists(path) and os.path.samefile(path, args.config):
        raise ValueError(f"output {path} would overwrite the config file {args.config}")
    return path


def _sidecar(args, out: str) -> str:
    """The JSON report path beside the CSV `out`, unless it is `out` itself
    (an `out` ending in .json) or the config file."""
    sidecar = os.path.splitext(out)[0] + ".json"
    if os.path.abspath(sidecar) == os.path.abspath(out):
        raise ValueError(f"JSON report {sidecar} would overwrite the CSV output {out}")
    return _unless_config(args, sidecar)


def _simplex_coeffs(args, config: dict, grid: int, min_rank: int = 1):
    """(d2, Schmidt coefficients of a simplex sweep, one state per row)."""
    d1 = _setting(args, config, "d1", 3, integral=True)
    d2 = _setting(args, config, "d2", 4, integral=True)
    rank = min(d1, d2)
    if rank < min_rank:
        raise RuntimeError(f"this sweep needs Schmidt rank >= {min_rank}")
    points = simplex_grid(
        rank,
        _setting(args, config, "grid", grid, integral=True),
        _setting(args, config, "margin", _DEFAULT_MARGIN, integral=False),
    )
    return d2, check_coeffs(d1, d2, np.sqrt(points))


def _cmd_sweep_me(args) -> int:
    config = _load_config(args.config)
    out = _out_path(args, config, "sweep_me.csv")
    d2, coeffs = _simplex_coeffs(args, config, 60)
    rows = np.column_stack([coeffs[:, :-1], me_bits(coeffs, d2)])
    _write_table(out, [f"a{i}" for i in range(coeffs.shape[1] - 1)] + ["I_bits"], rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_sweep_sep(args) -> int:
    config = _load_config(args.config)
    state = _parse_state(config.get("state", _DEFAULT_STATE))
    steps = _setting(args, config, "xi_steps", 50, integral=True)
    out = _out_path(args, config, "sweep_sep.csv")
    if steps < 1:
        raise RuntimeError("xi_steps must be >= 1")
    _check_size(steps + 1, state.D)
    xi = np.arange(steps + 1) / steps
    total, (p_s,), (success,) = multistage_bits(state.coeffs, state.d2, (xi,), FINAL_ABSTAIN)
    i_me = np.full(xi.size, me_bits(state.coeffs, state.d2))
    rows = np.column_stack([xi, p_s, total, success, i_me])
    _write_table(out, ["xi", "P_s", "I_total", "I_success", "I_ME"], rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_sweep_multistage(args) -> int:
    config = _load_config(args.config)
    out = _out_path(args, config, "sweep_multistage.csv")
    d2, coeffs = _simplex_coeffs(args, config, 30, min_rank=3)
    columns = multistage_columns(coeffs, d2)
    rows = np.column_stack([coeffs[:, :-1], *columns.values()])
    header = [f"a{i}" for i in range(coeffs.shape[1] - 1)] + list(columns)
    _write_table(out, header, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _sigma3(p: float, n: int) -> float:
    if n <= 0:
        return 0.0
    return 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def montecarlo_summary(report: SimulationReport, d2: int):
    """Empirical-versus-analytic rows: (quantity, empirical, analytic, bound),
    every analytic value read from the branch tree the run sampled over a
    target system of dimension d2."""
    tree = report.tree
    dist = tree.dist
    per_record = dist.mean(axis=0)
    inconclusive = tree.inferred == INCONCLUSIVE
    marginal = report.joint_counts.sum(axis=1)
    rows = [["k_channel_exact_rate", 1.0, 1.0, 0.0]]
    attempts = zip(tree.probs, report.stage_attempts, report.stage_successes)
    for i, (p_stage, att, suc) in enumerate(attempts):
        if att:
            rows.append([f"stage{i + 1}_success_rate", suc / att, p_stage, _sigma3(p_stage, att)])
    if inconclusive.any():
        inc_p = float(per_record[inconclusive].sum())
        inc_emp = marginal[:, inconclusive].sum() / report.n_trials
        rows.append(["inconclusive_rate", inc_emp, inc_p, _sigma3(inc_p, report.n_trials)])
    # Sums in record order (cumsum adds sequentially), so the analytic rate
    # keeps its bits whatever the number of records.
    conclusive_p = float(np.cumsum(np.where(inconclusive, 0.0, per_record))[-1])
    correct_p = float(np.mean(np.cumsum(np.where(tree.correct, dist, 0.0), axis=1)[:, -1]))
    conclusive_emp = int(marginal[:, ~inconclusive].sum())
    if conclusive_emp and conclusive_p:
        cond_p = correct_p / conclusive_p
        correct_rate = int(marginal[tree.correct].sum()) / conclusive_emp
        rows.append(["conclusive_correct_rate", correct_rate, cond_p, _sigma3(cond_p, conclusive_emp)])
    rows.append(["mutual_info_bits", report.empirical_mutual_info_bits, tree.info_bits(d2), 0.02])
    return rows


def _cmd_montecarlo(args) -> int:
    config = _load_config(args.config)
    state = _parse_state(config.get("state", _DEFAULT_STATE))
    strat = _parse_strategy(config.get("strategy", {"kind": "me"}))
    trials = _setting(args, config, "trials", 100000, integral=True)
    seed = _setting(args, config, "seed", 0, integral=True)
    out = _out_path(args, config, "montecarlo.csv")
    sidecar = _sidecar(args, out)
    report = run_simulation(state, strat, trials, seed)
    rows = montecarlo_summary(report, state.d2)
    rendered = [[q, float(e), float(a), abs(float(e) - float(a)), float(b)] for q, e, a, b in rows]
    _write_csv(out, ["quantity", "empirical", "analytic", "abs_delta", "bound"], rendered)
    _write_text(sidecar, _report_json(report))
    print(f"wrote {out} and {sidecar}")
    return 0


def _cmd_qkd(args) -> int:
    config = _load_config(args.config)
    state = _parse_state(config.get("state", _DEFAULT_STATE))
    eve = _parse_eve(config.get("eve", {"kind": "absent"}))
    rounds = _setting(args, config, "trials", 100000, integral=True)
    seed = _setting(args, config, "seed", 0, integral=True)
    out = _out_path(args, config, "qkd.csv")
    sidecar = _sidecar(args, out)
    report = simulate_qkd(state, eve, rounds, seed)
    sift_analytic = analytic_sift_rate(state.coeffs)
    error_analytic = 0.0 if report.tree is None else report.tree.error_rate()
    columns = {
        "eve": eve.describe(),
        "n_rounds": rounds,
        "seed": seed,
        "sift_rate": report.sift_rate,
        "sift_rate_analytic": sift_analytic,
        "sift_rate_3sigma": _sigma3(sift_analytic, rounds),
        "error_rate": report.sifted_error_rate,
        "error_rate_analytic": error_analytic,
        "error_rate_3sigma": _sigma3(error_analytic, max(report.kept, 1)),
        "eve_info_bits": report.eve_info_bits,
    }
    _write_csv(out, columns, [columns.values()])
    _write_text(sidecar, _report_json(report))
    print(f"wrote {out} and {sidecar}")
    return 0


_COMMANDS = {
    "sweep-me": (_cmd_sweep_me, "mutual information of ME decoding over the simplex"),
    "sweep-sep": (_cmd_sweep_sep, "separation-assisted decoding versus xi"),
    "sweep-multistage": (_cmd_sweep_multistage, "multistage decoding over the simplex"),
    "montecarlo": (_cmd_montecarlo, "Monte Carlo run with analytic cross-check"),
    "qkd": (_cmd_qkd, "intercept-resend key-distribution run"),
}
_SIMPLEX = ("sweep-me", "sweep-multistage")
_RUNS = ("montecarlo", "qkd")

#: Every flag, with its argparse settings and the commands that read it.
_FLAGS = {
    "--config": ({"help": "JSON config file; flags override it"}, tuple(_COMMANDS)),
    "--out": ({"help": "output CSV path"}, tuple(_COMMANDS)),
    "--seed": ({"type": int, "help": "RNG seed"}, _RUNS),
    "--trials": ({"type": int, "help": "Monte Carlo trials / rounds"}, _RUNS),
    "--grid": ({"type": int, "help": "simplex lattice resolution"}, _SIMPLEX),
    "--margin": ({"type": float, "help": "simplex boundary margin"}, _SIMPLEX),
    "--d1": ({"type": int, "help": "control-system dimension"}, _SIMPLEX),
    "--d2": ({"type": int, "help": "transmitted-system dimension"}, _SIMPLEX),
    "--xi-steps": ({"type": int, "help": "distinguishability steps"}, ("sweep-sep",)),
}

#: Config-file keys any command reads, so one file can serve several commands.
_CONFIG_KEYS = {"state", "strategy", "eve"} | {
    flag[2:].replace("-", "_") for flag in _FLAGS if flag != "--config"
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The densecode parser, built once per process: each command's `_cmd_*`
    function is bound as its default `func` when the parser is first built."""
    parser = argparse.ArgumentParser(
        prog="densecode",
        description="Probabilistic dense coding: analytic sweeps and Monte Carlo runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, (settings, readers) in _FLAGS.items():
            if name in readers:
                command.add_argument(flag, **settings)
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
