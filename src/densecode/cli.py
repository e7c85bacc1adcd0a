"""Command-line interface: figure-reproduction sweeps, Monte Carlo runs, and
key-distribution experiments, with JSON config files and CSV output.

This module is the only one that reads or writes a file format: it parses the
config objects that name a state, a decoding strategy and an eavesdropper,
and renders the run reports as JSON. The domain modules hold the physics.

Configuration precedence: command-line flags override config-file entries,
which override built-in defaults. `main` loads the config, names the output
files (by default the command's name with "-" as "_" and extension .csv,
plus a .json report beside a run's CSV) and writes them; a command only
computes. Files are written after every one is rendered, and a failed write
removes the regular files already written, so it leaves no output file.
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
import os
import stat
import sys

import numpy as np

from .channel import COEFF_TOL, SchmidtState, _is_integer, _is_real
from .discrimination import FINAL_ABSTAIN, StagePlan
from .infometrics import me_bits, multistage_bits, multistage_columns
from .protocol_sim import GUESS_UNIFORM, INCONCLUSIVE, SimulationReport, run_simulation
from .qkd import EveStrategy, analytic_sift_rate, simulate_qkd

_DEFAULT_MARGIN = 1e-3
_DEFAULT_STATE = {"d1": 2, "d2": 2, "coeffs": [0.2, 0.8], "squared": True}
#: Most coefficients (rows times rank) one sweep may hold, 8 MB of float64. A sweep's
#: lattice, walk families, figure columns and text are each a fixed multiple of them.
MAX_SWEEP_COEFFS = 10**6

#: Every float cell: 9 significant digits.
_FLOAT = "%.9g"
#: Rows _table_text renders at a time; each block holds its cells' text.
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


def _cell_text(values: np.ndarray, sep: str) -> np.ndarray:
    """The text of each float in `values`, then `sep`, by one format call ("%.9g" writes no NUL)."""
    return np.array(((_FLOAT + sep + "\0") * values.size % tuple(values.tolist())).split("\0")[:-1], dtype=object)


def _table_text(header, columns) -> str:
    """Float64 columns under `header`, as _csv_text renders them. Each cell's text ends with its separator (CRLF in
    the last column) and a block of rows is one join of its cells. Each levels array of a lattice column (levels,
    codes) is formatted once; per block, the other columns of one separator format their distinct bit patterns once."""
    seps = [","] * (len(columns) - 1) + ["\r\n"]
    texts = {(id(c[0]), sep): _cell_text(c[0], sep) for c, sep in zip(columns, seps) if isinstance(c, tuple)}
    plain = [i for i, c in enumerate(columns) if not isinstance(c, tuple)]
    figures = {sep: group for sep in (",", "\r\n") if (group := [i for i in plain if seps[i] == sep])}
    rows = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])

    def blocks():
        yield _csv_text([header])
        for start in range(0, rows, _BLOCK_ROWS):
            block = slice(start, min(start + _BLOCK_ROWS, rows))
            grid = np.empty((block.stop - start, len(columns)), dtype=object)
            for i, (column, sep) in enumerate(zip(columns, seps)):
                if isinstance(column, tuple):
                    grid[:, i] = texts[id(column[0]), sep][column[1][block]]
            for sep, group in figures.items():
                patterns = np.concatenate([columns[i][block] for i in group]).view(np.int64)
                bits, inverse = np.unique(patterns, return_inverse=True)
                grid[:, group] = _cell_text(bits.view(np.float64), sep)[inverse.reshape(len(group), -1).T]
            yield "".join(grid.ravel().tolist())

    return "".join(blocks())


def _write_files(texts: dict) -> None:
    """Write each text to its path as is, without newline translation, so CSV
    lines keep the CRLF ends that csv.writer writes. A regular file is rewritten
    in place and then cut to the new length, because truncating it first makes
    the file system free its blocks and allocate them again. Other files (FIFOs,
    devices) are written as streams, never cut. If a write fails, the regular
    files opened so far are removed: every file is written or none."""
    opened = []
    try:
        for path, text in texts.items():
            with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as fh:
                regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
                if regular:
                    opened.append(path)
                fh.write(text)
                if regular:
                    fh.truncate()
    except OSError as exc:
        for done in opened:
            os.remove(done)
        raise RuntimeError(f"cannot write output file {path}: {exc}") from exc


def _check_size(rows: int, rank: int) -> None:
    """Fail before a sweep of `rows` states of `rank` coefficients allocates
    anything, if it would hold more than MAX_SWEEP_COEFFS coefficients."""
    if rows * rank > MAX_SWEEP_COEFFS:
        raise ValueError(f"sweep of {rows} x {rank} coefficients exceeds the limit of {MAX_SWEEP_COEFFS}")


def _lattice(rank: int, resolution: int, margin: float):
    """(levels, codes): rows of codes, in the smallest unsigned dtype that holds `resolution`, are its
    compositions into `rank` parts in lexicographic order; part k stands for the squared coefficient
    levels[k] = margin + (k / resolution) * (1 - rank * margin). The margin keeps each point off the simplex
    boundary, where the Schmidt rank would change; the centroid is on it whenever `rank` divides `resolution`."""
    if rank < 1:
        raise ValueError("grid rank must be >= 1")
    if resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    if not 0 < margin < math.inf:
        raise ValueError(f"boundary margin must be positive and finite, not {margin!r}")
    # Every row is normalised by construction; its smallest coefficient, sqrt(levels[0]), must pass the state's floor.
    if rank > 1 and math.sqrt(margin) < COEFF_TOL:
        raise ValueError(f"boundary margin must be at least {COEFF_TOL**2:g} at rank {rank}, not {margin!r}")
    if rank * margin >= 1.0:
        raise ValueError("margin too large for this rank")
    # C(resolution + rank - 1, rank - 1) rows, counted a factor at a time up to 10^40 (math.comb may take a minute).
    rows, (k, n) = 1, sorted((rank - 1, resolution))
    for i in range(1, k + 1):
        if (rows := rows * (n + i) // i) > 10**40:
            raise ValueError(f"sweep of more than 10^40 x {rank} coefficients exceeds the limit of {MAX_SWEEP_COEFFS}")
    _check_size(rows, rank)
    resolution = resolution if rank > 1 else 1  # a rank-1 lattice is one point, of share 1 at any resolution
    # Grow the compositions one part at a time: each prefix with `left` still to place is followed by heads 0..left,
    # in lexicographic order. Then fill the codes from the last part back: a head repeats once per row under it.
    left, steps = np.array([resolution]), []
    for _ in range(rank - 1):
        counts = left + 1
        starts = np.cumsum(counts) - counts
        heads = np.arange(counts.sum()) - np.repeat(starts, counts)
        steps.append((starts, heads))
        left = np.repeat(left, counts) - heads
    codes = np.empty((left.size, rank), dtype=np.min_scalar_type(resolution))
    codes[:, -1], under = left, np.ones(left.size, dtype=np.intp)
    for column, (starts, heads) in zip(codes.T[-2::-1], reversed(steps)):
        column[:], under = np.repeat(heads, under), np.add.reduceat(under, starts)
    return margin + (np.arange(resolution + 1) / resolution) * (1.0 - rank * margin), codes


def _config_number(obj: dict, key: str, default, integral: bool = False):
    """obj[key], or `default` when absent, as an int (`integral`) or a float;
    any other value raises ValueError naming the key."""
    value = obj.get(key, default)
    if not _is_real(value):
        raise ValueError(f"{key!r} must be a number, not {value!r}")
    if integral and not (_is_integer(value) or float(value).is_integer()):
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


def _parse_strategy(obj) -> StagePlan:
    """A decoding strategy, a StagePlan, from {"kind": "me"}, {"kind": "sep_me", "xi": ...}
    or {"kind": "multistage", "stages": [{"xi": ...}, ...], "final": ...}."""
    kind = _kind(obj, "strategy")
    if kind == "me":
        return StagePlan.me()
    if kind == "sep_me":
        return StagePlan.sep_me(_config_number(obj, "xi", 1.0))
    stages = obj.get("stages", [])
    if not isinstance(stages, list) or not all(isinstance(st, dict) for st in stages):
        raise ValueError("'stages' must be a list of objects such as {\"xi\": 1.0}")
    for st in stages:
        _check_keys(st, ("xi",), "stage")
    xis = tuple(_config_number(st, "xi", 1.0) for st in stages)
    return StagePlan(xis, obj.get("final", FINAL_ABSTAIN))


def _parse_eve(obj) -> EveStrategy:
    """An eavesdropper from {"kind": "absent"} or {"kind": "intercept",
    "strategy": {...}, "fallback": ...}."""
    if _kind(obj, "eve") == "absent":
        return EveStrategy()
    if "strategy" not in obj:
        raise ValueError("an intercepting 'eve' needs key 'strategy'")
    return EveStrategy.intercept(_parse_strategy(obj["strategy"]), obj.get("fallback", GUESS_UNIFORM))


def _nonzero_cells(counts: np.ndarray, key) -> dict:
    """The nonzero cells of a count table, keyed key(*index)."""
    cells = np.nonzero(counts)
    return {key(*index): c for *index, c in zip(*(i.tolist() for i in cells), counts[cells].tolist())}


def _report_json(report, inputs: dict) -> str:
    """A run report as indented JSON with sorted keys: the run's `inputs`
    (seed, state, and the strategy or eavesdropper as named in the CSV), then
    the report's fields but the branch tree, with the count table as its
    nonzero cells keyed by message and record label. A Monte Carlo report
    adds its tree's record labels and per-stage success rates; a
    key-distribution report keys Eve's counts by her tree's record labels."""
    fields = dataclasses.fields(report)
    obj = inputs | {field.name: getattr(report, field.name) for field in fields if field.name != "tree"}
    if isinstance(report, SimulationReport):
        labels = obj["outcome_labels"] = report.tree.records
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
    # ValueError covers json.JSONDecodeError and an integer past the str-to-int digit limit.
    except (OSError, ValueError) as exc:
        raise RuntimeError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise RuntimeError("config file must hold a JSON object")
    _check_keys(obj, _CONFIG_KEYS, "config")
    return obj


def _setting(args, config: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    # The config key takes its flag's type, so the two cannot disagree.
    return _config_number(config, key, default, integral=_FLAGS["--" + key.replace("_", "-")][0]["type"] is int)


def _same_file(a: str, b: str) -> bool:
    """Whether `a` and `b` resolve to one path (through links, dangling ones too) or are one existing file."""
    return os.path.realpath(a) == os.path.realpath(b) or (all(map(os.path.exists, (a, b))) and os.path.samefile(a, b))


def _out_paths(args, config: dict) -> list:
    """The command's output paths: its CSV, then a run's JSON report beside it, unless one of them is the config
    file, which an output written there would destroy, or the report is the CSV (say an `out` ending in .json)."""
    out = args.out if args.out is not None else config.get("out", args.command.replace("-", "_") + ".csv")
    if not isinstance(out, str):
        raise ValueError(f"'out' must be a file path, not {out!r}")
    paths = [out, os.path.splitext(out)[0] + ".json"] if args.command in _RUNS else [out]
    for path in paths:
        if args.config and _same_file(path, args.config):
            raise ValueError(f"output {path} would overwrite the config file {args.config}")
    if len(paths) == 2 and _same_file(*paths):
        raise ValueError(f"JSON report {paths[1]} would overwrite the CSV output {out}")
    return paths


def _simplex_sweep(args, config: dict, grid: int, figures, min_rank: int = 1):
    """A simplex sweep's header and columns: a0..a_{D-2} as lattice columns, then figures(coeffs, d2)."""
    d1, d2 = _setting(args, config, "d1", 3), _setting(args, config, "d2", 4)
    if min(d1, d2) < min_rank:
        raise RuntimeError(f"this sweep needs Schmidt rank >= {min_rank}")
    grid, margin = _setting(args, config, "grid", grid), _setting(args, config, "margin", _DEFAULT_MARGIN)
    levels, codes = _lattice(min(d1, d2), grid, margin)
    levels = np.sqrt(levels)  # np.sqrt(levels)[codes] is np.sqrt(levels[codes]), bit for bit
    columns = figures(levels[codes], d2)
    header = [f"a{i}" for i in range(codes.shape[1] - 1)] + list(columns)
    return header, [(levels, part) for part in codes.T[:-1]] + list(columns.values())


def _cmd_sweep_me(args, config: dict):
    return _simplex_sweep(args, config, 60, lambda coeffs, d2: {"I_bits": me_bits(coeffs, d2)})


def _cmd_sweep_sep(args, config: dict):
    state = _parse_state(config.get("state", _DEFAULT_STATE))
    steps = _setting(args, config, "xi_steps", 50)
    if steps < 1:
        raise RuntimeError("xi_steps must be >= 1")
    _check_size(steps + 1, state.D)
    xi = np.arange(steps + 1) / steps
    total, (p_s,), (success,) = multistage_bits(state.coeffs, state.d2, (xi,), FINAL_ABSTAIN)
    i_me = np.full(xi.size, me_bits(state.coeffs, state.d2))
    return ["xi", "P_s", "I_total", "I_success", "I_ME"], [xi, p_s, total, success, i_me]


def _cmd_sweep_multistage(args, config: dict):
    return _simplex_sweep(args, config, 30, multistage_columns, min_rank=3)


#: The montecarlo CSV's bound on |empirical - analytic| mutual information, in
#: bits: a fixed tolerance, not a calibrated bound.
_MI_BOUND_BITS = 0.02


def _sigma3(p: float, n: int) -> float:
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
    stages = zip(tree.probs, report.stage_attempts, report.empirical_success_rate)
    for i, (p_stage, att, rate) in enumerate(stages):
        if att:
            rows.append([f"stage{i + 1}_success_rate", rate, p_stage, _sigma3(p_stage, att)])
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
    rows.append(["mutual_info_bits", report.empirical_mutual_info_bits, tree.info_bits(d2), _MI_BOUND_BITS])
    return rows


def _run_inputs(args, config: dict, key: str, parse, default):
    """A run's state, its config object `key` read by `parse`, trial count and seed."""
    state = _parse_state(config.get("state", _DEFAULT_STATE))
    parsed = parse(config.get(key, default))
    return state, parsed, _setting(args, config, "trials", 100000), _setting(args, config, "seed", 0)


def _cmd_montecarlo(args, config: dict):
    state, strat, trials, seed = _run_inputs(args, config, "strategy", _parse_strategy, {"kind": "me"})
    report = run_simulation(state, strat, trials, seed)
    rows = montecarlo_summary(report, state.d2)
    rows = [[q, float(e), float(a), abs(float(e) - float(a)), float(b)] for q, e, a, b in rows]
    inputs = {"seed": seed, "state": state.to_dict(), "strategy": strat.describe()}
    return ["quantity", "empirical", "analytic", "abs_delta", "bound"], rows, _report_json(report, inputs)


def _cmd_qkd(args, config: dict):
    state, eve, rounds, seed = _run_inputs(args, config, "eve", _parse_eve, {"kind": "absent"})
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
    inputs = {"seed": seed, "state": state.to_dict(), "eve": columns["eve"]}
    return columns, [columns.values()], _report_json(report, inputs)


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
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        paths = _out_paths(args, config)
        if args.command in _RUNS:
            header, rows, report_json = args.func(args, config)
            _write_files(dict(zip(paths, (_csv_text([header, *rows]), report_json))))
            print(f"wrote {paths[0]} and {paths[1]}")
        else:
            header, columns = args.func(args, config)
            _write_files({paths[0]: _table_text(header, columns)})
            print(f"wrote {len(columns[-1])} rows to {paths[0]}")  # a figure column, not a lattice one
        return 0
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
