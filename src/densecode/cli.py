"""Command-line interface: figure-reproduction sweeps, Monte Carlo runs, and
key-distribution experiments, with JSON config files and CSV output.

Configuration precedence: command-line flags override config-file entries,
which override built-in defaults. Output files are written only after a
command has computed all of its rows, so a failure leaves no partial file.
Floats are printed with 9 significant digits and row order is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .channel import SchmidtState, check_coeffs, check_keys, config_number
from .discrimination import FINAL_ABSTAIN
from .infometrics import me_bits, multistage_bits, multistage_columns, mutual_info_multistage
from .protocol_sim import (
    DecodingStrategy,
    analytic_record_distribution,
    run_simulation,
)
from .qkd import EveStrategy, analytic_qkd_error, analytic_sift_rate, simulate_qkd

_DEFAULT_MARGIN = 1e-3
_DEFAULT_STATE = {"d1": 2, "d2": 2, "coeffs": [0.2, 0.8], "squared": True}
#: Most coefficients (rows times rank) one sweep may hold; peak memory grows with
#: them. A rank-8 grid-14 sweep-multistage holds 930,240 and peaks near 130 MiB.
MAX_SWEEP_COEFFS = 10**6

#: Every float cell: 9 significant digits.
_FLOAT = "%.9g"
#: Rows _write_table renders at a time; each block holds its cells' text.
_BLOCK_ROWS = 8192
#: Characters for which csv.writer's default (excel, minimal) quoting quotes a field.
_NEEDS_QUOTES = frozenset(',"\r\n')


def _field(value) -> str:
    """One cell: a float with 9 significant digits, anything else as str(),
    quoted as csv.writer quotes it."""
    text = _FLOAT % value if isinstance(value, float) else str(value)
    if _NEEDS_QUOTES.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _line(row) -> str:
    """One CSV line with csv.writer's bytes."""
    return ",".join(map(_field, row)) + "\r\n"


def _write_csv(path: str, header, rows) -> None:
    _write_text(path, _line(header) + "".join([_line(row) for row in rows]))


def _write_table(path: str, header, table: np.ndarray) -> None:
    """Write an (N, C) float64 table with _write_csv's bytes. Per block of rows,
    each distinct bit pattern of a column (so -0.0 is not 0.0) is formatted once."""

    def blocks():
        yield _line(header)
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
    check_keys(obj, _CONFIG_KEYS, "config")
    return obj


def _setting(args, config: dict, key: str, default, integral=None):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if integral is None:
        return config.get(key, default)
    return config_number(config, key, default, integral)


def _out_path(args, config: dict, default: str) -> str:
    out = _setting(args, config, "out", default)
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
    state = SchmidtState.from_dict(config.get("state", _DEFAULT_STATE))
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


def montecarlo_summary(report, state: SchmidtState, strat: DecodingStrategy):
    """Empirical-versus-analytic rows: (quantity, empirical, analytic, bound)."""
    labels, dist = analytic_record_distribution(state, strat)
    per_record = dist.mean(axis=0)
    info = mutual_info_multistage(state, strat.plan)
    stage_probs = info.branch_probabilities
    rows = []
    rows.append(["k_channel_exact_rate", 1.0, 1.0, 0.0])
    for i, (att, suc) in enumerate(zip(report.stage_attempts, report.stage_successes)):
        if att == 0:
            continue
        rows.append(
            [f"stage{i + 1}_success_rate", suc / att, stage_probs[i], _sigma3(stage_probs[i], att)]
        )
    if "inc" in labels:
        inc_p = float(per_record[labels.index("inc")])
        inc_emp = float(
            report.joint_counts[:, :, labels.index("inc")].sum() / report.n_trials
        )
        rows.append(["inconclusive_rate", inc_emp, inc_p, _sigma3(inc_p, report.n_trials)])
    rank = dist.shape[0]
    conclusive = [r for r, label in enumerate(labels) if label != "inc"]
    inferred = [int(labels[r].split(":")[1]) for r in conclusive]
    conclusive_p = float(sum(per_record[r] for r in conclusive))
    correct_p = float(
        np.mean([sum(dist[j, r] for r, l in zip(conclusive, inferred) if l == j) for j in range(rank)])
    )
    marginal = report.joint_counts.sum(axis=1)
    conclusive_emp = int(sum(marginal[:, r].sum() for r in conclusive))
    correct_emp = int(sum(marginal[l, r] for r, l in zip(conclusive, inferred)))
    if conclusive_emp and conclusive_p:
        cond_p = correct_p / conclusive_p
        rows.append(
            [
                "conclusive_correct_rate",
                correct_emp / conclusive_emp,
                cond_p,
                _sigma3(cond_p, conclusive_emp),
            ]
        )
    rows.append(["mutual_info_bits", report.empirical_mutual_info_bits, info.total_bits, 0.02])
    return rows


def _cmd_montecarlo(args) -> int:
    config = _load_config(args.config)
    state = SchmidtState.from_dict(config.get("state", _DEFAULT_STATE))
    strat = DecodingStrategy.from_dict(config.get("strategy", {"kind": "me"}))
    trials = _setting(args, config, "trials", 100000, integral=True)
    seed = _setting(args, config, "seed", 0, integral=True)
    out = _out_path(args, config, "montecarlo.csv")
    sidecar = _sidecar(args, out)
    report = run_simulation(state, strat, trials, seed)
    rows = montecarlo_summary(report, state, strat)
    rendered = [[q, float(e), float(a), abs(float(e) - float(a)), float(b)] for q, e, a, b in rows]
    _write_csv(out, ["quantity", "empirical", "analytic", "abs_delta", "bound"], rendered)
    _write_text(sidecar, report.to_json())
    print(f"wrote {out} and {sidecar}")
    return 0


def _cmd_qkd(args) -> int:
    config = _load_config(args.config)
    state = SchmidtState.from_dict(config.get("state", _DEFAULT_STATE))
    eve = EveStrategy.from_dict(config.get("eve", {"kind": "absent"}))
    rounds = _setting(args, config, "trials", 100000, integral=True)
    seed = _setting(args, config, "seed", 0, integral=True)
    out = _out_path(args, config, "qkd.csv")
    sidecar = _sidecar(args, out)
    report = simulate_qkd(state, eve, rounds, seed)
    sift_analytic = analytic_sift_rate(state.coeffs)
    error_analytic = analytic_qkd_error(state.coeffs, eve)
    row = [
        eve.describe(),
        rounds,
        seed,
        report.sift_rate,
        sift_analytic,
        _sigma3(sift_analytic, rounds),
        report.sifted_error_rate,
        error_analytic,
        _sigma3(error_analytic, max(report.kept, 1)),
        report.eve_info_bits,
    ]
    _write_csv(
        out,
        [
            "eve",
            "n_rounds",
            "seed",
            "sift_rate",
            "sift_rate_analytic",
            "sift_rate_3sigma",
            "error_rate",
            "error_rate_analytic",
            "error_rate_3sigma",
            "eve_info_bits",
        ],
        [row],
    )
    _write_text(sidecar, report.to_json())
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
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
