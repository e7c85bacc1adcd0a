"""The benchmark's four workloads, one per layer group of densecode.

Each workload turns the run's seed into op inputs, runs one op at a time,
and checks every op's output against the closed form outside the timed
window. Importing this module imports densecode, so the import is part of
the measured set-up time.

- mc_multistage: Monte Carlo sampler and reduction (protocol_sim).
- qkd_intercept: the intercept-resend sampler (qkd).
- compile_wide: channel build and verification at d1 = d2 = 16 (channel,
  tensor_core, gates).
- sweep_analytic: closed-form sweeps through the CLI (discrimination,
  infometrics, cli).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

import densecode as dc
from densecode import cli

#: A check fails when an estimate is further than this many binomial
#: standard deviations from the closed form. Per comparison that happens by
#: chance with probability about 2e-9, so thousands of checked ops never
#: trip; a stage probability off by 0.02 trips on every 10^6-trial op.
Z_BOUND = 6.0
#: Absolute slack for equal floating-point quantities.
ABS_TOL = 1e-9
#: CSV floats carry 9 significant digits, so a value x is rounded by up to
#: 5e-9 * |x|; fixed rows must match direct calls to ABS_TOL beyond that.
CSV_REL_TOL = 5e-9


def op_seed(seed: int, index: int) -> int:
    """Seed of op `index` in a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Outcome:
    """What a check read from one op's output, outside the timed window."""

    errors: list
    fingerprint: str
    counters: dict = field(default_factory=dict)


def _compare(empirical: dict, expected: dict, n: dict) -> list:
    """Binomial z-test of each empirical rate against its expected value."""
    errors = []
    for key, p in expected.items():
        if key not in empirical:
            errors.append(f"{key}: missing from the output")
            continue
        trials = n[key]
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) / trials) if trials else 0.0
        if abs(empirical[key] - p) > Z_BOUND * sigma + ABS_TOL:
            errors.append(f"{key}: {empirical[key]:.6g}, closed form {p:.6g}, n={trials}")
    return errors


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def mc_reference(state, strategy) -> dict:
    """Closed-form rates of a multistage run that ends in ME: each stage's
    success rate, no inconclusive record, and the conclusive-correct rate,
    which is one minus the composed ME error over the branch tree."""
    info = dc.mutual_info_multistage(state, strategy.plan)
    expected = {f"stage{i + 1}_success_rate": p for i, p in enumerate(info.branch_probabilities)}
    expected["inconclusive_rate"] = 0.0
    error = dc.analytic_qkd_error(state.coeffs, dc.EveStrategy.intercept(strategy))
    expected["conclusive_correct_rate"] = 1.0 - error
    return expected


def qkd_reference(state, eve) -> dict:
    return {
        "sift_rate": dc.analytic_sift_rate(state.coeffs),
        "sifted_error_rate": dc.analytic_qkd_error(state.coeffs, eve),
    }


def ramp_state(d: int):
    """d1 = d2 = d, squared coefficients proportional to 1..d: distinct, so
    every separation stage is constructible; [0.1, 0.2, 0.3, 0.4] at d = 4."""
    return dc.SchmidtState.from_squared(d, d, np.arange(1, d + 1) / (d * (d + 1) / 2))


class McWorkload:
    """`run_simulation` of a multistage strategy that ends in ME."""

    def __init__(self, seed, d, stages, trials, ref_reps, *, fresh_state, units_per_op=None):
        self.seed = seed
        self.d = d
        self.trials = trials
        self.ref_reps = ref_reps
        self.fresh_state = fresh_state
        self.strategy = dc.DecodingStrategy.multistage(dc.StagePlan(stages, dc.FINAL_ME))
        self.units_per_op = trials if units_per_op is None else units_per_op
        self._fixed = ramp_state(d)

    @property
    def sizes(self) -> dict:
        return {
            "d1": self.d,
            "d2": self.d,
            "strategy": self.strategy.describe(),
            "trials": self.trials,
            "state": "fresh per op" if self.fresh_state else self._fixed.to_dict(),
            "units_per_op": self.units_per_op,
            "ref_reps": self.ref_reps,
        }

    def state(self, index: int):
        """Fresh states keep squared coefficients away from zero and from
        ties: a permutation of 1..d plus jitter below 0.8, normalised."""
        if not self.fresh_state:
            return self._fixed
        rng = np.random.default_rng(op_seed(self.seed, index))
        squared = 1.0 + rng.permutation(self.d) + 0.8 * rng.random(self.d)
        return dc.SchmidtState.from_squared(self.d, self.d, squared / squared.sum())

    def input_key(self, index: int):
        return op_seed(self.seed, index)

    def prepare(self, index: int):
        """Op `index` as a call; its inputs are built here, outside the timing.
        Every op looks densecode functions up when it runs, so the tracer sees
        them."""
        state, seed = self.state(index), op_seed(self.seed, index)
        return lambda: dc.run_simulation(state, self.strategy, self.trials, seed, threads=None)

    def check(self, index: int, report) -> Outcome:
        counts = report.joint_counts
        empirical, n = {}, {}
        for i, (att, suc) in enumerate(zip(report.stage_attempts, report.stage_successes)):
            if att:
                empirical[f"stage{i + 1}_success_rate"] = suc / att
                n[f"stage{i + 1}_success_rate"] = att
        labels = report.outcome_labels
        inconclusive = int(counts[:, :, labels.index("inc")].sum()) if "inc" in labels else 0
        marginal = counts.sum(axis=1)
        correct = sum(
            int(marginal[int(label.split(":")[1]), r]) for r, label in enumerate(labels) if label != "inc"
        )
        empirical["inconclusive_rate"] = inconclusive / report.n_trials
        empirical["conclusive_correct_rate"] = correct / max(report.n_trials - inconclusive, 1)
        n["inconclusive_rate"] = n["conclusive_correct_rate"] = report.n_trials
        errors = _compare(empirical, mc_reference(self.state(index), self.strategy), n)
        if int(counts.sum()) != self.trials:
            errors.append(f"joint counts hold {int(counts.sum())} trials, not {self.trials}")
        fingerprint = _digest(counts.tobytes(), report.stage_attempts, report.stage_successes)
        return Outcome(errors, fingerprint)


class QkdWorkload:
    """`simulate_qkd` with a fixed state and eavesdropper."""

    def __init__(self, seed, d, stages, rounds, ref_reps):
        self.seed = seed
        self.rounds = rounds
        self.ref_reps = ref_reps
        self.units_per_op = rounds
        self.state = ramp_state(d)
        plan = dc.StagePlan(stages, dc.FINAL_ABSTAIN)
        self.eve = dc.EveStrategy.intercept(dc.DecodingStrategy.multistage(plan), dc.GUESS_UNIFORM)

    @property
    def sizes(self) -> dict:
        return {
            "state": self.state.to_dict(),
            "eve": self.eve.describe(),
            "rounds": self.rounds,
            "units_per_op": self.units_per_op,
            "ref_reps": self.ref_reps,
        }

    def input_key(self, index: int):
        return op_seed(self.seed, index)

    def prepare(self, index: int):
        seed = op_seed(self.seed, index)
        return lambda: dc.simulate_qkd(self.state, self.eve, self.rounds, seed, threads=None)

    def check(self, index: int, report) -> Outcome:
        empirical = {"sift_rate": report.sift_rate, "sifted_error_rate": report.sifted_error_rate}
        n = {"sift_rate": report.n_rounds, "sifted_error_rate": report.kept}
        errors = _compare(empirical, qkd_reference(self.state, self.eve), n)
        fingerprint = _digest(report.eve_counts.tobytes(), report.kept, report.errors)
        return Outcome(errors, fingerprint, {"qkd.kept_ratio": report.kept / report.n_rounds})


def lattice_point(rank: int, grid: int, index: int, margin: float = 1e-3) -> list:
    """Squared coefficients of row `index` of a sweep's lattice, enumerated
    here independently of the CLI: lexicographic compositions of `grid`."""
    scale = 1.0 - rank * margin
    heads = (h for h in itertools.product(range(grid + 1), repeat=rank - 1) if sum(h) <= grid)
    head = next(itertools.islice(heads, index, None))
    return [margin + (k / grid) * scale for k in head + (grid - sum(head),)]


def sweep_reference(command: str, d: int, grid: int, index: int) -> dict:
    """CSV columns of one sweep row, from direct closed-form calls."""
    squared = lattice_point(d, grid, index)
    state = dc.SchmidtState.from_squared(d, d, squared)
    row = {f"a{i}": float(c) for i, c in enumerate(state.coeffs[: d - 1])}
    if command == "sweep-me":
        row["I_bits"] = dc.mutual_info_me(state).total_bits
        return row
    row["I_MC"] = dc.mutual_info_multistage(state, dc.StagePlan((1.0,), dc.FINAL_ABSTAIN)).total_bits
    row["I_MC_ME"] = dc.mutual_info_multistage(state, dc.StagePlan((1.0,), dc.FINAL_ME)).total_bits
    row["I_MC_MC"] = dc.mutual_info_multistage(state, dc.StagePlan((1.0, 1.0), dc.FINAL_ABSTAIN)).total_bits
    row["I_ME"] = dc.mutual_info_me(state).total_bits
    return row


class _Discard(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


class SweepWorkload:
    """In-process `densecode sweep-me` then `sweep-multistage`, both writing
    CSV. Every op has the same inputs, so every op's CSVs must be equal."""

    def __init__(self, out_dir, me_d, me_grid, ms_d, ms_grid, ref_reps):
        self.ref_reps = ref_reps
        self.commands = (("sweep-me", me_d, me_grid), ("sweep-multistage", ms_d, ms_grid))
        self.rows = tuple(math.comb(grid + d - 1, d - 1) for _, d, grid in self.commands)
        self.units_per_op = sum(self.rows)
        self.paths = tuple(os.path.join(out_dir, f"{cmd}.csv") for cmd, _, _ in self.commands)
        self._reference = None

    @property
    def sizes(self) -> dict:
        return {
            "commands": [f"{cmd} --d1 {d} --d2 {d} --grid {grid}" for cmd, d, grid in self.commands],
            "rows": list(self.rows),
            "units_per_op": self.units_per_op,
            "ref_reps": self.ref_reps,
        }

    def _argv(self, i: int) -> list:
        cmd, d, grid = self.commands[i]
        return [cmd, "--d1", str(d), "--d2", str(d), "--grid", str(grid), "--out", self.paths[i]]

    def input_key(self, index: int):
        return None

    def prepare(self, index: int):
        argvs = [self._argv(i) for i in range(len(self.commands))]

        def op():
            with contextlib.redirect_stdout(_Discard()):
                return tuple(cli.main(argv) for argv in argvs)

        return op

    def check(self, index: int, codes) -> Outcome:
        if self._reference is None:
            self._reference = [
                {r: sweep_reference(cmd, d, grid, r) for r in (0, n // 2, n - 1)}
                for (cmd, d, grid), n in zip(self.commands, self.rows)
            ]
        errors = [f"{cmd} exited {code}" for (cmd, _, _), code in zip(self.commands, codes) if code]
        blobs = []
        for path, n, fixed in zip(self.paths, self.rows, self._reference):
            with open(path, "rb") as fh:
                blob = fh.read()
            blobs.append(blob)
            table = list(csv.reader(io.StringIO(blob.decode())))
            header, body = table[0], table[1:]
            if len(body) != n:
                errors.append(f"{path}: {len(body)} rows, lattice has {n}")
                continue
            for r, expected in fixed.items():
                for column, value in expected.items():
                    got = float(body[r][header.index(column)])
                    if abs(got - value) > ABS_TOL + CSV_REL_TOL * abs(value):
                        errors.append(f"{path} row {r} {column}: {got!r}, direct call {value!r}")
        counters = {"cli.bytes_written": sum(len(b) for b in blobs)}
        return Outcome(errors, _digest(*blobs), counters)


def make(name: str, seed: int, out_dir: str):
    """The workload `name` at its benchmark sizes."""
    if name == "mc_multistage":
        return McWorkload(seed, 4, (1.0, 1.0, 1.0), 1_000_000, 128, fresh_state=False)
    if name == "qkd_intercept":
        return QkdWorkload(seed, 4, (1.0, 1.0), 2_000_000, 160)
    if name == "compile_wide":
        return McWorkload(seed, 16, (1.0, 1.0), 4096, 120, fresh_state=True, units_per_op=256)
    if name == "sweep_analytic":
        return SweepWorkload(out_dir, 5, 13, 4, 9, 280)
    raise ValueError(f"unknown workload {name!r}")
