"""End-to-end Monte Carlo simulation of the dense-coding protocol.

A strategy becomes one closed-form branch tree per run: separation stages and
their success probabilities from the failure-state hierarchy (walk_stages),
confusion rows from the square-root measurement (me_outcome_probs). The
GXOR split returns the sender's k with certainty, so only the carrier index j
is decoded. Runs draw record counts from that tree's exact distribution, fast
and bit-reproducible; the test suite checks the tree against the actual
circuit (encoding, GXOR split, dilation couplings, POVMs).

Randomness contract: a run of n trials draws one count table, whatever n
is. The generator derived from (seed, 0) draws one multinomial of n over the
D equally likely carriers, then one multinomial per carrier over the tree's
records with probabilities multinomial_rows(distribution()), rows clipped at
0 and renormalised. The generator derived from (seed, 1) then splits each
(carrier, record) count over the d2 equally likely values of the sender's k,
which the system-2 readout returns exactly: one multinomial per cell. Counts
are signed 64-bit integers, so n must lie in [1, 2**63).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SchmidtState
from .discrimination import FINAL_ABSTAIN, FINAL_ME, StagePlan, me_outcome_probs, walk_stages
from .infometrics import counts_mutual_info

#: Inferred hypothesis of a record that abstains.
INCONCLUSIVE = -1

#: An eavesdropper's guess on an abstained record.
GUESS_UNIFORM = "uniform"
GUESS_ME = "me"

#: P_s at which a stage is sure and ends the walk; the weight past it is below output resolution.
_SURE_SUCCESS = 1.0 - 1e-12


@dataclass(frozen=True)
class DecodingStrategy:
    """Receiver policy, held as the StagePlan it runs: plain ME has no stage
    and ends in ME, separation-then-ME one stage that abstains, and a
    multistage strategy is its plan. describe() names it by that shape."""

    plan: StagePlan

    def __post_init__(self) -> None:
        if not isinstance(self.plan, StagePlan):
            raise ValueError(f"a strategy requires a StagePlan, not {self.plan!r}")

    @classmethod
    def me(cls) -> "DecodingStrategy":
        return cls(StagePlan((), FINAL_ME))

    @classmethod
    def sep_me(cls, xi: float) -> "DecodingStrategy":
        return cls(StagePlan((xi,), FINAL_ABSTAIN))

    @classmethod
    def multistage(cls, plan: StagePlan) -> "DecodingStrategy":
        return cls(plan)

    def describe(self) -> str:
        stages, final = self.plan.stages, self.plan.final_action
        if not stages and final == FINAL_ME:
            return "me"
        if len(stages) == 1 and final == FINAL_ABSTAIN:
            return f"sep_me(xi={stages[0]:g})"
        listed = ",".join(f"{xi:g}" for xi in stages)
        return f"multistage([{listed}], final={final})"


class _BranchTree:
    """Closed-form branch tree of a decoding strategy over one symmetric family.

    stage_entries[n] = (P_s, confusion table, record offset) of the n-th
    stage that walk_stages executes; a table is the circulant q[(j - l) mod D]
    of q = me_outcome_probs. The walk ends after a sure stage (xi = 0, uniform
    family). Records are "s{n}:l" for success at stage n, then those of the
    final action: "f:l" for ME, "inc" for abstention. An eavesdropper (`guess`
    set) never abstains: she follows the empty "inc" column with an ME guess
    "g:l" or a uniform guess "u:l". final_offset is the first record the
    final action writes.
    """

    def __init__(self, coeffs, plan: StagePlan, guess=None):
        self.rank = rank = np.size(coeffs)
        circulant = (np.arange(rank)[:, None] - np.arange(rank)) % rank
        steps, rest, _ = walk_stages(coeffs, plan.stages)
        final = plan.final_action
        entries: list = []  # (P_s, separated family, record offset)
        records: list = []
        # The executed steps are a prefix of the walk.
        for n, (executed, family, sep) in enumerate(steps):
            if not executed:
                break
            p_stage = float(sep.p_success)
            entries.append((p_stage, sep.b_coeffs, len(records)))
            records += [f"s{n + 1}:{l}" for l in range(rank)]
            if p_stage >= _SURE_SUCCESS:
                # The final action, reached with weight 0, reads this stage's input.
                rest = family
                break
        self.final_offset = len(records)
        if final == FINAL_ME:
            records += [f"f:{l}" for l in range(rank)]
        else:
            records.append("inc")
            if guess is not None:
                self.final_offset += 1
                records += [f"{'g' if guess == GUESS_ME else 'u'}:{l}" for l in range(rank)]
        self.records = tuple(records)
        #: Hypothesis each record infers; INCONCLUSIVE for "inc".
        self.inferred = np.array([INCONCLUSIVE if r == "inc" else int(r.split(":")[1]) for r in records])
        self.uniform_guess = final != FINAL_ME and guess == GUESS_UNIFORM
        finals = [rest] if final == FINAL_ME or guess == GUESS_ME else []
        # One ME transform for the tree: me_outcome_probs is row-independent.
        tables = me_outcome_probs(np.reshape([b for _, b, _ in entries] + finals, (-1, rank)))[:, circulant]
        self.stage_entries = [(p_stage, table, offset) for (p_stage, _, offset), table in zip(entries, tables)]
        self.final_table = tables[-1] if finals else None

    def distribution(self) -> np.ndarray:
        """Exact P(record | hypothesis), shape (D, n_records), rows summing to
        1: each stage's reach weight times its confusion table, then the final
        action's rows; a uniform guess spreads the remaining weight evenly."""
        dist = np.zeros((self.rank, len(self.records)))
        weight = 1.0
        for p_stage, table, offset in self.stage_entries:
            dist[:, offset : offset + self.rank] = weight * p_stage * table
            weight *= 1.0 - p_stage
        if self.final_table is not None:
            dist[:, self.final_offset :] = weight * self.final_table
        elif self.uniform_guess:
            dist[:, self.final_offset :] = weight / self.rank
        else:
            dist[:, self.final_offset] = weight
        return dist


def derived_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream); bit-reproducible."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def multinomial_rows(dist: np.ndarray) -> np.ndarray:
    """Rows of `dist` clipped at 0 and divided by their sums, so that numpy's
    multinomial takes them: entries in [0, 1], partial sums at most 1 + 1e-12.
    distribution() alone is not enough. The Bell state's ME row holds
    1 + 2.2e-16, and a state's squared coefficients may sum to 1 within
    channel.NORM_TOL."""
    rows = np.clip(dist, 0.0, None)
    return rows / rows.sum(axis=1, keepdims=True)


def count_table(seed: int, n: int, dist: np.ndarray | None = None):
    """(generator, counts) of a run of `n` trials, both from derived_rng(seed,
    0): one multinomial of n over the D = len(dist) equally likely carriers,
    then one multinomial per carrier over the rows of `dist`, made valid by
    multinomial_rows. Without `dist` the counts are None and the caller draws
    its own. Before any draw the seed must be an unsigned 64-bit integer and
    n lie in [1, 2**63), the range of numpy's signed 64-bit counts."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} outside [0, 2**64)")
    if not 1 <= n < 2**63:
        raise ValueError(f"trial count {n} outside [1, 2**63)")
    rng = derived_rng(seed, 0)
    if dist is None:
        return rng, None
    carriers = rng.multinomial(n, np.full(len(dist), 1.0 / len(dist)))
    return rng, rng.multinomial(carriers, multinomial_rows(dist))


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Tallies of one seeded run; a fixed seed reproduces them bit for bit."""

    n_trials: int
    seed: int
    strategy: str
    state: dict
    outcome_labels: tuple
    joint_counts: np.ndarray
    stage_attempts: tuple
    stage_successes: tuple
    empirical_mutual_info_bits: float

    @property
    def empirical_success_rate(self) -> tuple:
        rates = []
        for att, suc in zip(self.stage_attempts, self.stage_successes):
            rates.append(suc / att if att else None)
        return tuple(rates)


def run_simulation(
    s: SchmidtState,
    strat: DecodingStrategy,
    n_trials: int,
    seed: int,
    threads: int | None = None,
) -> SimulationReport:
    """Seed-deterministic Monte Carlo run: one count table, in O(D * records)
    whatever n_trials is. `threads` is ignored (perfbench/ still passes it)."""
    fam = _BranchTree(s.coeffs, strat.plan)
    _, by_carrier = count_table(seed, n_trials, fam.distribution())
    # Stream 1 splits each (carrier, record) count over k.
    readout = derived_rng(seed, 1).multinomial(by_carrier, np.full(s.d2, 1.0 / s.d2))
    counts = np.ascontiguousarray(readout.transpose(0, 2, 1))
    per_record = by_carrier.sum(axis=0)
    successes = [int(per_record[offset : offset + fam.rank].sum()) for *_, offset in fam.stage_entries]
    attempts = [n_trials - sum(successes[:i]) for i in range(len(successes))]
    counts.setflags(write=False)
    info_bits = counts_mutual_info(counts, n_trials)
    return SimulationReport(
        n_trials=n_trials,
        seed=int(seed),
        strategy=strat.describe(),
        state=s.to_dict(),
        outcome_labels=fam.records,
        joint_counts=counts,
        stage_attempts=tuple(attempts),
        stage_successes=tuple(successes),
        empirical_mutual_info_bits=info_bits,
    )


def analytic_record_distribution(s: SchmidtState, strat: DecodingStrategy):
    """Exact per-hypothesis distribution over outcome records, in closed form.

    Returns (record labels, array of shape (D, n_records)) with rows summing
    to 1: the distribution of the branch tree that Monte Carlo samples.
    """
    fam = _BranchTree(s.coeffs, strat.plan)
    return fam.records, fam.distribution()
