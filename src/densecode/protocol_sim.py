"""End-to-end Monte Carlo simulation of the dense-coding protocol.

A strategy becomes one closed-form branch tree per configuration: separation
stages and their success probabilities from the failure-state hierarchy
(walk_stages), confusion rows from the square-root measurement
(me_outcome_probs). The GXOR split returns the sender's k with certainty, so
only the carrier index j is decoded. Runs draw record counts from that
tree's exact distribution, fast and bit-reproducible, and each report keeps
the tree it sampled: the run's closed forms (stage probabilities, rates,
exact information, error rate) are read from that one tree. The test suite
checks the tree against the actual circuit (encoding, GXOR split, dilation
couplings, POVMs).

A tree is a pure function of (coefficients, plan, guess), so runs take it
from a small memo keyed by those values (_shared_tree): seeded runs of one
configuration build it, its exact distribution included, once per process
and share that one read-only tree. _BranchTree(...) itself always builds a
fresh one.

Randomness contract: a run of n trials draws one count table, whatever n
is. The generator derived from (seed, 0) draws one multinomial of n over the
D equally likely carriers, then one multinomial per carrier over the tree's
records with probabilities multinomial_rows(tree.dist), rows clipped at 0
and renormalised on every run. The generator derived from (seed, 1) then
splits each (carrier, record) count over the d2 equally likely values of the
sender's k, which the system-2 readout returns exactly: one multinomial per
cell. Counts are signed 64-bit integers, so n must lie in [1, 2**63).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import SchmidtState
from .discrimination import FINAL_ABSTAIN, FINAL_ME, StagePlan, me_outcome_probs, walk_stages
from .infometrics import _fold_stages, _outcome_bits, counts_mutual_info

#: Inferred hypothesis of a record that abstains.
INCONCLUSIVE = -1

#: An eavesdropper's guess on an abstained record.
GUESS_UNIFORM = "uniform"
GUESS_ME = "me"


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
    """Closed-form branch tree of a decoding strategy over one symmetric
    family, the one source of a run's closed forms, built once with its exact
    distribution. Runs build it once per configuration (_shared_tree) and
    share it, so it is read-only: its arrays refuse writes. Calling
    _BranchTree(...) builds a fresh tree.

    probs[n] is the P_s of the n-th stage that walk_stages executes; records
    n*D:(n+1)*D are its successes "s{n+1}:l", then come those of the final
    action: "f:l" for ME, "inc" for abstention. An eavesdropper (`guess` set)
    never abstains: she follows the empty "inc" column with an ME guess "g:l"
    or a uniform guess "u:l". dist is the exact P(record | hypothesis), shape
    (D, n_records), rows summing to 1: each stage's reach weight times its
    confusion table, the circulant q[(j - l) mod D] of q = me_outcome_probs,
    then the final action's rows; a uniform guess spreads the remaining
    weight evenly.
    """

    def __init__(self, coeffs, plan: StagePlan, guess=None):
        steps, rest = walk_stages(coeffs, plan.stages)
        if rest.ndim != 1:
            raise ValueError("coeffs must be a nonempty 1D vector")
        self.rank = rank = len(rest)
        # The executed steps are a prefix of the walk.
        executed = [sep for live, _, sep in steps if live]
        self.probs = tuple(float(sep.p_success) for sep in executed)
        records = [f"s{n + 1}:{l}" for n in range(len(executed)) for l in range(rank)]
        final = plan.final_action
        if final == FINAL_ME:
            records += [f"f:{l}" for l in range(rank)]
        else:
            records.append("inc")
            if guess is not None:
                records += [f"{'g' if guess == GUESS_ME else 'u'}:{l}" for l in range(rank)]
        self.records = tuple(records)
        #: Hypothesis each record infers; INCONCLUSIVE for "inc".
        self.inferred = np.array([INCONCLUSIVE if r == "inc" else int(r.split(":")[1]) for r in records])
        finals = [rest] if final == FINAL_ME or guess == GUESS_ME else []
        # One ME transform, row-independent; its rows (stages, then final) serve info_bits.
        self._q = me_outcome_probs(np.reshape([sep.b_coeffs for sep in executed] + finals, (-1, rank)))
        tables = self._q[:, (np.arange(rank)[:, None] - np.arange(rank)) % rank]
        self.dist = np.zeros((rank, len(records)))
        weight = 1.0
        for n, p_stage in enumerate(self.probs):
            self.dist[:, n * rank : (n + 1) * rank] = weight * p_stage * tables[n]
            weight *= 1.0 - p_stage
        # The final action's records are the last ones.
        if finals:
            self.dist[:, -rank:] = weight * tables[-1]
        elif guess == GUESS_UNIFORM:
            self.dist[:, -rank:] = weight / rank
        else:
            self.dist[:, -1] = weight
        for array in (self.inferred, self._q, self.dist):
            array.setflags(write=False)

    @property
    def correct(self) -> np.ndarray:
        """(D, n_records) mask of the records that infer hypothesis j in row j."""
        return self.inferred == np.arange(self.rank)[:, None]

    def info_bits(self, d2: int) -> float:
        """Exact information over equally likely messages, target-system bits
        included: the stages' ME bits folded over the final action's (log2 d2
        for abstention or a uniform guess). It is multistage_bits bit for bit."""
        bits = _outcome_bits(self._q, d2)
        n_stages = len(self.probs)
        total = bits[-1] if len(bits) > n_stages else math.log2(d2)
        return float(_fold_stages(total, self.probs, bits[:n_stages], d2, self.rank))

    def error_rate(self) -> float:
        """Weight on records inferring a wrong hypothesis, over equally likely
        hypotheses: for an eavesdropper, the sifted-key error rate."""
        return float(self.dist[~self.correct].sum() / self.rank)


#: Trees _shared_tree keeps, least recently used dropped first. A seed
#: ensemble revisits one configuration, so a few entries serve it; at 16 a
#: full memo of rank-16 two-stage trees holds about 100 KB, and of the
#: largest trees (rank 64, 63 stages, about 2 MiB each) about 32 MiB.
_TREE_MEMO_SIZE = 16


@functools.lru_cache(maxsize=_TREE_MEMO_SIZE)
def _shared_tree(coeff_bytes: bytes, plan: StagePlan, guess) -> _BranchTree:
    """The branch tree of a state's coefficients (SchmidtState.coeffs.tobytes(),
    a float64 vector), a plan and a guess, built on the first call with these
    values and shared by later ones. It is bit for bit a fresh build's tree:
    the coefficients are copied back into a new array of the same bytes."""
    return _BranchTree(np.frombuffer(coeff_bytes).copy(), plan, guess)


#: Most terms D * records * d2**2 (D records per planned stage and final action)
#: a run's information estimate may sum; the deepest plan at rank 64, d2 = 64 takes 2**30.
MAX_RUN_TERMS = 2**30


def derived_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream); bit-reproducible."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def multinomial_rows(dist: np.ndarray) -> np.ndarray:
    """Rows of `dist` clipped at 0 and divided by their sums, so that numpy's
    multinomial takes them: entries in [0, 1], partial sums at most 1 + 1e-12.
    A tree's dist alone is not enough. The Bell state's ME row holds
    1 + 2.2e-16, and a state's squared coefficients may sum to 1 within
    channel.NORM_TOL."""
    rows = np.clip(dist, 0.0, None)
    return rows / rows.sum(axis=1, keepdims=True)


def count_table(seed: int, n: int, dist: np.ndarray | None = None):
    """(generator, counts) of a run of `n` trials, both from derived_rng(seed,
    0): one multinomial of n over the D = len(dist) equally likely carriers,
    then one multinomial per carrier over the rows of `dist`, made valid by
    multinomial_rows on each call, since keeping those rows in a tree would
    double its size. Without `dist` the counts are None and the caller draws
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
    #: The branch tree the run sampled, shared read-only by every run of its
    #: configuration; the JSON report leaves it out.
    tree: _BranchTree

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
    """Seed-deterministic Monte Carlo run: one count table whatever n_trials is,
    refused past MAX_RUN_TERMS. `threads` is ignored (perfbench/ still passes it)."""
    if (terms := s.D**2 * (len(strat.plan.stages) + 1) * s.d2**2) > MAX_RUN_TERMS:
        raise ValueError(f"run of {terms} information terms exceeds the limit of {MAX_RUN_TERMS}")
    fam = _shared_tree(s.coeffs.tobytes(), strat.plan, None)
    _, by_carrier = count_table(seed, n_trials, fam.dist)
    # Stream 1 splits each (carrier, record) count over k.
    readout = derived_rng(seed, 1).multinomial(by_carrier, np.full(s.d2, 1.0 / s.d2))
    counts = np.ascontiguousarray(readout.transpose(0, 2, 1))
    per_record = by_carrier.sum(axis=0)
    successes = [int(per_record[n * fam.rank : (n + 1) * fam.rank].sum()) for n in range(len(fam.probs))]
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
        tree=fam,
    )

