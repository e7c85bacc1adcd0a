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

from .channel import SchmidtState, _is_integer
from .discrimination import FINAL_ME, StagePlan, me_outcome_probs, walk_stages
from .infometrics import _fold_stages, _outcome_bits, counts_mutual_info

#: Inferred hypothesis of a record that abstains.
INCONCLUSIVE = -1

#: An eavesdropper's guess on an abstained record.
GUESS_UNIFORM = "uniform"
GUESS_ME = "me"


#: A strategy's old name: a strategy is its StagePlan. perfbench/workloads.py imports it (ROADMAP item 1).
DecodingStrategy = StagePlan


#: Most cells D * records a branch tree may hold, D records per planned stage; a run keeps a few
#: arrays that size, each at most 64 MiB of float64. The full-depth intercept at rank 203 holds
#: 203**3 cells; the deepest run MAX_RUN_TERMS admits (rank 64, 63 stages, ME final) 64**3.
MAX_TREE_CELLS = 2**23


#: Entries of each tree memo, least recently used dropped first. A seed
#: ensemble revisits one configuration, so a few entries serve it. At 16 a
#: full _shared_tree of rank-16 two-stage trees holds about 100 KB, of the
#: deepest montecarlo trees (rank 64, 63 stages, 2 MiB each) 32 MiB, and of
#: trees at MAX_TREE_CELLS (64 MiB of dist each) 1 GiB.
_TREE_MEMO_SIZE = 16


class _BranchTree:
    """Closed-form branch tree of a decoding strategy over one symmetric
    family, the one source of a run's closed forms, built once with its exact
    distribution. Runs build it once per configuration (_shared_tree) and
    share it, so it is read-only: its arrays refuse writes. Calling
    _BranchTree(...) builds a fresh tree.

    probs[n] is the P_s of the n-th stage that walk_stages executes; records
    n*D:(n+1)*D are its successes "s{n+1}:l", then comes the final block:
    "f:l" for ME, "inc" for abstention, and for an eavesdropper (`guess` set),
    who never abstains, an ME guess "g:l" or a uniform guess "u:l". dist is
    the exact P(record | hypothesis), shape (D, n_records), rows summing to 1:
    each stage's reach weight times its confusion table, the circulant
    q[(j - l) mod D] of q = me_outcome_probs, then the final block's: the
    remaining weight times the ME table, or spread evenly over the block.
    """

    def __init__(self, coeffs, plan: StagePlan, guess=None):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 1:
            raise ValueError("coeffs must be a nonempty 1D vector")
        self.rank = rank = len(coeffs)
        # The final block's kind, from the final action and the guess that replaces abstention.
        kind = "f" if plan.final_action == FINAL_ME else "inc" if guess is None else "g" if guess == GUESS_ME else "u"
        n_finals = 1 if kind == "inc" else rank
        if (cells := rank * (rank * len(plan.stages) + n_finals)) > MAX_TREE_CELLS:
            raise ValueError(f"branch tree of {cells} cells exceeds the limit of {MAX_TREE_CELLS}")
        steps, rest = walk_stages(coeffs, plan.stages)
        # The executed steps are a prefix of the walk.
        executed = [(p_stage, b_coeffs) for live, _, p_stage, b_coeffs in steps if live]
        self.probs = tuple(float(p_stage) for p_stage, _ in executed)
        self._kind = kind
        #: The hypothesis each record infers: l for a record ending ":l", INCONCLUSIVE for "inc".
        self.inferred = np.arange(rank * len(executed) + n_finals) % rank
        if kind == "inc":
            self.inferred[-1] = INCONCLUSIVE
        me_final = [rest] if kind in ("f", "g") else []
        # One ME transform, row-independent; its rows (stages, then final) serve info_bits.
        self._q = me_outcome_probs(np.reshape([b_coeffs for _, b_coeffs in executed] + me_final, (-1, rank)))
        tables = self._q[:, (np.arange(rank)[:, None] - np.arange(rank)) % rank]
        self.dist = np.zeros((rank, len(self.inferred)))
        weight = 1.0
        for n, p_stage in enumerate(self.probs):
            self.dist[:, n * rank : (n + 1) * rank] = weight * p_stage * tables[n]
            weight *= 1.0 - p_stage
        # The final block's records are the last ones.
        self.dist[:, -n_finals:] = weight * tables[-1] if me_final else weight / n_finals
        for array in (self._q, self.dist, self.inferred):
            array.setflags(write=False)

    @functools.cached_property
    def records(self) -> tuple:
        """Record labels, as the class docstring names them, built on first read."""
        finals = ["inc"] if self._kind == "inc" else [f"{self._kind}:{l}" for l in range(self.rank)]
        return tuple([f"s{n + 1}:{l}" for n in range(len(self.probs)) for l in range(self.rank)] + finals)

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


@functools.lru_cache(maxsize=_TREE_MEMO_SIZE)
def _shared_tree(coeff_bytes: bytes, plan: StagePlan, guess) -> _BranchTree:
    """The branch tree of a state's coefficients (SchmidtState.coeffs.tobytes(),
    a float64 vector), a plan and a guess, built on the first call with these
    values and shared by later ones. It is bit for bit a fresh build's tree:
    the coefficients are copied back into a new array of the same bytes."""
    return _BranchTree(np.frombuffer(coeff_bytes).copy(), plan, guess)


#: Most cells D * records * d2**2 (D records per planned stage and final action) of the joint
#: table a run's information describes; the run reads its D * records * d2 block-diagonal counts.
#: The deepest plan at rank 64, d2 = 64 takes 2**30.
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
    n an integer in [1, 2**63), the range of numpy's signed 64-bit counts;
    a bool is neither."""
    if not _is_integer(seed):
        raise ValueError(f"seed {seed} must be an integer")
    if not _is_integer(n):
        raise ValueError(f"trial count {n} must be an integer")
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
    """Tallies of one seeded run; a fixed seed reproduces them bit for bit.
    Its inputs (seed, state, strategy) are the caller's."""

    n_trials: int
    joint_counts: np.ndarray
    stage_attempts: tuple
    stage_successes: tuple
    empirical_mutual_info_bits: float
    #: The branch tree the run sampled, shared read-only by every run of its
    #: configuration; the JSON report leaves it out.
    tree: _BranchTree

    @property
    def outcome_labels(self) -> tuple:
        """The record labels of the run's tree, tree.records."""
        return self.tree.records

    @property
    def empirical_success_rate(self) -> tuple:
        rates = []
        for att, suc in zip(self.stage_attempts, self.stage_successes):
            rates.append(suc / att if att else None)
        return tuple(rates)


def run_simulation(
    s: SchmidtState,
    plan: StagePlan,
    n_trials: int,
    seed: int,
    threads: int | None = None,
) -> SimulationReport:
    """Seed-deterministic Monte Carlo run: one count table whatever n_trials is,
    refused past MAX_RUN_TERMS. `threads` is ignored (perfbench/ still passes it)."""
    if (terms := s.D**2 * (len(plan.stages) + 1) * s.d2**2) > MAX_RUN_TERMS:
        raise ValueError(f"run of {terms} information terms exceeds the limit of {MAX_RUN_TERMS}")
    fam = _shared_tree(s.coeffs.tobytes(), plan, None)
    _, by_carrier = count_table(seed, n_trials, fam.dist)
    n_trials = int(n_trials)  # count_table refused a bool; the report holds a Python int.
    # Stream 1 splits each (carrier, record) count over k; the counts are its readout, held once
    # as a (D, d2, records) transposed view.
    k_probs = np.full(s.d2, 1.0 / s.d2)
    counts = derived_rng(seed, 1).multinomial(by_carrier, k_probs).transpose(0, 2, 1)
    per_record = by_carrier.sum(axis=0)
    successes = [int(per_record[n * fam.rank : (n + 1) * fam.rank].sum()) for n in range(len(fam.probs))]
    attempts = [n_trials - sum(successes[:i]) for i in range(len(successes))]
    counts.setflags(write=False)
    info_bits = counts_mutual_info(counts, n_trials)
    return SimulationReport(
        n_trials=n_trials,
        joint_counts=counts,
        stage_attempts=tuple(attempts),
        stage_successes=tuple(successes),
        empirical_mutual_info_bits=info_bits,
        tree=fam,
    )

