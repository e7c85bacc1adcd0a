"""Law-level checks of the seeded samplers at fixed seeds.

Monte Carlo and the key-distribution run must draw their counts from the
exact distributions of the branch tree, whatever order they consume their
random streams in: record counts per (carrier, readout) against
the tree's `dist`, stage successes against their binomial laws, uniform
carrier and readout marginals, and the sift and error counts against their
closed forms.
"""

from functools import lru_cache

import numpy as np
import pytest

from densecode import (
    FINAL_ABSTAIN,
    FINAL_ME,
    GUESS_ME,
    GUESS_UNIFORM,
    DecodingStrategy,
    EveStrategy,
    SchmidtState,
    StagePlan,
    analytic_qkd_error,
    analytic_sift_rate,
    mutual_info_multistage,
    run_simulation,
    simulate_qkd,
)
from densecode.protocol_sim import _BranchTree

from conftest import assert_binomial, assert_counts_follow, random_schmidt

#: Strategy families of the Monte Carlo cases, each run at ranks 2-6.
KINDS = ("me", "sep_me", "ms_me", "ms_abstain")
MC_CASES = [(rank, kind) for rank in range(2, 7) for kind in KINDS]
MC_TRIALS = 200_000


def _mc_case(rank: int, kind: str):
    rng = np.random.default_rng(8100 + 10 * rank + KINDS.index(kind))
    s = random_schmidt(rng, rank=rank, d2=rank + int(rng.integers(0, 3)))
    if kind == "me":
        return s, DecodingStrategy.me()
    if kind == "sep_me":
        return s, DecodingStrategy.sep_me(float(rng.uniform(0.2, 1.0)))
    stages = tuple(float(x) for x in rng.uniform(0.3, 1.0, size=rank - 1))
    final = FINAL_ME if kind == "ms_me" else FINAL_ABSTAIN
    return s, DecodingStrategy.multistage(StagePlan(stages, final))


@lru_cache(maxsize=None)
def _mc_run(rank: int, kind: str):
    s, strat = _mc_case(rank, kind)
    seed = 500 + MC_CASES.index((rank, kind))
    return s, strat, run_simulation(s, strat, MC_TRIALS, seed=seed)


@pytest.mark.parametrize("rank,kind", MC_CASES)
def test_record_counts_follow_distribution(rank, kind):
    s, strat, report = _mc_run(rank, kind)
    tree = _BranchTree(s.coeffs, strat.plan)
    labels, dist = tree.records, tree.dist
    assert report.outcome_labels == labels
    assert report.joint_counts.shape == (s.D, s.d2, len(labels))
    assert int(report.joint_counts.sum()) == MC_TRIALS
    probs = np.broadcast_to(dist[:, None, :] / s.n_messages, report.joint_counts.shape)
    assert_counts_follow(report.joint_counts, probs)


@pytest.mark.parametrize("rank,kind", [c for c in MC_CASES if c[1] != "me"])
def test_stage_successes_follow_binomial_laws(rank, kind):
    s, strat, report = _mc_run(rank, kind)
    probs = mutual_info_multistage(s, strat.plan).branch_probabilities
    attempts, successes = report.stage_attempts, report.stage_successes
    assert 1 <= len(attempts) == len(successes) <= len(probs)
    assert attempts[0] == MC_TRIALS
    for i in range(1, len(attempts)):
        assert attempts[i] == attempts[i - 1] - successes[i - 1]
    for att, suc, p in zip(attempts, successes, probs):
        assert_binomial(suc, att, p)


@pytest.mark.parametrize("rank,kind", MC_CASES)
def test_message_marginals_are_uniform(rank, kind):
    """The readout k and the carrier j are each uniform on their own, which
    the joint test above checks only diluted over every record."""
    s, _, report = _mc_run(rank, kind)
    assert_counts_follow(report.joint_counts.sum(axis=(0, 2)), np.full(s.d2, 1.0 / s.d2))
    assert_counts_follow(report.joint_counts.sum(axis=(1, 2)), np.full(s.D, 1.0 / s.D))


#: Eavesdropper families of the key-distribution cases: (strategy kind, fallback).
EVES = (
    ("me", GUESS_UNIFORM),
    ("sep_me", GUESS_UNIFORM),
    ("sep_me", GUESS_ME),
    ("ms_abstain", GUESS_UNIFORM),
    ("ms_abstain", GUESS_ME),
    ("ms_me", GUESS_UNIFORM),
)
QKD_CASES = [(rank, kind, fallback) for rank in range(2, 6) for kind, fallback in EVES]
QKD_ROUNDS = 200_000


@lru_cache(maxsize=None)
def _qkd_run(rank: int, kind: str, fallback: str):
    s, strat = _mc_case(rank, kind)
    eve = EveStrategy.intercept(strat, fallback)
    seed = 700 + QKD_CASES.index((rank, kind, fallback))
    return s, eve, simulate_qkd(s, eve, QKD_ROUNDS, seed=seed)


@pytest.mark.parametrize("rank,kind,fallback", QKD_CASES)
def test_qkd_sift_and_errors_follow_closed_form(rank, kind, fallback):
    """Rounds kept and correct, kept and wrong, and discarded."""
    s, eve, report = _qkd_run(rank, kind, fallback)
    p_keep, error = analytic_sift_rate(s.coeffs), analytic_qkd_error(s.coeffs, eve)
    counts = [report.kept - report.errors, report.errors, report.n_rounds - report.kept]
    assert_counts_follow(counts, [p_keep * (1.0 - error), p_keep * error, 1.0 - p_keep])


@pytest.mark.parametrize("rank,kind,fallback", QKD_CASES)
def test_qkd_eve_counts_follow_distribution(rank, kind, fallback):
    s, eve, report = _qkd_run(rank, kind, fallback)
    tree = _BranchTree(s.coeffs, eve.strategy.plan, eve.fallback)
    assert report.tree.records == tree.records
    assert int(report.eve_counts.sum()) == report.kept
    wrong = tree.inferred != np.arange(s.D)[:, None]
    assert int(report.eve_counts[wrong].sum()) == report.errors
    assert_counts_follow(report.eve_counts, tree.dist / s.D)
    assert_counts_follow(report.eve_counts.sum(axis=1), np.full(s.D, 1.0 / s.D))


@pytest.mark.parametrize("rank", range(2, 6))
def test_qkd_without_eve_keeps_binomially_and_errs_never(rank):
    s, _ = _mc_case(rank, "me")
    report = simulate_qkd(s, EveStrategy.absent(), QKD_ROUNDS, seed=900 + rank)
    assert report.errors == 0 and report.eve_counts is None
    assert_binomial(report.kept, QKD_ROUNDS, analytic_sift_rate(s.coeffs))


#: Resources at the edges of floating point and of the input check, as
#: (d1, d2, squared coefficients): the Bell state, whose ME row holds
#: 1 + 2.2e-16; uniform rank 3; and (near-)uniform states whose squares sum
#: to 1 + 5e-11, inside the 1e-10 slack SchmidtState accepts, so that a row
#: entry or a partial row sum passes 1 by about that much.
EDGE_STATES = {
    "bell": (2, 2, [0.5, 0.5]),
    "uniform3": (3, 4, [1 / 3] * 3),
    "slack_uniform2": (2, 2, [0.5 + 2.5e-11] * 2),
    "slack_near_uniform3": (3, 3, [1 / 3, 1 / 3, 1 / 3 + 5e-11]),
}
EDGE_STRATEGIES = {
    "me": DecodingStrategy.me(),
    "sep_me": DecodingStrategy.sep_me(1.0),
    "ms_me": DecodingStrategy.multistage(StagePlan((1.0,), FINAL_ME)),
}
EDGE_CASES = [(state, kind) for state in EDGE_STATES for kind in EDGE_STRATEGIES]
#: A small run, and one large enough that numpy draws its binomials by BTPE.
EDGE_TRIALS = (20_000, 10**9)


@pytest.mark.parametrize("state,kind", EDGE_CASES)
def test_samplers_take_rows_at_float_edges(state, kind):
    """Monte Carlo and the key-distribution run take these resources and
    draw from the tree's dist."""
    d1, d2, squared = EDGE_STATES[state]
    s, strat = SchmidtState.from_squared(d1, d2, squared), EDGE_STRATEGIES[kind]
    dist = _BranchTree(s.coeffs, strat.plan).dist
    seed = 1100 + EDGE_CASES.index((state, kind))
    for n in EDGE_TRIALS:
        report = run_simulation(s, strat, n, seed=seed)
        probs = np.broadcast_to(dist[:, None, :] / s.n_messages, report.joint_counts.shape)
        assert_counts_follow(report.joint_counts, probs)

        for fallback in (GUESS_UNIFORM, GUESS_ME):
            eve = EveStrategy.intercept(strat, fallback)
            qkd = simulate_qkd(s, eve, n, seed=seed)
            assert_binomial(qkd.kept, n, analytic_sift_rate(s.coeffs))
            tree = _BranchTree(s.coeffs, strat.plan, fallback)
            assert_counts_follow(qkd.eve_counts, tree.dist / s.D)


def test_runs_of_10_to_the_12_trials_add_up():
    """One count table serves any count: a run of 10**12 trials or rounds
    tallies every one of them, and its stage tallies chain."""
    s, strat = _mc_case(4, "ms_me")
    n = 10**12
    report = run_simulation(s, strat, n, seed=31)
    assert int(report.joint_counts.sum()) == n
    attempts, successes = report.stage_attempts, report.stage_successes
    assert attempts[0] == n and len(attempts) == len(successes) == 3
    for i in range(1, len(attempts)):
        assert attempts[i] == attempts[i - 1] - successes[i - 1]
    assert all(0 <= suc <= att for att, suc in zip(attempts, successes))
    finals = report.joint_counts[:, :, report.outcome_labels.index("f:0") :].sum()
    assert finals == attempts[-1] - successes[-1]

    eve = EveStrategy.intercept(strat, GUESS_UNIFORM)
    qkd = simulate_qkd(s, eve, n, seed=32)
    assert 0 < qkd.errors < qkd.kept == int(qkd.eve_counts.sum()) < n
    assert 0 < simulate_qkd(s, EveStrategy.absent(), n, seed=33).kept < n
