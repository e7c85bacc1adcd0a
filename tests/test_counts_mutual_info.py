"""Plug-in mutual information straight from the counts: bit for bit the
textbook value of the dense joint table, at a fraction of its memory."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecode import (
    FINAL_ABSTAIN,
    FINAL_ME,
    GUESS_ME,
    GUESS_UNIFORM,
    DecodingStrategy,
    EveStrategy,
    SchmidtState,
    StagePlan,
    cli,
    counts_mutual_info,
    run_simulation,
    simulate_qkd,
)
import dense
from conftest import random_schmidt, refuse_everywhere
from dense import _expand_joint, mutual_info_from_joint


def dense_mi(counts, n: int) -> float:
    """The oracle: textbook MI of the dense (D*d2) x (records*d2) table."""
    return mutual_info_from_joint(_expand_joint(counts.astype(float), n, counts.shape[1]))


def _strategy(rng, rank: int, kind: int) -> DecodingStrategy:
    xi = float(rng.uniform(0.0, 1.0))
    if kind == 0:
        return DecodingStrategy.me()
    if kind == 1:
        return DecodingStrategy.sep_me(xi)
    stages = (1.0, xi)[: rank - 1] if rank > 2 else (xi,)
    return DecodingStrategy.multistage(StagePlan(stages, FINAL_ME if kind == 2 else FINAL_ABSTAIN))


#: Ranks 2-6 x {me, sep_me, multistage ending me, ending abstain} x trial
#: counts, most of them not powers of two.
CASES = list(itertools.product(range(2, 7), range(4), (100, 997, 4096, 20001)))


@pytest.mark.parametrize("rank, kind, n", CASES)
def test_run_simulation_bits_equal_dense_oracle(rank, kind, n):
    rng = np.random.default_rng(rank * 1000 + kind * 100 + n)
    s = random_schmidt(rng, rank=rank, d2=rank + int(rng.integers(0, 3)), d1=rank)
    report = run_simulation(s, _strategy(rng, rank, kind), n, seed=int(rng.integers(2**63)))
    oracle = dense_mi(report.joint_counts, n)
    assert counts_mutual_info(report.joint_counts, n) == oracle
    assert report.empirical_mutual_info_bits == oracle


@pytest.mark.parametrize("fallback", [GUESS_UNIFORM, GUESS_ME])
@pytest.mark.parametrize("rank, kind", list(itertools.product(range(2, 7), range(4))))
def test_simulate_qkd_bits_equal_dense_oracle(rank, kind, fallback):
    rng = np.random.default_rng(rank * 10 + kind + (fallback == GUESS_ME) * 500)
    s = random_schmidt(rng, rank=rank, d2=rank + 1, d1=rank)
    eve = EveStrategy.intercept(_strategy(rng, rank, kind), fallback)
    report = simulate_qkd(s, eve, 20001, seed=int(rng.integers(2**63)))
    oracle = mutual_info_from_joint(report.eve_counts.astype(float) / report.kept)
    assert counts_mutual_info(report.eve_counts[:, None, :], report.kept) == oracle
    assert report.eve_info_bits == oracle


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(1, 40),
    st.floats(0.0, 1.0),
    st.integers(1, 30000),
    st.integers(0, 2**32 - 1),
)
def test_random_counts_bits_equal_dense_oracle(rank, d2, n_records, density, n, seed):
    """Arbitrary count tables, sparse or dense, with any total."""
    rng = np.random.default_rng(seed)
    live = rng.random(rank * d2 * n_records) < density
    live[rng.integers(live.size)] = True
    cells = rng.choice(np.flatnonzero(live), size=n)
    counts = np.bincount(cells, minlength=live.size).reshape(rank, d2, n_records)
    assert counts_mutual_info(counts, n) == dense_mi(counts, n)


def test_rejects_counts_that_do_not_sum_to_n():
    counts = np.ones((2, 2, 3), dtype=np.int64)
    for bad in (np.ones((4, 3)), -counts):
        with pytest.raises(ValueError):
            counts_mutual_info(bad, 12)
    with pytest.raises(ValueError, match="n = 11"):
        counts_mutual_info(counts, 11)
    assert counts_mutual_info(counts, 12) == dense_mi(counts, 12)


def test_rank64_run_stays_small():
    """One dense joint table alone would be 316 MiB here."""
    wide = SchmidtState.from_squared(64, 64, np.arange(1, 65) / (64 * 65 / 2))
    tracemalloc.start()
    try:
        report = run_simulation(wide, DecodingStrategy.sep_me(1.0), 4096, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.joint_counts.sum() == 4096
    assert peak < 60 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_runtime_path_builds_no_dense_joint(monkeypatch, tmp_path):
    refuse_everywhere(monkeypatch, [dense._expand_joint, dense.mutual_info_from_joint])
    with pytest.raises(AssertionError):
        dense.mutual_info_from_joint(np.eye(2) / 2)
    s = SchmidtState.from_squared(5, 4, [0.1, 0.2, 0.3, 0.4])
    run_simulation(s, DecodingStrategy.multistage(StagePlan((1.0, 0.5), FINAL_ABSTAIN)), 5000, seed=1)
    simulate_qkd(s, EveStrategy.intercept(DecodingStrategy.sep_me(0.6), GUESS_ME), 5000, seed=3)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "state": {"d1": 5, "d2": 4, "coeffs": [0.1, 0.2, 0.3, 0.4], "squared": True},
                "strategy": {"kind": "sep_me", "xi": 0.7},
                "eve": {"kind": "intercept", "strategy": {"kind": "me"}},
                "trials": 5000,
            }
        )
    )
    for command in ("montecarlo", "qkd"):
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path / f"{command}.csv")]) == 0


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seed_outside_u64_is_rejected(seed, qubit_state):
    with pytest.raises(ValueError, match=f"seed {seed} "):
        run_simulation(qubit_state, DecodingStrategy.me(), 10, seed)
    with pytest.raises(ValueError, match=f"seed {seed} "):
        simulate_qkd(qubit_state, EveStrategy.absent(), 10, seed)


def test_largest_u64_seed_runs(qubit_state):
    assert run_simulation(qubit_state, DecodingStrategy.me(), 10, 2**64 - 1).seed == 2**64 - 1
    assert simulate_qkd(qubit_state, EveStrategy.absent(), 10, 2**64 - 1).seed == 2**64 - 1


def _runs(state, n):
    """Monte Carlo and both kinds of key-distribution run of `n` trials."""
    strat = DecodingStrategy.sep_me(1.0)
    eve = EveStrategy.intercept(strat, GUESS_ME)
    return (
        lambda: run_simulation(state, strat, n, 3),
        lambda: simulate_qkd(state, EveStrategy.absent(), n, 3),
        lambda: simulate_qkd(state, eve, n, 3),
    )


@pytest.mark.parametrize("n", [0, -1, 2**63, 2**70])
def test_count_outside_signed_64_bits_is_rejected(n, qubit_state):
    for run in _runs(qubit_state, n):
        with pytest.raises(ValueError, match=f"trial count {n} "):
            run()


def test_largest_signed_64_bit_count_runs(qubit_state):
    n = 2**63 - 1
    mc, plain, intercepted = (run() for run in _runs(qubit_state, n))
    assert int(mc.joint_counts.sum()) == n == mc.stage_attempts[0]
    assert 0 < plain.kept < n
    assert 0 < intercepted.kept == int(intercepted.eve_counts.sum()) < n
