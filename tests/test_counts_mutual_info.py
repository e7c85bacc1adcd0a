"""Plug-in mutual information straight from the counts: bit for bit the
value of the dense integer count table (tests/dense.py:counts_table_mutual_info),
at a fraction of its memory."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from densecode import (
    FINAL_ABSTAIN,
    FINAL_ME,
    GUESS_ME,
    GUESS_UNIFORM,
    EveStrategy,
    SchmidtState,
    StagePlan,
    cli,
    counts_mutual_info,
    infometrics,
    run_simulation,
    simulate_qkd,
)
import dense
from conftest import random_schmidt, refuse_everywhere
from dense import _expand_joint, counts_table_mutual_info


def dense_mi(counts, n: int) -> float:
    """The oracle: plug-in MI of the dense integer (D*d2) x (records*d2) table."""
    return counts_table_mutual_info(_expand_joint(counts), n)


def _strategy(rng, rank: int, kind: int) -> StagePlan:
    xi = float(rng.uniform(0.0, 1.0))
    if kind == 0:
        return StagePlan.me()
    if kind == 1:
        return StagePlan.sep_me(xi)
    stages = (1.0, xi)[: rank - 1] if rank > 2 else (xi,)
    return StagePlan(stages, FINAL_ME if kind == 2 else FINAL_ABSTAIN)


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


#: The benchmark's Monte Carlo shapes (d, stages, trials, seed): a ramp state
#: of d1 = d2 = d with squared coefficients proportional to 1..d and a
#: multistage plan ending in ME, as compile_wide (rank 16) and mc_multistage
#: (rank 4) run it.
BENCHMARK_SHAPES = [(16, (1.0, 1.0), 4096, 7), (4, (1.0, 1.0, 1.0), 10**6, 1083)]


def _ramp_run(d, stages, n, seed):
    state = SchmidtState.from_squared(d, d, np.arange(1, d + 1) / (d * (d + 1) / 2))
    return run_simulation(state, StagePlan(stages, FINAL_ME), n, seed)


@pytest.mark.parametrize("d, stages, n, seed", BENCHMARK_SHAPES)
def test_benchmark_shapes_equal_dense_oracle(d, stages, n, seed):
    report = _ramp_run(d, stages, n, seed)
    oracle = dense_mi(report.joint_counts, n)
    assert counts_mutual_info(report.joint_counts, n) == oracle
    assert report.empirical_mutual_info_bits == oracle


def test_terms_take_numpys_log2():
    """The rank-4 benchmark run whose estimate tells numpy's log2 from libm's:
    summed with math.log2, the same terms give 3.1384260076353203."""
    report = _ramp_run(*BENCHMARK_SHAPES[1])
    assert report.empirical_mutual_info_bits == 3.1384260076353208
    table = _expand_joint(report.joint_counts)
    row, col = table.sum(axis=1) / 10**6, table.sum(axis=0) / 10**6
    libm = 0.0
    for i, j in zip(*np.nonzero(table)):
        p = table[i, j] / 10**6
        libm += p * math.log2(p / (row[i] * col[j]))
    assert libm == 3.1384260076353203


@pytest.mark.parametrize("fallback", [GUESS_UNIFORM, GUESS_ME])
@pytest.mark.parametrize("rank, kind", list(itertools.product(range(2, 7), range(4))))
def test_simulate_qkd_bits_equal_dense_oracle(rank, kind, fallback):
    rng = np.random.default_rng(rank * 10 + kind + (fallback == GUESS_ME) * 500)
    s = random_schmidt(rng, rank=rank, d2=rank + 1, d1=rank)
    eve = EveStrategy.intercept(_strategy(rng, rank, kind), fallback)
    report = simulate_qkd(s, eve, 20001, seed=int(rng.integers(2**63)))
    oracle = counts_table_mutual_info(report.eve_counts, report.kept)
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(1, 40),
    st.floats(0.0, 1.0),
    st.integers(1, 30000),
    st.integers(0, 2**32 - 1),
)
def test_strided_counts_read_as_their_contiguous_copy(rank, d2, n_records, density, n, seed):
    """A strided view of a count table, every other record of a (D, records,
    d2) readout transposed as a run holds it, gives its contiguous copy's
    information bit for bit, also with all-zero rows (j, k) and columns (k, r)
    of the block table: the terms are summed in logical row-major order."""
    rng = np.random.default_rng(seed)
    live = rng.random((rank, 2 * n_records, d2)) < density
    live[rng.integers(rank), rng.integers(2 * n_records), rng.integers(d2)] = True
    readout = np.bincount(rng.choice(np.flatnonzero(live), size=n), minlength=live.size).reshape(live.shape)
    # Empty one carrier, one record and one value of k wherever another is left.
    for axis, size in enumerate(readout.shape):
        if size > 1:
            np.moveaxis(readout, axis, 0)[rng.integers(size)] = 0
    view = readout[:, ::2, :].transpose(0, 2, 1)
    assume(view.any())
    copy = np.ascontiguousarray(view)
    n = int(copy.sum())
    assert counts_mutual_info(view, n) == counts_mutual_info(copy, n) == dense_mi(copy, n)


@pytest.mark.parametrize("n, dropped", [(10**15 - 1, False), (10**15, True), (2 * 10**15, True)])
def test_zero_rule_at_large_trial_counts(monkeypatch, n, dropped):
    """A count of 1 is p = 1/n, which the zero rule drops from n = 1e15 on, as the oracle does."""
    half = n // 2
    counts = np.array([[[half - 1, 1]], [[1, n - half - 1]]], dtype=np.int64)
    bits = counts_mutual_info(counts, n)
    assert bits == dense_mi(counts, n)
    monkeypatch.setattr(infometrics, "_ZERO_PROB", 0.0)
    assert (counts_mutual_info(counts, n) != bits) == dropped


def test_rejects_counts_that_do_not_sum_to_n():
    counts = np.ones((2, 2, 3), dtype=np.int64)
    for bad in (np.ones((4, 3), dtype=np.int64), -counts):
        with pytest.raises(ValueError):
            counts_mutual_info(bad, 12)
    # Integer marginals are exact only for integer counts.
    with pytest.raises(ValueError, match="integer"):
        counts_mutual_info(np.ones((2, 2, 3)), 12)
    with pytest.raises(ValueError, match="n = 11"):
        counts_mutual_info(counts, 11)
    # n is an integer like a run's trial count: neither a float nor a bool passes.
    for wrong_type in (12.0, np.float64(12.0)):
        with pytest.raises(ValueError, match=f"n = {wrong_type}$"):
            counts_mutual_info(counts, wrong_type)
    with pytest.raises(ValueError, match="n = True$"):
        counts_mutual_info(np.ones((1, 1, 1), dtype=np.int64), True)
    assert counts_mutual_info(counts, 12) == dense_mi(counts, 12)


def test_run_counts_are_one_read_only_view_of_the_readout(qutrit_state):
    """The counts a run reports are its (D, records, d2) readout transposed,
    not a copy of it, and refuse writes."""
    strat = StagePlan((1.0, 1.0), FINAL_ME)
    report = run_simulation(qutrit_state, strat, 5000, seed=3)
    counts = report.joint_counts
    records = len(report.tree.records)
    assert counts.shape == (qutrit_state.D, qutrit_state.d2, records)
    assert counts.base is not None and counts.base.shape == (qutrit_state.D, records, qutrit_state.d2)
    assert not counts.flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        counts[...] = 0


def test_rank64_run_stays_small():
    """One dense joint table alone would be 316 MiB here."""
    wide = SchmidtState.from_squared(64, 64, np.arange(1, 65) / (64 * 65 / 2))
    tracemalloc.start()
    try:
        report = run_simulation(wide, StagePlan.sep_me(1.0), 4096, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.joint_counts.sum() == 4096
    assert peak < 60 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_sparse_wide_table_peaks_below_a_quarter_of_it():
    """No float copy of the counts: 4096 trials over a 32 MiB table."""
    rng = np.random.default_rng(23)
    counts = np.zeros((16, 64, 4096), dtype=np.int64)
    np.add.at(counts.ravel(), rng.integers(counts.size, size=4096), 1)
    tracemalloc.start()
    try:
        bits = counts_mutual_info(counts, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bits > 0.0
    assert peak < counts.nbytes / 4, f"peak {peak / 2**20:.1f} MiB"


def test_runtime_path_builds_no_dense_joint(monkeypatch, tmp_path):
    refuse_everywhere(
        monkeypatch, [dense._expand_joint, dense.mutual_info_from_joint, dense.counts_table_mutual_info]
    )
    with pytest.raises(AssertionError):
        dense.mutual_info_from_joint(np.eye(2) / 2)
    s = SchmidtState.from_squared(5, 4, [0.1, 0.2, 0.3, 0.4])
    run_simulation(s, StagePlan((1.0, 0.5), FINAL_ABSTAIN), 5000, seed=1)
    simulate_qkd(s, EveStrategy.intercept(StagePlan.sep_me(0.6), GUESS_ME), 5000, seed=3)
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


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.5, True, False])
def test_seed_outside_u64_is_rejected(seed, qubit_state):
    with pytest.raises(ValueError, match=f"seed {seed} "):
        run_simulation(qubit_state, StagePlan.me(), 10, seed)
    with pytest.raises(ValueError, match=f"seed {seed} "):
        simulate_qkd(qubit_state, EveStrategy(), 10, seed)


def test_largest_u64_seed_runs(qubit_state, tmp_path):
    assert run_simulation(qubit_state, StagePlan.me(), 10, 2**64 - 1).n_trials == 10
    assert simulate_qkd(qubit_state, EveStrategy(), 10, 2**64 - 1).n_rounds == 10
    # The JSON report carries the seed as parsed, every digit kept.
    for command in ("montecarlo", "qkd"):
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, "--seed", str(2**64 - 1), "--trials", "10", "--out", str(out)]) == 0
        assert json.loads(out.with_suffix(".json").read_text())["seed"] == 2**64 - 1


def _runs(state, n):
    """Monte Carlo and both kinds of key-distribution run of `n` trials."""
    strat = StagePlan.sep_me(1.0)
    eve = EveStrategy.intercept(strat, GUESS_ME)
    return (
        lambda: run_simulation(state, strat, n, 3),
        lambda: simulate_qkd(state, EveStrategy(), n, 3),
        lambda: simulate_qkd(state, eve, n, 3),
    )


@pytest.mark.parametrize("n", [0, -1, 2**63, 2**70, 10.5, True])
def test_count_outside_signed_64_bits_is_rejected(n, qubit_state):
    for run in _runs(qubit_state, n):
        with pytest.raises(ValueError, match=f"trial count {n} "):
            run()


def test_numpy_integer_seed_and_count_run(qubit_state):
    mc, plain, intercepted = (run() for run in _runs(qubit_state, np.int64(10)))
    assert int(mc.joint_counts.sum()) == 10 and plain.n_rounds == intercepted.n_rounds == 10
    # The reports hold Python numbers, so that the JSON writer takes them.
    assert type(mc.n_trials) is int and {type(n) for n in mc.stage_attempts} == {int}
    assert type(plain.n_rounds) is type(intercepted.n_rounds) is int
    assert type(plain.sift_rate) is type(intercepted.sift_rate) is float
    for report in (mc, plain, intercepted):
        assert json.loads(cli._report_json(report, {}))["n_trials" if report is mc else "n_rounds"] == 10
    assert run_simulation(qubit_state, StagePlan.me(), 10, np.uint64(3)).n_trials == 10


def test_largest_signed_64_bit_count_runs(qubit_state):
    n = 2**63 - 1
    mc, plain, intercepted = (run() for run in _runs(qubit_state, n))
    assert int(mc.joint_counts.sum()) == n == mc.stage_attempts[0]
    assert 0 < plain.kept < n
    assert 0 < intercepted.kept == int(intercepted.eve_counts.sum()) < n
