"""The closed-form branch tree against the circuit oracle, and a guard that
the runtime path builds no dense circuit."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import densecode
import densecode.gates
import densecode.tensor_core
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
    analytic_record_distribution,
    analytic_sift_rate,
    cli,
    run_simulation,
    simulate_qkd,
)
from densecode.channel import GROUP_TOL_SQ
from densecode.protocol_sim import _BranchTree, multinomial_rows

import dense
from circuit_oracle import (
    AGREE_ATOL,
    NEAR_TIE_ATOL,
    NEAR_TIE_MIN_EXCESS,
    CircuitTree,
    circuit_sift_rate,
    inferred,
    verify_channel,
)
from conftest import count_everywhere, refuse_everywhere

FINALS = (FINAL_ME, FINAL_ABSTAIN)
GUESSES = (None, GUESS_ME, GUESS_UNIFORM)
#: numpy's multinomial rejects probability rows with an entry outside [0, 1]
#: or with all but the last entry summing above 1 + 1e-12. `distribution()`
#: rows sum to 1 within this tolerance, but an entry may pass 1 by an ulp
#: (the Bell state's ME row), so Monte Carlo samples `multinomial_rows` of
#: them: inside numpy's bounds and within this tolerance of `distribution()`.
PVALS_ATOL = 1e-12
#: State families of the oracle cases; "gap_above" puts the two smallest
#: squared coefficients just outside one multiplicity class.
KINDS = ("random", "tie", "uniform", "gap_above")


def _state(rng, rank, d1, d2, kind, gap=0.0, m2_max=None):
    """Schmidt state of `kind`, coefficient order shuffled. For "tie" and
    "gap_above" (or a nonzero `gap`) the two smallest squares differ by `gap`."""
    if kind == "uniform":
        return SchmidtState.from_squared(d1, d2, np.full(rank, 1.0 / rank))
    floor = 0.03
    sq = np.sort(floor + (1.0 - rank * floor) * rng.dirichlet(np.ones(rank)))
    if m2_max is not None:
        sq[0] = min(sq[0], m2_max)
    if kind == "gap_above":
        gap = GROUP_TOL_SQ * float(rng.uniform(1.01, 3.0))
    if kind != "random":
        if rank == 2:
            sq[0] = (1.0 - gap) / 2.0
        else:
            sq[2:] *= (1.0 - 2.0 * sq[0] - gap) / sq[2:].sum()
        sq[1] = sq[0] + gap
    rng.shuffle(sq)
    return SchmidtState.from_squared(d1, d2, sq)


def _plan(rng, rank):
    """Stage distinguishabilities drawn from {0, 1, uniform}."""
    depth = int(rng.integers(0, rank))
    return tuple(float(rng.choice([0.0, 1.0, rng.uniform()])) for _ in range(depth))


def _oracle_error(tree):
    """Sifted error from the circuit tree: weight on wrong inferences."""
    wrong = inferred(tree.records) != np.arange(tree.rank)[:, None]
    return float(tree.distribution()[wrong].sum() / tree.rank)


def _compare(s, stages, final, guess):
    """Worst distribution gap between the closed-form tree and the circuit;
    records and stage counts must agree exactly."""
    tree = _BranchTree(s.coeffs, StagePlan(stages, final), guess)
    oracle = CircuitTree(s, stages, final, guess)
    assert tree.records == oracle.records
    assert len(tree.stage_entries) == len(oracle.stages)
    return float(np.max(np.abs(tree.distribution() - oracle.distribution())))


def test_tree_matches_circuit_oracle():
    rng = np.random.default_rng(20261018)
    ranks, combos, xis, embedded = set(), set(), set(), False
    for case in range(240):
        rank = 2 + case % 5
        d1 = rank + case % 3
        d2 = rank + (case // 5) % 2
        kind = KINDS[(case // 2) % 4]
        s = _state(rng, rank, d1, d2, kind)
        readout = verify_channel(s)
        assert np.allclose(readout, np.eye(s.d2)[None, :, :], atol=AGREE_ATOL)
        stages = _plan(rng, rank)
        final = FINALS[case % 2]
        guess = GUESSES[(case // 8) % 3]
        assert _compare(s, stages, final, guess) <= AGREE_ATOL, (case, kind, stages, final, guess)
        dist = _BranchTree(s.coeffs, StagePlan(stages, final), guess).distribution()
        assert dist.min() >= 0.0, case
        assert np.max(np.abs(dist.sum(axis=1) - 1.0)) <= PVALS_ATOL, case
        rows = multinomial_rows(dist)
        assert rows.min() >= 0.0 and rows.max() <= 1.0, case
        assert np.max(rows[:, :-1].sum(axis=1)) <= 1.0 + PVALS_ATOL, case
        assert np.max(np.abs(rows - dist)) <= PVALS_ATOL, case
        assert abs(analytic_sift_rate(s.coeffs) - circuit_sift_rate(s)) <= AGREE_ATOL
        if guess is not None:
            eve = EveStrategy.intercept(DecodingStrategy.multistage(StagePlan(stages, final)), guess)
            oracle = CircuitTree(s, stages, final, guess)
            assert abs(analytic_qkd_error(s.coeffs, eve) - _oracle_error(oracle)) <= AGREE_ATOL
        ranks.add(rank)
        combos.add((kind, final, guess))
        xis.update("0" if x == 0.0 else "1" if x == 1.0 else "u" for x in stages)
        embedded |= d1 > rank
    assert ranks == {2, 3, 4, 5, 6}
    assert combos == set(itertools.product(KINDS, FINALS, GUESSES))
    assert xis == {"0", "1", "u"} and embedded


@pytest.mark.parametrize("gap", [1e-11, 1e-10, 9.9e-10])
def test_near_tie_tree_within_named_bound(gap):
    """A gap <= GROUP_TOL_SQ between the two smallest squares: the closed form
    drops a level that the circuit keeps with a tiny amplitude."""
    rng = np.random.default_rng(int(gap * 1e13))
    worst = 0.0
    m2_max = (1.0 - NEAR_TIE_MIN_EXCESS) / 4
    for case in range(24):
        rank = 3 + case % 2
        s = _state(rng, rank, rank + case % 3, rank, "tie", gap=gap, m2_max=m2_max)
        assert 1.0 - rank * float(np.min(s.coeffs**2)) >= NEAR_TIE_MIN_EXCESS
        stages = tuple(float(rng.choice([0.5, 1.0])) for _ in range(rank - 1))
        final = FINALS[case % 2]
        worst = max(worst, _compare(s, stages, final, GUESSES[case % 3]))
    # The cases really are near ties: the two trees differ beyond rounding.
    assert AGREE_ATOL < worst <= NEAR_TIE_ATOL


_DENSE = (
    (dense, "encode"),
    (densecode.gates, "gxor"),
    (densecode.tensor_core, "apply"),
    (densecode.tensor_core, "born_probabilities"),
    (densecode.tensor_core, "project_subsystem"),
    (dense, "dilation_unitary"),
    (dense, "me_measurement"),
)


def test_runtime_path_builds_no_dense_circuit(monkeypatch, tmp_path):
    refuse_everywhere(monkeypatch, [getattr(module, name) for module, name in _DENSE])
    with pytest.raises(AssertionError):
        dense.encode(None, None)
    s = SchmidtState.from_squared(5, 4, [0.1, 0.2, 0.3, 0.4])
    strat = DecodingStrategy.multistage(StagePlan((1.0, 0.5), FINAL_ME))
    eve = EveStrategy.intercept(DecodingStrategy.sep_me(0.6), GUESS_ME)
    run_simulation(s, strat, 5000, seed=1)
    simulate_qkd(s, eve, 5000, seed=3)
    analytic_record_distribution(s, strat)
    dense.analytic_joint(s, strat)
    analytic_qkd_error(s.coeffs, eve)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "state": {"d1": 5, "d2": 4, "coeffs": [0.1, 0.2, 0.3, 0.4], "squared": True},
                "strategy": {"kind": "multistage", "stages": [{"xi": 1.0}, {"xi": 0.5}], "final": "me"},
                "eve": {"kind": "intercept", "strategy": {"kind": "me"}},
                "trials": 5000,
            }
        )
    )
    for command in ("montecarlo", "qkd"):
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path / f"{command}.csv")]) == 0
    # Rank 64: one dense (d1*d2)^2 operator alone would be 268 MB.
    wide = SchmidtState.from_squared(64, 64, np.arange(1, 65) / (64 * 65 / 2))
    report = run_simulation(wide, DecodingStrategy.sep_me(1.0), 4096, seed=4)
    assert report.joint_counts.sum() == 4096
    plan = DecodingStrategy.multistage(StagePlan((1.0, 1.0), FINAL_ABSTAIN))
    qkd = simulate_qkd(wide, EveStrategy.intercept(plan, GUESS_UNIFORM), 4096, seed=5)
    assert qkd.eve_counts.sum() == qkd.kept


def test_runtime_imports_no_dense_module():
    # A fresh interpreter, so no test has imported the dense modules yet.
    src = str(Path(densecode.__file__).resolve().parent.parent)
    code = (
        "import sys, densecode, densecode.cli; "
        "print([m for m in ('densecode.tensor_core', 'densecode.gates') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


#: The package's public names; a second sampler or wrapper must be added here on purpose.
PUBLIC_API = [
    "DecodingStrategy", "EveStrategy", "FINAL_ABSTAIN", "FINAL_ME", "GUESS_ME", "GUESS_UNIFORM",
    "INCONCLUSIVE", "InfoReport", "QkdReport", "SchmidtState", "SimulationReport", "StagePlan",
    "analytic_qkd_error", "analytic_record_distribution", "analytic_sift_rate",
    "channel", "counts_mutual_info", "derived_rng", "discrimination", "infometrics",
    "me_outcome_probs", "mutual_info_me", "mutual_info_multistage",
    "mutual_info_sep", "protocol_sim", "qkd", "run_simulation", "simulate_qkd",
]


def test_public_api_is_pinned():
    # A fresh interpreter: other tests import submodules such as cli into the package.
    src = str(Path(densecode.__file__).resolve().parent.parent)
    code = "import densecode; print(sorted(n for n in dir(densecode) if not n.startswith('_')))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == repr(PUBLIC_API)
    # A strategy is its plan, an eavesdropper her strategy: no separate kind to disagree with.
    assert [f.name for f in dataclasses.fields(DecodingStrategy)] == ["plan"]
    assert [f.name for f in dataclasses.fields(EveStrategy)] == ["strategy", "fallback"]


def test_sweeps_and_runs_build_no_operator(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("dense Operator built on the runtime path")

    monkeypatch.setattr(densecode.tensor_core.Operator, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        densecode.tensor_core.Operator.identity(2)
    for argv in (
        ["sweep-me", "--d1", "4", "--d2", "4", "--grid", "5"],
        ["sweep-sep"],
        ["sweep-multistage", "--d1", "4", "--d2", "4", "--grid", "5"],
    ):
        assert cli.main([*argv, "--out", str(tmp_path / "sweep.csv")]) == 0
    s = SchmidtState.from_squared(5, 4, [0.1, 0.2, 0.3, 0.4])
    run_simulation(s, DecodingStrategy.multistage(StagePlan((1.0, 0.5), FINAL_ME)), 5000, seed=1)
    simulate_qkd(s, EveStrategy.intercept(DecodingStrategy.sep_me(0.6), GUESS_ME), 5000, seed=3)


@pytest.mark.parametrize(
    "squared, stages, final, guess",
    [
        ([0.1, 0.2, 0.3, 0.4], (1.0, 1.0, 1.0), FINAL_ME, None),
        ([0.1, 0.2, 0.3, 0.4], (), FINAL_ME, None),
        ([0.1, 0.2, 0.3, 0.4], (0.5, 1.0), FINAL_ABSTAIN, None),
        ([0.1, 0.2, 0.3, 0.4], (1.0, 0.5), FINAL_ABSTAIN, GUESS_ME),
        ([0.1, 0.2, 0.3, 0.4], (1.0,), FINAL_ABSTAIN, GUESS_UNIFORM),
        # A sure first stage cuts the walk; the final reads that stage's input.
        ([0.2, 0.3, 0.5], (0.0, 1.0), FINAL_ME, None),
        # Rank 1: the stage is not executed and nothing needs a transform.
        ([1.0], (1.0,), FINAL_ABSTAIN, None),
    ],
)
def test_branch_tree_makes_one_me_transform(monkeypatch, squared, stages, final, guess):
    """Every stage's separated family and the final family go through one
    batched me_outcome_probs call, whatever the plan."""
    calls = []

    def counted(coeffs):
        calls.append(np.shape(coeffs))
        return densecode.discrimination.me_outcome_probs(coeffs)

    monkeypatch.setattr(densecode.protocol_sim, "me_outcome_probs", counted)
    s = SchmidtState.from_squared(len(squared), len(squared), squared)
    tree = _BranchTree(s.coeffs, StagePlan(stages, final), guess)
    needs_final = final == FINAL_ME or guess == GUESS_ME
    assert calls == [(len(tree.stage_entries) + needs_final, s.D)]
    assert (tree.final_table is not None) == needs_final
    calls.clear()
    run_simulation(s, DecodingStrategy.multistage(StagePlan(stages, final)), 1000, seed=2)
    assert len(calls) == 1


def test_sweep_multistage_walks_the_hierarchy_once(monkeypatch, tmp_path):
    """Every plan column is a prefix of one stage walk: one input check, one
    separation per stage, and ME transforms of both stages' separated
    families, of the second stage's input and of the states themselves."""
    discrimination = densecode.discrimination
    walks = count_everywhere(monkeypatch, discrimination.walk_stages)
    checks = count_everywhere(monkeypatch, discrimination._checked)
    separations = count_everywhere(monkeypatch, discrimination._separate)
    transforms = count_everywhere(monkeypatch, discrimination.me_outcome_probs)
    argv = ["sweep-multistage", "--d1", "4", "--d2", "4", "--grid", "5", "--out", str(tmp_path / "ms.csv")]
    assert cli.main(argv) == 0
    assert len(walks) == 1 and len(checks) == 1 and len(separations) == 2
    assert len(transforms) <= 4
