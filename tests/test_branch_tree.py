"""The closed-form branch tree against the circuit oracle, a guard that the
runtime path builds no dense circuit, and the memo that lets runs of one
configuration share one read-only tree."""

import dataclasses
import importlib
import itertools
import json
import os
import subprocess
import sys
import types
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
    EveStrategy,
    SchmidtState,
    StagePlan,
    analytic_qkd_error,
    analytic_sift_rate,
    cli,
    run_simulation,
    simulate_qkd,
)
from densecode import discrimination, protocol_sim, qkd
from densecode.channel import GROUP_TOL_SQ
from densecode.discrimination import SURE_SUCCESS
from densecode.infometrics import multistage_bits
from densecode.protocol_sim import _BranchTree, _shared_tree, multinomial_rows

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
from conftest import count_everywhere, random_schmidt, refuse_everywhere

FINALS = (FINAL_ME, FINAL_ABSTAIN)
GUESSES = (None, GUESS_ME, GUESS_UNIFORM)
#: numpy's multinomial rejects probability rows with an entry outside [0, 1]
#: or with all but the last entry summing above 1 + 1e-12. A tree's `dist`
#: rows sum to 1 within this tolerance, but an entry may pass 1 by an ulp
#: (the Bell state's ME row), so Monte Carlo samples `multinomial_rows` of
#: them: inside numpy's bounds and within this tolerance of `dist`.
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
    assert len(tree.probs) == len(oracle.stages)
    return float(np.max(np.abs(tree.dist - oracle.distribution())))


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
        dist = _BranchTree(s.coeffs, StagePlan(stages, final), guess).dist
        assert dist.min() >= 0.0, case
        assert np.max(np.abs(dist.sum(axis=1) - 1.0)) <= PVALS_ATOL, case
        rows = multinomial_rows(dist)
        assert rows.min() >= 0.0 and rows.max() <= 1.0, case
        assert np.max(rows[:, :-1].sum(axis=1)) <= 1.0 + PVALS_ATOL, case
        assert np.max(np.abs(rows - dist)) <= PVALS_ATOL, case
        assert abs(analytic_sift_rate(s.coeffs) - circuit_sift_rate(s)) <= AGREE_ATOL
        if guess is not None:
            eve = EveStrategy.intercept(StagePlan(stages, final), guess)
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
    strat = StagePlan((1.0, 0.5), FINAL_ME)
    eve = EveStrategy.intercept(StagePlan.sep_me(0.6), GUESS_ME)
    run_simulation(s, strat, 5000, seed=1)
    simulate_qkd(s, eve, 5000, seed=3)
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
    report = run_simulation(wide, StagePlan.sep_me(1.0), 4096, seed=4)
    assert report.joint_counts.sum() == 4096
    plan = StagePlan((1.0, 1.0), FINAL_ABSTAIN)
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
    "analytic_qkd_error", "analytic_sift_rate",
    "channel", "counts_mutual_info", "derived_rng", "discrimination", "infometrics",
    "me_outcome_probs", "mutual_info_me", "mutual_info_multistage",
    "protocol_sim", "qkd", "run_simulation", "simulate_qkd",
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
    assert [f.name for f in dataclasses.fields(StagePlan)] == ["stages", "final_action"]
    assert [f.name for f in dataclasses.fields(EveStrategy)] == ["strategy", "fallback"]


#: Per runtime module, the public module-level functions defined there. perfbench's tracer wraps each of them and
#: counts its calls in the module's layer, so a helper made public changes the per-layer figures.
TRACED_FUNCTIONS = {
    "channel": ["check_coeffs"],
    "discrimination": ["me_outcome_probs", "separate", "walk_stages"],
    "infometrics": [
        "counts_mutual_info", "me_bits", "multistage_bits", "multistage_columns", "mutual_info_me",
        "mutual_info_multistage",
    ],
    "protocol_sim": ["count_table", "derived_rng", "multinomial_rows", "run_simulation"],
    "qkd": ["analytic_qkd_error", "analytic_sift_rate", "simulate_qkd"],
    "cli": ["main", "montecarlo_summary"],
}


@pytest.mark.parametrize("module", TRACED_FUNCTIONS)
def test_public_functions_are_pinned(module):
    namespace = importlib.import_module(f"densecode.{module}")
    defined = sorted(
        name
        for name, obj in vars(namespace).items()
        if isinstance(obj, types.FunctionType) and obj.__module__ == namespace.__name__ and not name.startswith("_")
    )
    assert defined == TRACED_FUNCTIONS[module]


def test_old_strategy_names_are_identities():
    # perfbench/workloads.py builds DecodingStrategy.multistage(plan) and reads its .plan.
    p = StagePlan((1.0, 0.5), FINAL_ME)
    assert densecode.DecodingStrategy is StagePlan
    assert StagePlan.multistage(p) is p and p.plan is p


def test_reports_hold_only_what_the_run_produced(qubit_state):
    # The seed, state and policy are the caller's inputs; cli writes them into the JSON report.
    assert [f.name for f in dataclasses.fields(densecode.SimulationReport)] == [
        "n_trials", "joint_counts", "stage_attempts", "stage_successes", "empirical_mutual_info_bits", "tree",
    ]
    report = run_simulation(qubit_state, StagePlan.me(), 10, seed=0)
    assert report.outcome_labels is report.tree.records
    assert [f.name for f in dataclasses.fields(densecode.QkdReport)] == [
        "n_rounds", "kept", "errors", "sift_rate", "sifted_error_rate", "eve_info_bits", "eve_counts", "tree",
    ]


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
    run_simulation(s, StagePlan((1.0, 0.5), FINAL_ME), 5000, seed=1)
    simulate_qkd(s, EveStrategy.intercept(StagePlan.sep_me(0.6), GUESS_ME), 5000, seed=3)


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
    assert calls == [(len(tree.probs) + needs_final, s.D)]
    assert (len(tree._q) > len(tree.probs)) == needs_final
    calls.clear()
    run_simulation(s, StagePlan(stages, final), 1000, seed=2)
    assert len(calls) == 1


def test_sweep_multistage_walks_the_hierarchy_once(monkeypatch, tmp_path):
    """Every plan column is a prefix of one stage walk: one input check, one
    separation per stage, and ME transforms of both stages' separated
    families, of the second stage's input and of the states themselves."""
    walks = count_everywhere(monkeypatch, discrimination.walk_stages)
    checks = count_everywhere(monkeypatch, discrimination._checked)
    separations = count_everywhere(monkeypatch, discrimination._separate)
    transforms = count_everywhere(monkeypatch, discrimination.me_outcome_probs)
    argv = ["sweep-multistage", "--d1", "4", "--d2", "4", "--grid", "5", "--out", str(tmp_path / "ms.csv")]
    assert cli.main(argv) == 0
    assert len(walks) == 1 and len(checks) == 1 and len(separations) == 2
    assert len(transforms) <= 4


class _Admitted(Exception):
    """Raised in place of the stage walk: the tree passed its size rule."""


def test_a_guess_replaces_the_inconclusive_record(monkeypatch):
    """An eavesdropper never abstains, so her tree holds no "inc" record: D
    records per executed stage and D for the final block. The size rule
    counts those records, so the full-depth intercept at rank 203 is the
    largest it admits: 203**3 <= 2**23 < 204**3."""
    rng = np.random.default_rng(22)
    for (s, plan), guess in zip(_tree_cases(rng, 64), itertools.cycle(GUESSES[1:])):
        tree = _BranchTree(s.coeffs, plan, guess)
        assert "inc" not in tree.records and not (tree.inferred == densecode.INCONCLUSIVE).any()
        assert len(tree.records) == tree.dist.shape[1] == s.D * len(tree.probs) + s.D

    def admitted(*args):
        raise _Admitted

    def ramp(rank):
        return np.sqrt(np.arange(1, rank + 1) / (rank * (rank + 1) / 2))

    monkeypatch.setattr(protocol_sim, "walk_stages", admitted)
    assert 203**3 <= protocol_sim.MAX_TREE_CELLS < 204**3
    for guess in GUESSES[1:]:
        with pytest.raises(_Admitted):
            _BranchTree(ramp(203), StagePlan((1.0,) * 202, FINAL_ABSTAIN), guess)
        with pytest.raises(ValueError, match=f"branch tree of {204**3} cells exceeds"):
            _BranchTree(ramp(204), StagePlan((1.0,) * 203, FINAL_ABSTAIN), guess)


def _tree_cases(rng, n_cases):
    """(state, plan) pairs over ranks 1-8 and both finals, from every state
    kind of the oracle cases plus near ties inside GROUP_TOL_SQ."""
    for case in range(n_cases):
        rank = 1 + case % 8
        d2 = rank + (case // 8) % 2
        final = FINALS[(case // 16) % 2]
        if rank == 1:
            s = SchmidtState(d2, d2, [1.0])
            stages = ((), (1.0,), (float(rng.uniform()),))[case % 3]
        else:
            kind = (*KINDS, "near_tie")[(case // 32) % 5]
            if kind == "near_tie":
                s = _state(rng, rank, rank, d2, "tie", gap=GROUP_TOL_SQ * float(rng.uniform(0.01, 0.99)))
            else:
                s = _state(rng, rank, rank, d2, kind)
            stages = _plan(rng, rank)
        yield s, StagePlan(stages, final)


def test_tree_information_is_the_closed_form():
    """multistage_bits is the exact mutual information of the branch tree
    (equal message priors, target system included), and the tree's own fold
    gives it bit for bit, also where a stage with xi = 0 or xi = 1e-13 is
    sure and ends the walk, with or without P_s reaching 1."""
    rng = np.random.default_rng(20261019)
    worst, ranks, finals, holes, cut = 0.0, set(), set(), False, set()
    for s, drawn in _tree_cases(rng, 400):
        stages = list(drawn.stages)
        if stages:
            stages[rng.integers(len(stages))] = float(rng.choice([0.0, 1e-13]))
        for plan in (drawn, StagePlan(tuple(stages), drawn.final_action)):
            total = float(multistage_bits(s.coeffs, s.d2, plan.stages, plan.final_action)[0])
            tree = _BranchTree(s.coeffs, plan)
            assert tree.info_bits(s.d2) == total, (s.coeffs, plan)
            joint = dense.analytic_joint(s, plan)
            worst = max(worst, abs(dense.mutual_info_from_joint(joint) - total))
            ranks.add(s.D)
            finals.add(plan.final_action)
            steps, _ = discrimination.walk_stages(s.coeffs, plan.stages)
            holes |= any(bool(executed) and not family.all() for executed, family, _, _ in steps)
            # A sure stage with a planned stage after it: P_s exactly 1, or just below.
            sure = [p_stage for executed, _, p_stage, _ in steps[:-1] if executed and p_stage >= SURE_SUCCESS]
            cut.update(float(p_stage) == 1.0 for p_stage in sure)
    assert worst <= 1e-12, worst
    assert ranks == set(range(1, 9)) and finals == set(FINALS) and holes
    assert cut == {True, False}


_STATE = {"d1": 4, "d2": 4, "coeffs": [0.1, 0.2, 0.3, 0.4], "squared": True}
_MULTISTAGE = {"strategy": {"kind": "multistage", "stages": [{"xi": 1.0}, {"xi": 0.5}], "final": "me"}}
_INTERCEPT = {"eve": {"kind": "intercept", "strategy": {"kind": "sep_me", "xi": 0.6}, "fallback": "me"}}


def _run_command(tmp_path, command, entries, name="run"):
    """One in-process CLI command on _STATE at 5000 trials, writing name.csv and name.json."""
    config = tmp_path / f"{name}_config.json"
    config.write_text(json.dumps({"state": _STATE, "trials": 5000, **entries}))
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / f"{name}.csv")]) == 0


@pytest.mark.parametrize(
    "command, entries, trees",
    [
        ("montecarlo", _MULTISTAGE, 1),
        ("qkd", _INTERCEPT, 1),
        ("qkd", {"eve": {"kind": "absent"}}, 0),
    ],
)
def test_one_branch_tree_per_run(monkeypatch, tmp_path, command, entries, trees):
    """A run builds the tree it samples once, walking the stages once, and
    reads every closed form of its output from that tree."""
    built = count_everywhere(monkeypatch, _BranchTree)
    walks = count_everywhere(monkeypatch, discrimination.walk_stages)
    _run_command(tmp_path, command, entries)
    assert len(built) == trees and len(walks) == trees


@pytest.mark.parametrize("command, entries", [("montecarlo", _MULTISTAGE), ("qkd", _INTERCEPT)])
def test_second_command_builds_no_tree(monkeypatch, tmp_path, command, entries):
    """A second identical command in one process finds its tree in the memo:
    it builds none, walks no stage, and writes the same bytes."""
    _run_command(tmp_path, command, entries, "cold")
    built = count_everywhere(monkeypatch, _BranchTree)
    walks = count_everywhere(monkeypatch, discrimination.walk_stages)
    _run_command(tmp_path, command, entries, "warm")
    assert built == [] and walks == []
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"cold{suffix}").read_bytes() == (tmp_path / f"warm{suffix}").read_bytes()


@pytest.mark.parametrize(
    "eve",
    [
        {"kind": "absent"},
        _INTERCEPT["eve"],
        {"kind": "intercept", "strategy": {"kind": "multistage", "stages": [{"xi": 1.0}, {"xi": 0.5}]}},
    ],
)
def test_one_sift_separation_per_qkd_command(monkeypatch, tmp_path, eve):
    """The receiver's sift is separated once per command, though both the run
    and the CLI's analytic column ask for it; Eve's tree adds one separation
    per stage it executes."""
    s = SchmidtState.from_squared(4, 4, [0.1, 0.2, 0.3, 0.4])
    parsed = cli._parse_eve(eve)
    stages = 0 if parsed.strategy is None else len(_BranchTree(s.coeffs, parsed.strategy).probs)
    separations = count_everywhere(monkeypatch, discrimination._separate)
    _run_command(tmp_path, "qkd", {"eve": eve})
    assert len(separations) == 1 + stages


def test_sift_rate_is_the_separation_at_xi_one(tmp_path):
    """The keep probability is separate(c, 1.0).p_success bit for bit, 1 where
    fewer than two support levels remain (rank 1 included), and builds no
    branch tree; a qkd command memoises Eve's tree and one keep probability,
    and a second identical command adds neither."""
    rng = np.random.default_rng(20261019)
    kinds = set()
    for case in range(2000):
        rank = int(rng.integers(1, 9))
        sq = rng.dirichlet(np.ones(rank))
        kind = ("random", "uniform", "tied", "zeros")[case % 4]
        if kind == "uniform":
            sq = np.full(rank, 1.0 / rank)
        elif kind == "tied" and rank > 2:
            low = np.argsort(sq)[:2]
            sq[low[1]] = sq[low[0]]
        elif kind == "zeros":
            sq[rng.random(rank) < 0.4] = 0.0
            sq[rng.integers(rank)] += 0.1
        coeffs = np.sqrt(sq / sq.sum())
        rate = analytic_sift_rate(coeffs)
        assert rate == float(discrimination.separate(coeffs, 1.0).p_success), coeffs
        kinds.add((kind, rate == 1.0))
    assert {("random", True), ("random", False), ("uniform", True), ("tied", False), ("zeros", True)} <= kinds
    # A rank whose xi = 1 tree would exceed MAX_TREE_CELLS: the O(D) sift takes it.
    ramp = np.sqrt(np.arange(1, 4097) / (4096 * 4097 / 2))
    assert 4096 * 4097 > protocol_sim.MAX_TREE_CELLS and 0.0 < analytic_sift_rate(ramp) < 1.0
    assert _shared_tree.cache_info().currsize == 0
    qkd._sift_rate.cache_clear()
    _run_command(tmp_path, "qkd", _INTERCEPT, "cold")
    _run_command(tmp_path, "qkd", _INTERCEPT, "warm")
    for memo in (_shared_tree, qkd._sift_rate):
        info = memo.cache_info()
        assert (info.currsize, info.misses) == (1, 1)


def test_runs_of_one_configuration_share_a_read_only_tree(qutrit_state):
    strat = StagePlan((1.0, 0.5), FINAL_ME)
    eve = EveStrategy.intercept(StagePlan.sep_me(0.6), GUESS_ME)
    pairs = [
        (run_simulation(qutrit_state, strat, 1000, seed=1), run_simulation(qutrit_state, strat, 1000, seed=2)),
        (simulate_qkd(qutrit_state, eve, 1000, seed=1), simulate_qkd(qutrit_state, eve, 1000, seed=2)),
    ]
    for first, second in pairs:
        tree = first.tree
        assert second.tree is tree
        assert isinstance(tree.probs, tuple) and len(tree._q) > len(tree.probs)
        for array in (tree._q, tree.inferred, tree.dist):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert np.allclose(tree.dist.sum(axis=1), 1.0)


def test_memo_is_keyed_by_value(qubit_state):
    strat = StagePlan.sep_me(1.0)
    tree = run_simulation(qubit_state, strat, 100, seed=1).tree
    equal = SchmidtState(qubit_state.d1, qubit_state.d2, list(qubit_state.coeffs))
    assert equal.coeffs is not qubit_state.coeffs
    assert run_simulation(equal, strat, 100, seed=2).tree is tree
    # One ulp up on a coefficient stays within NORM_TOL of a unit norm.
    ulp = qubit_state.coeffs.copy()
    ulp[0] = np.nextafter(ulp[0], 1.0)
    moved = SchmidtState(qubit_state.d1, qubit_state.d2, ulp)
    plan = StagePlan.sep_me(0.5)
    misses = [
        run_simulation(moved, strat, 100, seed=1).tree,
        run_simulation(qubit_state, plan, 100, seed=1).tree,
        simulate_qkd(qubit_state, EveStrategy.intercept(strat, GUESS_UNIFORM), 100, seed=1).tree,
        simulate_qkd(qubit_state, EveStrategy.intercept(strat, GUESS_ME), 100, seed=1).tree,
    ]
    assert len({id(t) for t in [tree, *misses]}) == 5
    info = _shared_tree.cache_info()
    assert (info.hits, info.misses) == (1, 5)
    # The keep probability of a list equal in value is the memoised one.
    hits = qkd._sift_rate.cache_info().hits
    assert analytic_sift_rate(list(qubit_state.coeffs)) == analytic_sift_rate(qubit_state.coeffs)
    assert qkd._sift_rate.cache_info().hits == hits + 2


def test_memos_stay_within_their_bound():
    rng = np.random.default_rng(17)
    states = [random_schmidt(rng) for _ in range(protocol_sim._TREE_MEMO_SIZE + 5)]
    for s in states:
        run_simulation(s, StagePlan.me(), 10, seed=0)
        analytic_sift_rate(s.coeffs)
    for memo in (_shared_tree, qkd._sift_rate):
        info = memo.cache_info()
        assert info.maxsize == info.currsize == protocol_sim._TREE_MEMO_SIZE
        assert info.misses == len(states)


#: Final blocks of a tree by (final action, guess), with the label prefix each writes.
FINAL_BLOCKS = [
    (FINAL_ME, None, "f"), (FINAL_ABSTAIN, None, "inc"), (FINAL_ABSTAIN, GUESS_ME, "g"), (FINAL_ABSTAIN, GUESS_UNIFORM, "u")
]


@pytest.mark.parametrize("final, guess, kind", FINAL_BLOCKS)
@pytest.mark.parametrize("rank", range(1, 10))
def test_record_labels_and_inferred_hypotheses_follow_the_shape(rank, final, guess, kind):
    """At every depth a tree's labels are D per executed stage, then its final
    block; `inferred` names each label's hypothesis in a read-only int64 array,
    and a run builds no labels until they are read."""
    s = SchmidtState.from_squared(rank, rank, np.arange(1, rank + 1) / (rank * (rank + 1) / 2))
    for depth in range(rank):
        plan = StagePlan((1.0,) * depth, final)
        tree = _BranchTree(s.coeffs, plan, guess)
        assert len(tree.probs) == depth
        finals = ["inc"] if kind == "inc" else [f"{kind}:{l}" for l in range(rank)]
        assert tree.records == tuple([f"s{n}:{l}" for n in range(1, depth + 1) for l in range(rank)] + finals)
        assert tree.inferred.dtype == np.int64 and tree.inferred.tolist() == inferred(tree.records).tolist()
        with pytest.raises(ValueError, match="read-only"):
            tree.inferred[...] = 0
        if guess is None:
            report = run_simulation(s, plan, 10, seed=depth)
            assert "records" not in vars(report.tree)
            assert report.tree.records == tree.records and "records" in vars(report.tree)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: analytic_sift_rate([np.nan, 0.8]), ValueError, "finite"),
        (lambda: analytic_sift_rate([0.6, 0.6]), ValueError, "sum to 1"),
        (lambda: analytic_sift_rate([]), ValueError, "nonempty"),
        (lambda: analytic_sift_rate(0.5), ValueError, "nonempty"),
        (lambda: analytic_sift_rate([[0.6, 0.8], [0.8, 0.6]]), ValueError, "1D"),
        (lambda: analytic_qkd_error([[0.6, 0.8], [0.8, 0.6]], EveStrategy.intercept(StagePlan.me())), ValueError, "1D vector"),
        (
            lambda: run_simulation(
                SchmidtState.from_squared(2, 2, [0.2, 0.8]),
                StagePlan((1.0, 1.0), FINAL_ME),
                10,
                seed=0,
            ),
            ValueError,
            "plan exceeds",
        ),
    ],
)
def test_bad_input_raises_on_every_call(call, error, message):
    for _ in range(3):
        with pytest.raises(error, match=message):
            call()
    assert _shared_tree.cache_info().currsize == 0 and qkd._sift_rate.cache_info().currsize == 0


def test_warm_runs_equal_cold_runs():
    """A memoised tree is bit for bit a fresh build's, so a warm run's counts
    and report text are a cold run's."""
    rng = np.random.default_rng(23)
    for case, (s, plan) in enumerate(_tree_cases(rng, 48)):
        eve = EveStrategy.intercept(plan, GUESSES[1 + case % 2])
        seed = int(rng.integers(2**63))
        runs = [lambda: run_simulation(s, plan, 5000, seed)]
        # Sifting needs rank >= 2.
        runs += [lambda: simulate_qkd(s, eve, 5000, seed)] if s.D > 1 else []
        for run in runs:
            _shared_tree.cache_clear()
            qkd._sift_rate.cache_clear()
            cold = run()
            warm = run()
            assert warm.tree is cold.tree
            counts = [r.joint_counts if hasattr(r, "joint_counts") else r.eve_counts for r in (cold, warm)]
            assert counts[0].tobytes() == counts[1].tobytes()
            assert cli._report_json(cold, {"seed": seed}) == cli._report_json(warm, {"seed": seed})
        fresh = _BranchTree(s.coeffs, plan)
        assert run_simulation(s, plan, 10, seed).tree.dist.tobytes() == fresh.dist.tobytes()
