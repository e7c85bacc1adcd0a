import json
import math

import numpy as np
import pytest

from densecode import (
    FINAL_ABSTAIN,
    FINAL_ME,
    DecodingStrategy,
    SchmidtState,
    StagePlan,
    analytic_record_distribution,
    cli,
    counts_mutual_info,
    mutual_info_me,
    mutual_info_multistage,
    mutual_info_sep,
    run_simulation,
)

from circuit_oracle import circuit_joint
from dense import analytic_joint, mutual_info_from_joint
from conftest import random_schmidt


def sigma3(p, n):
    return 3 * math.sqrt(p * (1 - p) / n)


class TestDecodingStrategy:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown strategy kind 'nope'"):
            cli._parse_strategy({"kind": "nope"})
        with pytest.raises(ValueError, match="unknown strategy kind None"):
            cli._parse_strategy({"xi": 0.5})
        with pytest.raises(ValueError):
            DecodingStrategy.sep_me(1.5)
        with pytest.raises(ValueError, match="requires a StagePlan"):
            DecodingStrategy(None)

    def test_normal_forms(self):
        assert DecodingStrategy.me().plan == StagePlan((), FINAL_ME)
        assert DecodingStrategy.sep_me(0.25).plan == StagePlan((0.25,), FINAL_ABSTAIN)
        plan = StagePlan((1.0, 0.5), FINAL_ME)
        assert DecodingStrategy.multistage(plan).plan == plan

    def test_dict_round_trip(self):
        strat = cli._parse_strategy(
            {"kind": "multistage", "stages": [{"xi": 1.0}, {}], "final": "me"}
        )
        assert strat.plan.stages == (1.0, 1.0)
        assert strat.plan.final_action == FINAL_ME
        assert strat.describe() == "multistage([1,1], final=me)"

    @pytest.mark.parametrize(
        "config,name",
        [
            ({"kind": "me"}, "me"),
            ({"kind": "sep_me", "xi": 0.5}, "sep_me(xi=0.5)"),
            ({"kind": "sep_me"}, "sep_me(xi=1)"),
            ({"kind": "multistage", "stages": [{"xi": 0.3}], "final": "abstain"}, "sep_me(xi=0.3)"),
            ({"kind": "multistage", "stages": [], "final": "me"}, "me"),
            ({"kind": "multistage", "stages": [{"xi": 0.3}], "final": "me"}, "multistage([0.3], final=me)"),
            ({"kind": "multistage", "final": "abstain"}, "multistage([], final=abstain)"),
            ({"kind": "multistage", "stages": [{}, {"xi": 0.5}]}, "multistage([1,0.5], final=abstain)"),
        ],
    )
    def test_describe_reads_the_plan_shape(self, config, name):
        strat = cli._parse_strategy(config)
        assert strat.describe() == name
        assert DecodingStrategy(strat.plan) == strat

    def test_kind_is_not_a_field(self):
        # A name and a plan of another shape cannot be paired: the plan alone
        # names the strategy, so no run can report a policy it did not run.
        plan = StagePlan((1.0,), FINAL_ABSTAIN)
        with pytest.raises(TypeError):
            DecodingStrategy("me", plan)
        with pytest.raises(TypeError):
            DecodingStrategy(kind="me", plan=plan)
        strat = DecodingStrategy(plan)
        report = run_simulation(SchmidtState.from_squared(2, 2, [0.2, 0.8]), strat, 100, seed=1)
        assert report.outcome_labels == ("s1:0", "s1:1", "inc")
        assert report.strategy == strat.describe() == "sep_me(xi=1)"


class TestRunSimulation:
    def test_uniform_me_exact(self):
        s = SchmidtState.from_squared(3, 4, [1 / 3] * 3)
        report = run_simulation(s, DecodingStrategy.me(), 1000, seed=1)
        for j in range(3):
            for k in range(4):
                for r, label in enumerate(report.outcome_labels):
                    count = report.joint_counts[j, k, r]
                    if count:
                        assert label == f"f:{j}"

    def test_ancilla_success_frequency(self, qubit_state):
        report = run_simulation(qubit_state, DecodingStrategy.sep_me(1.0), 10000, seed=2)
        rate = report.empirical_success_rate[0]
        assert abs(rate - 0.4) <= sigma3(0.4, 10000)

    def test_me_confusion_frequency(self, qubit_state):
        report = run_simulation(qubit_state, DecodingStrategy.me(), 10000, seed=3)
        correct = sum(
            int(report.joint_counts[j, k, report.outcome_labels.index(f"f:{j}")])
            for j in range(2)
            for k in range(2)
        )
        assert abs(correct / 10000 - 0.9) <= sigma3(0.9, 10000)

    def test_deterministic_replay(self, qubit_state):
        strat = DecodingStrategy.sep_me(0.5)
        a = run_simulation(qubit_state, strat, 20000, seed=9)
        b = run_simulation(qubit_state, strat, 20000, seed=9)
        c = run_simulation(qubit_state, strat, 20000, seed=9, threads=3)
        assert cli._report_json(a) == cli._report_json(b) == cli._report_json(c)
        d = run_simulation(qubit_state, strat, 20000, seed=10)
        assert cli._report_json(a) != cli._report_json(d)

    def test_empirical_mutual_info_close_to_analytic(self, qubit_state):
        report = run_simulation(qubit_state, DecodingStrategy.me(), 100000, seed=4)
        analytic = mutual_info_me(qubit_state).total_bits
        assert abs(report.empirical_mutual_info_bits - analytic) <= 0.02

    def test_multistage_second_stage_rate(self, qutrit_state):
        plan = StagePlan((1.0, 1.0), FINAL_ABSTAIN)
        report = run_simulation(
            qutrit_state, DecodingStrategy.multistage(plan), 30000, seed=5
        )
        attempts = report.stage_attempts[1]
        rate = report.stage_successes[1] / attempts
        assert attempts >= 10000
        assert abs(rate - 0.5) <= sigma3(0.5, attempts)

    def test_inconclusive_rate_is_product_of_failures(self, qutrit_state):
        plan = StagePlan((1.0, 1.0), FINAL_ABSTAIN)
        report = run_simulation(
            qutrit_state, DecodingStrategy.multistage(plan), 50000, seed=6
        )
        inc = report.joint_counts[:, :, report.outcome_labels.index("inc")].sum()
        expected = (1 - 0.6) * (1 - 0.5)
        assert abs(inc / 50000 - expected) <= sigma3(expected, 50000)

    def test_plan_depth_rejected(self, qubit_state):
        plan = StagePlan((1.0, 1.0), FINAL_ME)
        with pytest.raises(ValueError, match="plan exceeds channel stages"):
            run_simulation(qubit_state, DecodingStrategy.multistage(plan), 10, seed=0)

    def test_rank1_separation_abstains_without_a_stage(self):
        # One stage is allowed on a rank-1 state, and the walk leaves it
        # unexecuted, as mutual_info_sep reports it.
        s = SchmidtState(4, 4, [1.0])
        report = run_simulation(s, DecodingStrategy.sep_me(0.8), 20000, seed=3)
        assert report.outcome_labels == ("inc",)
        assert report.stage_attempts == () and report.stage_successes == ()
        assert abs(report.empirical_mutual_info_bits - 2.0) <= 0.02

    @pytest.mark.parametrize("seed", range(4))
    def test_joint_frequencies_within_three_sigma(self, seed, qubit_state):
        n = 100000
        strat = DecodingStrategy.sep_me(1.0)
        report = run_simulation(qubit_state, strat, n, seed=40 + seed)
        _, dist = analytic_record_distribution(qubit_state, strat)
        for j in range(2):
            for k in range(2):
                for r in range(dist.shape[1]):
                    p = dist[j, r] / 4.0
                    if p * n < 10:
                        continue
                    freq = report.joint_counts[j, k, r] / n
                    assert abs(freq - p) <= sigma3(p, n)


class TestSerialization:
    def test_json_round_trip(self, qubit_state):
        report = run_simulation(qubit_state, DecodingStrategy.sep_me(1.0), 5000, seed=7)
        payload = json.loads(cli._report_json(report))
        assert payload["n_trials"] == 5000
        assert payload["seed"] == 7
        assert sum(payload["counts"].values()) == 5000
        for key in payload["counts"]:
            msg, outcome = key.split("|")
            j, k = (int(x) for x in msg.split(","))
            assert outcome.endswith(f":{k}") or outcome == "inc"


class TestEmpiricalMutualInfo:
    def test_all_correct_diagonal(self):
        s = SchmidtState.from_squared(3, 4, [1 / 3] * 3)
        report = run_simulation(s, DecodingStrategy.me(), 2000, seed=11)
        assert abs(report.empirical_mutual_info_bits - math.log2(12)) < 0.05

    def test_independent_counts_near_zero(self):
        # plug-in estimator bias on fully independent sampled counts
        rng = np.random.default_rng(0)
        n = 100000
        rows, cols = 4, 6
        cells = rng.integers(0, rows * cols, size=n)
        table = np.bincount(cells, minlength=rows * cols).reshape(rows, cols) / n
        assert mutual_info_from_joint(table) <= 0.05

    def test_shuffled_records_leave_only_target_bits(self, qubit_state):
        # records independent of the message: only the error-free target
        # readout survives in the plug-in estimate
        base = run_simulation(qubit_state, DecodingStrategy.me(), 10, seed=12)
        rng = np.random.default_rng(0)
        n = 100000
        counts = np.zeros_like(base.joint_counts)
        msgs = rng.integers(0, 4, size=n)
        records = rng.integers(0, len(base.outcome_labels), size=n)
        np.add.at(counts, (msgs // 2, msgs % 2, records), 1)
        assert abs(counts_mutual_info(counts, n) - 1.0) <= 0.05

    def test_me_qubit_value(self, qubit_state):
        report = run_simulation(qubit_state, DecodingStrategy.me(), 100000, seed=13)
        assert abs(report.empirical_mutual_info_bits - 1.531) <= 0.02


@pytest.mark.parametrize("seed", range(10))
def test_analytic_joint_matches_strategy_totals(seed):
    rng = np.random.default_rng(7000 + seed)
    s = random_schmidt(rng)
    choice = seed % 3
    if choice == 0:
        strat, total = DecodingStrategy.me(), mutual_info_me(s).total_bits
    elif choice == 1:
        xi = float(rng.uniform(0, 1))
        strat, total = DecodingStrategy.sep_me(xi), mutual_info_sep(s, xi).total_bits
    else:
        depth = int(rng.integers(1, s.D))
        plan = StagePlan(
            tuple(float(x) for x in rng.uniform(0.3, 1.0, size=depth)),
            FINAL_ME if rng.random() < 0.5 else FINAL_ABSTAIN,
        )
        strat, total = (
            DecodingStrategy.multistage(plan),
            mutual_info_multistage(s, plan).total_bits,
        )
    reference = circuit_joint(s, strat)
    assert np.max(np.abs(analytic_joint(s, strat) - reference)) <= 1e-12
    assert abs(mutual_info_from_joint(reference) - total) <= 1e-9
