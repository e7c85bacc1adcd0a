"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite completes in well under two minutes.
"""

import csv
import math
import time

import numpy as np

from densecode import (
    FINAL_ABSTAIN,
    FINAL_ME,
    EveStrategy,
    GUESS_ME,
    GUESS_UNIFORM,
    SchmidtState,
    StagePlan,
    analytic_qkd_error,
    cli,
    mutual_info_me,
    mutual_info_multistage,
    simulate_qkd,
)
from densecode.cli import montecarlo_summary
from densecode.discrimination import separate
from densecode.gates import gxor
from densecode.protocol_sim import _BranchTree, run_simulation
from densecode.tensor_core import Ket, born_probabilities

from circuit_oracle import circuit_joint
from conftest import LAW_ALPHA, assert_counts_follow, random_schmidt, random_support_coeffs, simplex_grid
from dense import (
    analytic_joint,
    conditional_entropy,
    kraus_pair,
    me_measurement,
    mutual_info_from_joint,
    separated_state,
    symmetric_state,
)

QUBIT = SchmidtState.from_squared(2, 2, [0.2, 0.8])
QUTRIT = SchmidtState.from_squared(3, 4, [0.2, 0.3, 0.5])


def report_line(number, ok, detail):
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def sigma3(p, n):
    return 3 * math.sqrt(max(p * (1 - p), 0.0) / n)


def test_criterion_1_me_sweep_extremes(tmp_path):
    out = tmp_path / "sweep_me.csv"
    started = time.perf_counter()
    rc = cli.main(["sweep-me", "--grid", "60", "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    centroid = min(
        rows, key=lambda r: abs(float(r["a0"]) - 3**-0.5) + abs(float(r["a1"]) - 3**-0.5)
    )
    centroid_ok = abs(float(centroid["I_bits"]) - math.log2(12)) <= 1e-6
    corners = [
        float(r["I_bits"])
        for r in rows
        if max(float(r["a0"]) ** 2, float(r["a1"]) ** 2, 1 - float(r["a0"]) ** 2 - float(r["a1"]) ** 2)
        >= 1 - 2e-3 - 1e-9
    ]
    corner_ok = len(corners) == 3 and all(abs(v - 2.0) <= 0.02 for v in corners)
    time_ok = elapsed < 5.0
    report_line(
        1,
        centroid_ok and corner_ok and time_ok,
        f"centroid {float(centroid['I_bits']):.6f} bits vs log2(12), "
        f"{len(corners)} margin corners near 2 bits, sweep took {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_separation_endpoints():
    at_zero = mutual_info_multistage(QUBIT, StagePlan((0.0,), FINAL_ABSTAIN))
    at_one = mutual_info_multistage(QUBIT, StagePlan((1.0,), FINAL_ABSTAIN))
    i_me = mutual_info_me(QUBIT).total_bits
    ok = (
        abs(at_zero.branch_probabilities[0] - 1.0) <= 1e-12
        and abs(at_zero.total_bits - i_me) <= 1e-9
        and abs(at_zero.total_bits - 1.531005) <= 1e-6
        and abs(at_one.branch_probabilities[0] - 0.4) <= 1e-12
        and abs(at_one.total_bits - 1.4) <= 1e-9
        and abs(at_one.stage_success_bits[0] - 2.0) <= 1e-9
    )
    report_line(
        2,
        ok,
        f"xi=0: P_s=1, I={at_zero.total_bits:.6f}; "
        f"xi=1: P_s={at_one.branch_probabilities[0]:.12f}, "
        f"I_total={at_one.total_bits:.9f}, I_success={at_one.stage_success_bits[0]:.9f}",
    )


def test_criterion_3_ordering_grid():
    worst_weak = 0.0
    min_gap = float("inf")
    for state_idx in range(50):
        sq_min = 0.5 * (state_idx + 1) / 51
        s = SchmidtState.from_squared(2, 2, [sq_min, 1 - sq_min])
        i_me = mutual_info_me(s).total_bits
        for xi_idx in range(50):
            xi = (xi_idx + 1) / 51
            rep = mutual_info_multistage(s, StagePlan((xi,), FINAL_ABSTAIN))
            worst_weak = max(
                worst_weak, i_me - rep.stage_success_bits[0], rep.total_bits - i_me
            )
            min_gap = min(min_gap, rep.stage_success_bits[0] - i_me, i_me - rep.total_bits)
    ok = worst_weak <= 1e-9 and min_gap > 0.0
    report_line(
        3,
        ok,
        f"2500-point interior grid: ordering slack {worst_weak:.2e} (<= 1e-9), "
        f"smallest strict gap {min_gap:.2e} (> 0)",
    )


def test_criterion_4_multistage_improvement():
    plan_abstain = StagePlan((1.0,), FINAL_ABSTAIN)
    plan_me = StagePlan((1.0,), FINAL_ME)
    plan_two = StagePlan((1.0, 1.0), FINAL_ABSTAIN)
    worst = 0.0
    strict_ok = True
    for squared in simplex_grid(3, 21, 1e-3):
        s = SchmidtState.from_squared(3, 4, squared)
        base = mutual_info_multistage(s, plan_abstain)
        follow_me = mutual_info_multistage(s, plan_me)
        follow_mc = mutual_info_multistage(s, plan_two)
        worst = max(
            worst, base.total_bits - follow_me.total_bits, base.total_bits - follow_mc.total_bits
        )
        p1 = base.branch_probabilities[0]
        if p1 < 1.0 - 1e-12:
            fail_me_bits = (follow_me.total_bits - p1 * math.log2(12)) / (1 - p1)
            if fail_me_bits > 2.0 + 1e-6 and not follow_me.total_bits > base.total_bits:
                strict_ok = False
            p2 = follow_mc.branch_probabilities[1]
            fail_mc_bits = p2 * follow_mc.stage_success_bits[1] + (1 - p2) * 2.0
            if fail_mc_bits > 2.0 + 1e-6 and not follow_mc.total_bits > base.total_bits:
                strict_ok = False
    # spot values for the (0.2, 0.3, 0.5) channel, with an explicit-vector oracle
    povm = me_measurement(3, 3)
    oracle_rows = []
    for j in range(3):
        amps = np.zeros(3, dtype=complex)
        for level in (1, 2):
            amps[level] = np.exp(2j * np.pi * j * level / 3) / np.sqrt(2)
        oracle_rows.append(born_probabilities(Ket(amps), povm))
    oracle = math.log2(12) + np.mean(
        [np.sum(p[p > 1e-15] * np.log2(p[p > 1e-15])) for p in oracle_rows]
    )
    spot = mutual_info_multistage(QUTRIT, plan_two)
    spot_ok = (
        abs(spot.stage_success_bits[1] - oracle) <= 1e-10
        and abs(spot.stage_success_bits[1] - 2.333334) <= 1e-5
        and abs(spot.branch_probabilities[1] - 0.5) <= 1e-12
    )
    ok = worst <= 1e-9 and strict_ok and spot_ok
    report_line(
        4,
        ok,
        f"pointwise follow-up slack {worst:.2e} (<= 1e-9), strict where the gain "
        f"condition holds; spot I_suc2={spot.stage_success_bits[1]:.6f} vs oracle "
        f"{oracle:.6f}, P_s2={spot.branch_probabilities[1]:.12f}",
    )


def test_criterion_5_appendix_identity():
    rng = np.random.default_rng(20240817)
    worst = joint_gap = 0.0
    for case in range(200):
        rank = int(rng.integers(2, 5))
        d2 = int(rng.integers(max(rank, 2), 5))
        s = random_schmidt(rng, rank=rank, d2=d2)
        kind = case % 3
        if kind == 0:
            plan = StagePlan.me()
            total = mutual_info_me(s).total_bits
            family = [symmetric_state(s, j) for j in range(s.D)]
            reduction = math.log2(s.d2 * s.D) - conditional_entropy(
                family, me_measurement(s.D, s.d1)
            )
            worst = max(worst, abs(total - reduction))
        elif kind == 1:
            xi = float(rng.uniform(0, 1))
            plan = StagePlan.sep_me(xi)
            total = mutual_info_multistage(s, StagePlan((xi,), FINAL_ABSTAIN)).total_bits
        else:
            depth = int(rng.integers(1, s.D))
            plan = StagePlan(
                tuple(float(x) for x in rng.uniform(0.2, 1.0, size=depth)),
                FINAL_ME if rng.random() < 0.5 else FINAL_ABSTAIN,
            )
            total = mutual_info_multistage(s, plan).total_bits
        reference = circuit_joint(s, plan)
        joint_gap = max(joint_gap, float(np.max(np.abs(analytic_joint(s, plan) - reference))))
        oracle = mutual_info_from_joint(reference)
        worst = max(worst, abs(oracle - total))
    ok = worst <= 1e-9 and joint_gap <= 1e-12
    report_line(
        5,
        ok,
        f"200 random (state, strategy) pairs: textbook MI of the circuit joint vs "
        f"simplified reduction, worst delta {worst:.2e} (<= 1e-9); closed-form "
        f"joint vs circuit joint, worst entry {joint_gap:.2e} (<= 1e-12)",
    )


def test_criterion_6_monte_carlo_consistency():
    started = time.perf_counter()
    n = 100000
    configs = [
        (QUBIT, StagePlan.me(), 101),
        (QUBIT, StagePlan.sep_me(1.0), 202),
        (QUTRIT, StagePlan((1.0, 1.0), FINAL_ABSTAIN), 303),
    ]
    worst_rate = 0.0
    worst_info = 0.0
    cells_checked = 0
    for state, strat, seed in configs:
        report = run_simulation(state, strat, n, seed=seed)
        for quantity, emp, analytic, bound in montecarlo_summary(report, state.d2):
            if quantity == "mutual_info_bits":
                worst_info = max(worst_info, abs(emp - analytic))
            else:
                assert abs(emp - analytic) <= bound + 1e-12, quantity
                worst_rate = max(worst_rate, abs(emp - analytic) - bound)
        # One calibrated law test of the whole joint table: a 3-sigma bound on
        # each of its ~60 cells would fail on about 15% of seeds of a sampler
        # drawing from the right law.
        dist = _BranchTree(state.coeffs, strat).dist
        probs = np.broadcast_to(dist[:, None, :] / (state.d2 * state.D), report.joint_counts.shape)
        assert_counts_follow(report.joint_counts, probs)
        cells_checked += report.joint_counts.size
    elapsed = time.perf_counter() - started
    ok = worst_info <= 0.02 and elapsed < 10.0
    report_line(
        6,
        ok,
        f"3 strategies x {n} trials: every branch rate within 3 sigma, joint "
        f"counts ({cells_checked} cells) pass a G-test at alpha {LAW_ALPHA:g}, "
        f"worst mutual-info delta {worst_info:.4f} (<= 0.02), took {elapsed:.2f}s (< 10s)",
    )


def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(77)
    worst_kraus = 0.0
    for _ in range(120):
        coeffs = random_support_coeffs(rng)
        kraus_success, kraus_failure = kraus_pair(coeffs, float(rng.uniform(0, 1)), coeffs.size)
        total = (
            kraus_success.dagger().entries @ kraus_success.entries
            + kraus_failure.dagger().entries @ kraus_failure.entries
        )
        worst_kraus = max(worst_kraus, float(np.max(np.abs(total - np.eye(coeffs.size)))))
    worst_gxor = 0.0
    for _ in range(100):
        d1, d2 = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        gate = gxor(d1, d2)
        eye = np.eye(d1 * d2)
        worst_gxor = max(
            worst_gxor,
            float(np.max(np.abs((gate @ gate).entries - eye))),
            float(np.max(np.abs(gate.entries - gate.entries.conj().T))),
            float(np.max(np.abs((gate.dagger() @ gate).entries - eye))),
        )
    monotone_ok = True
    for _ in range(100):
        s = random_schmidt(rng)
        xi_lo, xi_hi = np.sort(rng.uniform(0, 1, size=2))
        lo = separate(s.coeffs, float(xi_lo))
        hi = separate(s.coeffs, float(xi_hi))
        base = [symmetric_state(s, j) for j in range(s.D)]
        for j in range(s.D):
            for k in range(j + 1, s.D):
                top = abs(separated_state(hi, j, s.D).overlap(separated_state(hi, k, s.D)))
                mid = abs(separated_state(lo, j, s.D).overlap(separated_state(lo, k, s.D)))
                raw = abs(base[j].overlap(base[k]))
                if top > mid + 1e-10 or mid > raw + 1e-10:
                    monotone_ok = False
    worst_chi = 0.0
    for _ in range(100):
        coeffs = random_support_coeffs(rng)
        xi_a, xi_b = rng.uniform(0, 1, size=2)
        sep_a = separate(coeffs, float(xi_a))
        sep_b = separate(coeffs, float(xi_b))
        if sep_a.uniform:
            continue
        worst_chi = max(
            worst_chi, float(np.max(np.abs(sep_a.failure_coeffs - sep_b.failure_coeffs)))
        )
    ok = worst_kraus <= 1e-12 and worst_gxor <= 1e-10 and monotone_ok and worst_chi <= 1e-10
    report_line(
        7,
        ok,
        f"Kraus completeness {worst_kraus:.1e} (<= 1e-12), GXOR involution "
        f"{worst_gxor:.1e} (<= 1e-10), separation overlaps monotone, failure-state "
        f"xi-independence {worst_chi:.1e} (<= 1e-10), 100+ cases each",
    )


def _brute_force_error(s, eve):
    povm = me_measurement(s.D, s.d1)
    stages, final = eve.strategy.stages, eve.strategy.final_action
    total = 0.0
    for j in range(s.D):
        weight = 1.0
        coeffs = np.asarray(s.coeffs, dtype=float)
        err = 0.0
        for xi in stages:
            if np.sum(coeffs > 1e-12) < 2:
                break
            sep = separate(coeffs, xi)
            probs = born_probabilities(separated_state(sep, j, s.d1), povm)
            err += weight * sep.p_success * (1.0 - probs[j])
            if sep.uniform:
                weight = 0.0
                break
            weight *= 1.0 - sep.p_success
            coeffs = sep.failure_coeffs
        if weight > 0:
            if final == FINAL_ME or eve.fallback == GUESS_ME:
                levels = np.arange(s.D)
                amps = np.zeros(s.d1, dtype=complex)
                amps[: s.D] = coeffs * np.exp(2j * np.pi * j * levels / s.D)
                probs = born_probabilities(Ket(amps), povm)
                err += weight * (1.0 - probs[j])
            else:
                err += weight * (1.0 - 1.0 / s.D)
        total += err / s.D
    return total


def test_criterion_8_qkd_ordering():
    cases = [
        (EveStrategy.intercept(StagePlan.me()), 0.1),
        (EveStrategy.intercept(StagePlan.sep_me(0.5), GUESS_UNIFORM), 0.227445942),
        (EveStrategy.intercept(StagePlan.sep_me(1.0), GUESS_UNIFORM), 0.3),
    ]
    worst_formula = 0.0
    worst_mc = True
    for eve, nominal in cases:
        analytic = analytic_qkd_error(QUBIT.coeffs, eve)
        oracle = _brute_force_error(QUBIT, eve)
        worst_formula = max(worst_formula, abs(analytic - oracle), abs(analytic - nominal))
        report = simulate_qkd(QUBIT, eve, 100000, seed=404)
        if abs(report.sifted_error_rate - analytic) > sigma3(analytic, report.kept):
            worst_mc = False
    single = EveStrategy.intercept(StagePlan.sep_me(1.0), GUESS_UNIFORM)
    multi = EveStrategy.intercept(
        StagePlan((1.0, 1.0), FINAL_ABSTAIN), GUESS_UNIFORM
    )
    err_single = analytic_qkd_error(QUTRIT.coeffs, single)
    err_multi = analytic_qkd_error(QUTRIT.coeffs, multi)
    multi_ok = err_multi < err_single and abs(
        err_multi - _brute_force_error(QUTRIT, multi)
    ) <= 1e-10
    ok = worst_formula <= 1e-6 and worst_mc and multi_ok
    report_line(
        8,
        ok,
        f"analytic error rates match brute-force branch enumeration within "
        f"{worst_formula:.1e} (<= 1e-6), Monte Carlo within 3 sigma at 1e5 rounds, "
        f"multistage eavesdropper {err_multi:.4f} < single-stage {err_single:.4f}",
    )
