import math

import numpy as np
import pytest

from densecode import (
    FINAL_ABSTAIN,
    FINAL_ME,
    InfoReport,
    SchmidtState,
    StagePlan,
    mutual_info_me,
    mutual_info_multistage,
    mutual_info_sep,
)
from densecode.channel import GROUP_TOL_SQ
from densecode.tensor_core import Ket, born_probabilities

from conftest import random_schmidt
from dense import conditional_entropy, me_measurement, mutual_info_from_joint, symmetric_state


def binary_entropy(p):
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


def me_joint_table(s):
    """Full (j,k) x (l,m) joint via Born probabilities for the ME decoder."""
    m = me_measurement(s.D, s.d1)
    n_out = len(m)
    joint = np.zeros((s.D * s.d2, n_out * s.d2))
    for j in range(s.D):
        probs = born_probabilities(symmetric_state(s, j), m)
        for k in range(s.d2):
            joint[j * s.d2 + k, k :: s.d2][: n_out] = probs / (s.D * s.d2)
    return joint


class TestConditionalEntropy:
    def test_orthogonal_states_zero_uncertainty(self):
        s = SchmidtState.from_squared(3, 3, [1 / 3] * 3)
        family = [symmetric_state(s, j) for j in range(3)]
        assert abs(conditional_entropy(family, me_measurement(3, 3))) < 1e-10

    def test_identical_states_maximum_uncertainty(self):
        # a support-1 symmetric family: the states coincide up to phase and
        # the Fourier outcomes are uniformly random
        family = [Ket(np.exp(2j * np.pi * j * 2 / 3) * np.eye(3)[2]) for j in range(3)]
        h = conditional_entropy(family, me_measurement(3, 3))
        assert abs(h - math.log2(3)) < 1e-10

    def test_qubit_binary_entropy(self, qubit_state):
        family = [symmetric_state(qubit_state, j) for j in range(2)]
        h = conditional_entropy(family, me_measurement(2, 2))
        assert abs(h - binary_entropy(0.9)) < 1e-12


class TestMutualInfoMe:
    def test_uniform_reaches_channel_maximum(self):
        s = SchmidtState.from_squared(3, 4, [1 / 3] * 3)
        assert abs(mutual_info_me(s).total_bits - math.log2(12)) < 1e-10

    def test_product_limit(self):
        s = SchmidtState(4, 4, [1.0])
        assert abs(mutual_info_me(s).total_bits - 2.0) < 1e-12

    def test_qubit_value(self, qubit_state):
        expected = 2.0 - binary_entropy(0.9)
        assert abs(mutual_info_me(qubit_state).total_bits - expected) < 1e-12

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_entropy_reduction(self, seed):
        # closed form against the Born-probability route
        rng = np.random.default_rng(seed)
        s = random_schmidt(rng)
        family = [symmetric_state(s, j) for j in range(s.D)]
        reduction = math.log2(s.d2 * s.D) - conditional_entropy(
            family, me_measurement(s.D, s.d1)
        )
        assert abs(mutual_info_me(s).total_bits - reduction) <= 1e-10

    @pytest.mark.parametrize("seed", range(12))
    def test_partial_entanglement_beats_none(self, seed):
        rng = np.random.default_rng(100 + seed)
        s = random_schmidt(rng)
        if np.ptp(s.coeffs**2) <= GROUP_TOL_SQ:
            pytest.skip("uniform draw")
        assert mutual_info_me(s).total_bits - math.log2(s.d2) > 1e-12


class TestMutualInfoSep:
    def test_zero_xi_equals_me(self, qubit_state):
        assert (
            abs(mutual_info_sep(qubit_state, 0.0).total_bits - mutual_info_me(qubit_state).total_bits)
            < 1e-12
        )

    def test_full_separation_hand_values(self, qubit_state):
        report = mutual_info_sep(qubit_state, 1.0)
        assert abs(report.total_bits - 1.4) < 1e-9
        assert abs(report.success_branch_bits - 2.0) < 1e-9
        assert abs(report.branch_probabilities[0] - 0.4) < 1e-12

    def test_no_entanglement_floor(self):
        s = SchmidtState(4, 4, [1.0])
        assert abs(mutual_info_sep(s, 0.8).total_bits - 2.0) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_full_separation_closed_form(self, seed):
        # the unambiguous limit recovers D * min(a)^2 * log2(D) + log2(d2)
        rng = np.random.default_rng(200 + seed)
        s = random_schmidt(rng)
        expected = s.D * s.coeffs.min() ** 2 * math.log2(s.D) + math.log2(s.d2)
        assert abs(mutual_info_sep(s, 1.0).total_bits - expected) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_ordering(self, seed):
        rng = np.random.default_rng(300 + seed)
        s = random_schmidt(rng)
        xi = float(rng.uniform(0.05, 0.95))
        report = mutual_info_sep(s, xi)
        base = mutual_info_me(s).total_bits
        assert report.success_branch_bits >= base - 1e-9
        assert base >= report.total_bits - 1e-9


class TestMutualInfoMultistage:
    def test_useless_second_stage_floor(self):
        # minimal coefficient with multiplicity D-1: failure branch is worth
        # exactly the error-free target-system bits
        s = SchmidtState.from_squared(3, 4, [0.2, 0.2, 0.6])
        report = mutual_info_multistage(s, StagePlan((1.0,), FINAL_ME))
        p1 = report.branch_probabilities[0]
        expected = p1 * math.log2(12) + (1 - p1) * 2.0
        assert abs(report.total_bits - expected) < 1e-10

    def test_second_stage_success_bits_oracle(self, qutrit_state):
        # independent oracle: explicit uniform symmetric vectors on the
        # failure support against the Fourier projectors
        chi_support = [1, 2]
        levels = np.arange(3)
        m = me_measurement(3, 3)
        probs = np.zeros((3, 3))
        for j in range(3):
            amps = np.zeros(3, dtype=complex)
            for l in chi_support:
                amps[l] = np.exp(2j * np.pi * j * l / 3) / np.sqrt(2)
            probs[j] = born_probabilities(Ket(amps), m)
        oracle = math.log2(12) + np.mean(
            [np.sum(p[p > 1e-15] * np.log2(p[p > 1e-15])) for p in probs]
        )
        report = mutual_info_multistage(qutrit_state, StagePlan((1.0, 1.0), FINAL_ABSTAIN))
        assert abs(report.stage_success_bits[1] - oracle) < 1e-10
        assert abs(report.stage_success_bits[1] - 7 / 3) < 1e-9
        assert abs(report.branch_probabilities[1] - 0.5) < 1e-12

    def test_single_stage_abstain_equals_sep(self, qutrit_state):
        plan = StagePlan((1.0,), FINAL_ABSTAIN)
        lhs = mutual_info_multistage(qutrit_state, plan).total_bits
        rhs = mutual_info_sep(qutrit_state, 1.0).total_bits
        assert abs(lhs - rhs) < 1e-10

    def test_plan_depth_limit(self, qubit_state):
        with pytest.raises(ValueError, match="plan exceeds channel stages"):
            mutual_info_multistage(qubit_state, StagePlan((1.0, 1.0), FINAL_ME))

    @pytest.mark.parametrize("seed", range(10))
    def test_follow_up_never_hurts(self, seed):
        rng = np.random.default_rng(500 + seed)
        s = random_schmidt(rng, rank=3, d2=4, d1=3)
        abstain = mutual_info_multistage(s, StagePlan((1.0,), FINAL_ABSTAIN)).total_bits
        follow_me = mutual_info_multistage(s, StagePlan((1.0,), FINAL_ME)).total_bits
        follow_mc = mutual_info_multistage(s, StagePlan((1.0, 1.0), FINAL_ABSTAIN)).total_bits
        assert follow_me >= abstain - 1e-9
        assert follow_mc >= abstain - 1e-9


class TestMutualInfoFromJoint:
    def test_independent_joint(self):
        joint = np.outer([0.5, 0.5], [0.25, 0.25, 0.5])
        assert abs(mutual_info_from_joint(joint)) < 1e-12

    def test_diagonal_joint(self):
        joint = np.eye(12) / 12
        assert abs(mutual_info_from_joint(joint) - math.log2(12)) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            mutual_info_from_joint(np.full((2, 2), 0.3))

    @pytest.mark.parametrize("seed", range(15))
    def test_appendix_identity_for_me_measurement(self, seed):
        rng = np.random.default_rng(700 + seed)
        s = random_schmidt(rng)
        family = [symmetric_state(s, j) for j in range(s.D)]
        reduction = math.log2(s.d2 * s.D) - conditional_entropy(
            family, me_measurement(s.D, s.d1)
        )
        assert abs(mutual_info_from_joint(me_joint_table(s)) - reduction) <= 1e-9


class TestInfoReportInvariants:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            InfoReport(4, 3, 5.0, None, ())
        with pytest.raises(ValueError):
            InfoReport(4, 3, 1.0, None, ())

    @pytest.mark.parametrize("seed", range(10))
    def test_all_reports_within_bounds(self, seed):
        rng = np.random.default_rng(900 + seed)
        s = random_schmidt(rng)
        lo, hi = math.log2(s.d2), math.log2(s.d2 * s.D)
        reports = [mutual_info_me(s), mutual_info_sep(s, float(rng.uniform(0, 1)))]
        if s.D >= 3:
            reports.append(mutual_info_multistage(s, StagePlan((1.0, 1.0), FINAL_ME)))
        for report in reports:
            assert lo - 1e-9 <= report.total_bits <= hi + 1e-9


def test_ordering_chain_small_grid():
    # success-branch >= ME >= overall, strict away from certain success
    for amin_sq in np.linspace(0.05, 0.45, 9):
        s = SchmidtState.from_squared(2, 2, [amin_sq, 1 - amin_sq])
        i_me = mutual_info_me(s).total_bits
        for xi in np.linspace(0.1, 0.9, 9):
            report = mutual_info_sep(s, float(xi))
            assert report.success_branch_bits > i_me > report.total_bits
