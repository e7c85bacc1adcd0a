import json

import numpy as np
import pytest

from densecode import (
    FINAL_ME,
    INCONCLUSIVE,
    StagePlan,
    cli,
    me_outcome_probs,
    mutual_info_multistage,
)
from densecode.channel import COEFF_TOL, GROUP_TOL_SQ, SchmidtState
from densecode.discrimination import separate, walk_stages
from densecode.tensor_core import Ket, apply, born_probabilities, project_subsystem, tensor

from conftest import random_schmidt, random_support_coeffs
from dense import (
    confidence,
    dilation_unitary,
    failure_state,
    kraus_diagonals,
    kraus_pair,
    me_measurement,
    separated_state,
    symmetric_state,
)

QUBIT = np.sqrt([0.2, 0.8])
QUTRIT = np.sqrt([0.2, 0.3, 0.5])


class TestMeMeasurement:
    def test_qubit_projectors(self):
        m = me_measurement(2, 2)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        assert np.allclose(m.operators[0].entries, np.outer(plus, plus))
        assert np.allclose(m.operators[1].entries, np.outer(minus, minus))

    def test_uniform_states_identified_exactly(self):
        s = SchmidtState.from_squared(3, 3, [1 / 3] * 3)
        m = me_measurement(3, 3)
        for j in range(3):
            probs = born_probabilities(symmetric_state(s, j), m)
            assert abs(probs[j] - 1.0) < 1e-10

    def test_qubit_success_rate(self):
        m = me_measurement(2, 2)
        s = SchmidtState(2, 2, QUBIT)
        for j in range(2):
            probs = born_probabilities(symmetric_state(s, j), m)
            assert abs(probs[j] - 0.9) < 1e-12

    def test_complement_labelled_inconclusive_and_silent(self):
        m = me_measurement(3, 5)
        assert m.labels[-1] == INCONCLUSIVE
        s = SchmidtState.from_squared(3, 4, [0.2, 0.3, 0.5])
        state = Ket(np.append(symmetric_state(s, 1).amplitudes, np.zeros(2)))
        probs = born_probabilities(state, m)
        assert probs[-1] <= 1e-10

    def test_rejects_rank_above_dimension(self):
        with pytest.raises(ValueError):
            me_measurement(4, 3)


class TestSeparationMap:
    def test_no_separation_limit(self):
        sep = separate(QUBIT, 0.0)
        kraus_success, kraus_failure = kraus_pair(QUBIT, 0.0, 2)
        assert abs(sep.p_success - 1.0) < 1e-12
        assert np.allclose(kraus_success.entries, np.eye(2), atol=1e-12)
        assert np.allclose(kraus_failure.entries, 0.0, atol=1e-12)
        assert np.allclose(sep.b_coeffs, QUBIT, atol=1e-12)

    def test_full_separation_success_probability(self):
        sep = separate(QUBIT, 1.0)
        assert abs(sep.p_success - 0.4) < 1e-12
        assert np.allclose(sep.b_coeffs, [2**-0.5, 2**-0.5], atol=1e-12)

    def test_half_separation(self):
        sep = separate(QUBIT, 0.5)
        assert abs(sep.p_success - 1 / 1.75) < 1e-12
        assert np.allclose(sep.b_coeffs**2, [0.35, 0.65], atol=1e-12)

    def test_rejects_xi_outside_range(self):
        with pytest.raises(ValueError):
            separate(QUBIT, 1.5)
        with pytest.raises(ValueError):
            separate(QUBIT, -0.1)

    def test_uniform_input_is_identity_map(self):
        sep = separate(np.sqrt([0.5, 0.5]), 0.7)
        kraus_success, kraus_failure = kraus_pair(np.sqrt([0.5, 0.5]), 0.7, 2)
        assert sep.p_success == 1.0
        assert np.allclose(kraus_success.entries, np.eye(2), atol=1e-12)
        assert np.allclose(kraus_failure.entries, 0.0, atol=1e-12)
        assert sep.uniform

    @pytest.mark.parametrize("xi", [0.0, 0.3, 0.8, 1.0])
    def test_kraus_action_reproduces_branches(self, xi):
        s = SchmidtState.from_squared(3, 4, [0.2, 0.3, 0.5])
        sep = separate(s.coeffs, xi)
        kraus_success, kraus_failure = kraus_pair(s.coeffs, xi, s.d1)
        for j in range(s.D):
            alpha = symmetric_state(s, j)
            success = kraus_success.entries @ alpha.amplitudes
            expected = np.sqrt(sep.p_success) * separated_state(sep, j, s.d1).amplitudes
            assert np.max(np.abs(success - expected)) <= 1e-10
            if xi > 0:
                failure = kraus_failure.entries @ alpha.amplitudes
                target = np.sqrt(1 - sep.p_success) * failure_state(sep, j, s.d1).amplitudes
                assert np.max(np.abs(failure - target)) <= 1e-10


class TestSeparatedState:
    def test_zero_xi_returns_carrier(self):
        s = SchmidtState(2, 2, QUBIT)
        sep = separate(s.coeffs, 0.0)
        for j in range(2):
            assert np.allclose(
                separated_state(sep, j, 2).amplitudes, symmetric_state(s, j).amplitudes
            )

    def test_full_separation_orthonormal(self):
        sep = separate(QUTRIT, 1.0)
        states = [separated_state(sep, j, 3) for j in range(3)]
        for j in range(3):
            for k in range(3):
                assert abs(states[j].overlap(states[k]) - (j == k)) < 1e-10

    def test_overlap_reduction_by_hand(self):
        sep = separate(QUBIT, 0.5)
        beta = [separated_state(sep, j, 2) for j in range(2)]
        assert abs(abs(beta[0].overlap(beta[1])) - 0.3) < 1e-12
        alpha_overlap = abs(np.sum(QUBIT**2 * np.exp(2j * np.pi * np.arange(2) / 2)))
        assert abs(alpha_overlap - 0.6) < 1e-12


class TestFailureState:
    def test_qubit_failures_identical(self):
        sep = separate(QUBIT, 0.6)
        chi = [failure_state(sep, j, 2) for j in range(2)]
        assert abs(abs(chi[0].overlap(chi[1])) - 1.0) < 1e-12

    def test_hand_evaluated_coefficients(self):
        sep = separate(QUTRIT, 1.0)
        assert np.allclose(sep.failure_coeffs, [0.0, 0.5, np.sqrt(0.75)], atol=1e-12)

    def test_xi_independence(self):
        lo = separate(QUTRIT, 0.3)
        hi = separate(QUTRIT, 0.9)
        for j in range(3):
            delta = failure_state(lo, j, 3).amplitudes - failure_state(hi, j, 3).amplitudes
            assert np.max(np.abs(delta)) <= 1e-10

    def test_uniform_input_has_no_failure_branch(self):
        sep = separate(np.sqrt([0.5, 0.5]), 1.0)
        with pytest.raises(ValueError, match="failure branch is empty"):
            failure_state(sep, 0, 2)

    @pytest.mark.parametrize("gap", [1e-10, 9.9e-10])
    def test_near_tied_minimum_leaves_a_normalised_family(self, gap, tmp_path):
        # The two smallest squares differ by gap <= GROUP_TOL_SQ, so both
        # leave the failure family; the rest must still sum to 1.
        squared = [0.1, 0.1 + gap, 0.3, 0.5 - gap]
        chi = separate(np.sqrt(squared), 1.0).failure_coeffs
        assert np.count_nonzero(chi) == 2
        assert abs(np.sum(chi**2) - 1.0) <= 1e-12
        state = SchmidtState.from_squared(4, 4, squared)
        plan = StagePlan((1.0, 1.0), FINAL_ME)
        assert mutual_info_multistage(state, plan).branch_probabilities[1] > 0
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "state": {"d1": 4, "d2": 4, "coeffs": squared, "squared": True},
                    "strategy": {"kind": "multistage", "stages": [{"xi": 1.0}, {"xi": 1.0}], "final": "me"},
                    "trials": 2000,
                }
            )
        )
        assert cli.main(["montecarlo", "--config", str(config), "--out", str(tmp_path / "mc.csv")]) == 0


class TestDilationUnitary:
    def test_zero_xi_is_identity(self):
        u = dilation_unitary(QUBIT, 0.0, 2)
        assert np.allclose(u.entries, np.eye(4), atol=1e-12)

    def test_unitarity(self):
        u = dilation_unitary(QUTRIT, 1.0, 3)
        assert u.is_unitary(1e-10)

    def test_ancilla_outcome_probabilities(self):
        s = SchmidtState(2, 2, QUBIT)
        u = dilation_unitary(s.coeffs, 1.0, 2)
        for j in range(2):
            evolved = apply(u, tensor(symmetric_state(s, j), Ket.basis(2, 0)))
            p_s, _ = project_subsystem(evolved, (2, 2), "B", 0)
            p_f, _ = project_subsystem(evolved, (2, 2), "B", 1)
            assert abs(p_s - 0.4) < 1e-10
            assert abs(p_f - 0.6) < 1e-10

    @pytest.mark.parametrize("xi", [0.2, 0.7, 1.0])
    def test_branch_amplitudes(self, xi):
        s = SchmidtState.from_squared(3, 4, [0.2, 0.3, 0.5])
        sep = separate(s.coeffs, xi)
        u = dilation_unitary(s.coeffs, xi, s.d1)
        for j in range(s.D):
            evolved = apply(u, tensor(symmetric_state(s, j), Ket.basis(2, 0)))
            expected = np.sqrt(sep.p_success) * np.kron(
                separated_state(sep, j, s.d1).amplitudes, [1, 0]
            ) + np.sqrt(1 - sep.p_success) * np.kron(
                failure_state(sep, j, s.d1).amplitudes, [0, 1]
            )
            assert np.max(np.abs(evolved.amplitudes - expected)) <= 1e-10


class TestStageSuccessProbability:
    """The next stage separates the failure family of the first, both at full
    distinguishability: two chained separate(..., 1.0) calls."""

    def test_hand_evaluated_second_stage(self):
        second = separate(separate(QUTRIT, 1.0).failure_coeffs, 1.0)
        assert not second.collapsed
        assert abs(second.p_success - 0.5) < 1e-12

    def test_no_further_stage_when_min_multiplicity_is_high(self):
        first = separate(np.sqrt([0.2, 0.2, 0.6]), 1.0)
        assert not first.uniform
        assert separate(first.failure_coeffs, 1.0).collapsed

    def test_uniform_has_no_failure_branch(self):
        first = separate(np.sqrt([0.5, 0.5]), 1.0)
        assert first.uniform
        assert not np.any(first.failure_coeffs)

    def test_matches_separation_of_failure_family(self):
        second = separate(separate(QUTRIT, 1.0).failure_coeffs, 1.0)
        steps, _, _ = walk_stages(QUTRIT, (1.0, 1.0))
        executed, _, walked = steps[1]
        assert executed
        assert abs(walked.p_success - second.p_success) < 1e-12

    def test_first_stage_consistency(self):
        # the same stage construction applied to the original coefficients
        sep = separate(QUTRIT, 1.0)
        assert abs(sep.p_success - 3 * 0.2) < 1e-12


class TestConfidence:
    def test_orthonormal_projective(self):
        s = SchmidtState.from_squared(3, 3, [1 / 3] * 3)
        family = [symmetric_state(s, j) for j in range(3)]
        m = me_measurement(3, 3)
        assert abs(confidence(family, [1 / 3] * 3, m, 1, 1) - 1.0) < 1e-10

    def test_me_posterior_on_nonuniform_family(self):
        s = SchmidtState(2, 2, QUBIT)
        family = [symmetric_state(s, j) for j in range(2)]
        m = me_measurement(2, 2)
        assert abs(confidence(family, [0.5, 0.5], m, 0, 0) - 0.9) < 1e-12

    def test_unambiguous_limit(self):
        sep = separate(QUBIT, 1.0)
        family = [separated_state(sep, j, 2) for j in range(2)]
        m = me_measurement(2, 2)
        assert abs(confidence(family, [0.5, 0.5], m, 1, 1) - 1.0) < 1e-10

    def test_unreachable_outcome(self):
        s = SchmidtState.from_squared(3, 3, [1 / 3] * 3)
        family = [symmetric_state(s, 0)] * 3
        m = me_measurement(3, 3)
        with pytest.raises(ValueError, match="unreachable outcome"):
            confidence(family, [1 / 3] * 3, m, 1, 0)

    def test_rejects_bad_priors(self):
        s = SchmidtState(2, 2, QUBIT)
        family = [symmetric_state(s, j) for j in range(2)]
        with pytest.raises(ValueError):
            confidence(family, [0.7, 0.7], me_measurement(2, 2), 0, 0)


def phased_family(coeffs):
    period = coeffs.size
    levels = np.arange(period)
    return [
        Ket(coeffs * np.exp(2j * np.pi * j * levels / period)) for j in range(period)
    ]


@pytest.mark.parametrize("seed", range(40))
def test_kraus_completeness(seed):
    rng = np.random.default_rng(seed)
    coeffs = random_support_coeffs(rng)
    for xi in (0.0, float(rng.uniform(0, 1)), 1.0):
        kraus_success, kraus_failure = kraus_pair(coeffs, xi, coeffs.size)
        total = (
            kraus_success.dagger().entries @ kraus_success.entries
            + kraus_failure.dagger().entries @ kraus_failure.entries
        )
        assert np.max(np.abs(total - np.eye(coeffs.size))) <= 1e-12


@pytest.mark.parametrize("seed", range(40))
def test_separation_monotonicity(seed):
    rng = np.random.default_rng(1000 + seed)
    s = random_schmidt(rng)
    xi_lo, xi_hi = np.sort(rng.uniform(0, 1, size=2))
    lo = separate(s.coeffs, float(xi_lo))
    hi = separate(s.coeffs, float(xi_hi))
    alphas = phased_family(np.asarray(s.coeffs))
    for j in range(s.D):
        for k in range(s.D):
            if j == k:
                continue
            base = abs(alphas[j].overlap(alphas[k]))
            mid = abs(separated_state(lo, j, s.D).overlap(separated_state(lo, k, s.D)))
            top = abs(separated_state(hi, j, s.D).overlap(separated_state(hi, k, s.D)))
            assert top <= mid + 1e-10
            assert mid <= base + 1e-10


@pytest.mark.parametrize("seed", range(40))
def test_failure_states_less_distinguishable(seed):
    rng = np.random.default_rng(2000 + seed)
    s = random_schmidt(rng, rank=int(rng.integers(3, 5)))
    sep = separate(s.coeffs, 1.0)
    if sep.uniform:
        pytest.skip("uniform draw has no failure branch")
    alphas = phased_family(np.asarray(s.coeffs))
    chis = [failure_state(sep, j, s.D) for j in range(s.D)]
    for j in range(s.D):
        for k in range(j + 1, s.D):
            assert abs(chis[j].overlap(chis[k])) >= abs(alphas[j].overlap(alphas[k])) - 1e-10


@pytest.mark.parametrize("seed", range(15))
def test_me_probabilities_are_circulant(seed):
    rng = np.random.default_rng(3000 + seed)
    s = random_schmidt(rng)
    m = me_measurement(s.D, s.d1)
    closed_form = me_outcome_probs(s.coeffs)
    for j in range(s.D):
        probs = born_probabilities(symmetric_state(s, j), m)[: s.D]
        for l in range(s.D):
            assert abs(probs[l] - closed_form[(j - l) % s.D]) <= 1e-10


#: Agreement of the oracle's Kraus action with the runtime's branch
#: amplitudes: both are square roots of sums of a few terms of size <= 1.
KRAUS_ATOL = 1e-12


def _kraus_case(rng, case):
    """Coefficients of period 2-8 with holes; every third case puts the two
    smallest support squares within GROUP_TOL_SQ of each other, which on a
    two-level support makes the family uniform."""
    coeffs = random_support_coeffs(rng, period=2 + case % 7)
    if case % 3 == 2:
        on = np.flatnonzero(coeffs)
        sq = coeffs[on] ** 2
        order = np.argsort(sq)
        gap = GROUP_TOL_SQ * float(rng.uniform(0.01, 1.0))
        if on.size == 2:
            sq[order] = (1.0 - gap) / 2.0, (1.0 + gap) / 2.0
        else:
            sq[order[1]] = sq[order[0]] + gap
            sq[order[2:]] *= (1.0 - sq[order[0]] - sq[order[1]]) / sq[order[2:]].sum()
        coeffs[on] = np.sqrt(sq)
    return coeffs


def test_oracle_kraus_action_reproduces_runtime_branches():
    """Success maps the family to sqrt(P_s) * b_coeffs and failure to
    sqrt(1 - P_s) * failure_coeffs. On a near tie the runtime also strips the
    excess g of the near-tied levels over m2, which the Kraus pair keeps: the
    failure amplitudes then differ by at most sqrt(g / E), E = 1 - d * m2."""
    rng = np.random.default_rng(13)
    periods, holes, near_ties = set(), 0, 0
    for case in range(420):
        coeffs = _kraus_case(rng, case)
        on = coeffs > COEFF_TOL
        level_sq = coeffs[on] ** 2
        m2 = level_sq.min()
        stripped = level_sq - m2
        g = float(stripped[stripped <= GROUP_TOL_SQ].sum())
        excess = 1.0 - on.sum() * m2
        bound = (np.sqrt(g / excess) if g else 0.0) + KRAUS_ATOL
        for xi in (0.0, float(rng.uniform(0, 1)), 1.0):
            sep = separate(coeffs, xi)
            success, failure = kraus_diagonals(coeffs, xi)
            assert np.max(np.abs(success * coeffs - np.sqrt(sep.p_success) * sep.b_coeffs)) <= KRAUS_ATOL
            gap = np.max(np.abs(failure * coeffs - np.sqrt(1.0 - sep.p_success) * sep.failure_coeffs))
            assert gap <= bound, (case, xi)
            near_ties += bool(g) and xi > 0 and not sep.uniform and gap > KRAUS_ATOL
        periods.add(coeffs.size)
        holes += not on.all()
    assert periods == set(range(2, 9))
    assert holes >= 100 and near_ties >= 100


def test_kraus_diagonals_are_identity_on_a_near_uniform_family():
    squared = [0.25 - 4e-10, 0.25, 0.25, 0.25 + 4e-10]
    success, failure = kraus_diagonals(np.sqrt(squared), 1.0)
    assert separate(np.sqrt(squared), 1.0).uniform
    assert success.tolist() == [1.0] * 4 and failure.tolist() == [0.0] * 4


class TestInputChecks:
    """separate checks its input; walk_stages checks its input once and then
    runs the unchecked kernel, so the checks it keeps must still fire."""

    @pytest.mark.parametrize(
        "row, message",
        [
            ([-0.6, 0.8], "nonnegative"),
            ([0.0, 0.0], "empty support"),
            ([0.6, 0.6], "sum to 1"),
            # Squared, it would overflow with a RuntimeWarning, which the test config makes an error.
            ([1e308, 1e308], "sum to 1"),
        ],
    )
    def test_separate_rejects_bad_rows(self, row, message):
        with pytest.raises(ValueError, match=message):
            separate(row, 0.5)
        batch = np.array([QUBIT, row])
        with pytest.raises(ValueError, match=message):
            separate(batch, 0.5)
        with pytest.raises(ValueError, match=message):
            walk_stages(batch, (0.5,))

    @pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
    def test_walk_stages_checks_a_later_per_row_xi(self, bad):
        coeffs = np.array([QUTRIT, np.sqrt([0.1, 0.3, 0.6])])
        walk_stages(coeffs, (np.array([1.0, 0.5]), np.array([0.5, 1.0])))
        with pytest.raises(ValueError, match="distinguishability"):
            walk_stages(coeffs, (np.array([1.0, 0.5]), np.array([0.5, bad])))
        with pytest.raises(ValueError, match="distinguishability"):
            walk_stages(coeffs, (1.0, bad))
