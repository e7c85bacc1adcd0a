import numpy as np
import pytest

from densecode import derived_rng
from densecode.gates import fourier, gxor, pauli_x
from densecode.tensor_core import (
    Ket,
    Measurement,
    Operator,
    apply,
    born_probabilities,
    project_subsystem,
    tensor,
)

from conftest import random_schmidt
from dense import Message, encode, me_measurement, symmetric_state


def basis(dim, i):
    return Ket.basis(dim, i)


class TestKet:
    def test_normalized_constructor(self):
        k = Ket.normalized([3.0, 4.0])
        assert abs(k.norm() - 1.0) < 1e-10
        with pytest.raises(ValueError):
            Ket.normalized([0.0, 0.0])

    def test_immutable(self):
        k = basis(2, 0)
        with pytest.raises(ValueError):
            k.amplitudes[0] = 5.0


class TestTensor:
    def test_basis_product(self):
        out = tensor(basis(2, 0), basis(2, 0))
        assert np.allclose(out.amplitudes, [1, 0, 0, 0])

    def test_index_arithmetic(self):
        out = tensor(basis(2, 1), basis(3, 0))
        expected = np.zeros(6)
        expected[3] = 1.0
        assert np.allclose(out.amplitudes, expected)

    def test_linearity(self):
        plus = Ket.normalized([1, 1])
        out = tensor(plus, basis(2, 1))
        assert np.allclose(out.amplitudes, [0, 2**-0.5, 0, 2**-0.5])


class TestApply:
    def test_identity(self):
        s = Ket.normalized([1, 2j, -1])
        out = apply(Operator.identity(3), s)
        assert np.allclose(out.amplitudes, s.amplitudes)

    def test_shift_gate(self):
        out = apply(pauli_x(2), basis(2, 0))
        assert np.allclose(out.amplitudes, [0, 1])

    def test_fourier_column(self):
        out = apply(fourier(2, 2), basis(2, 0))
        assert np.allclose(out.amplitudes, [2**-0.5, 2**-0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(Operator.identity(3), basis(2, 0))

    @pytest.mark.parametrize("seed", range(10))
    def test_unitary_preserves_norm(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        random = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, _ = np.linalg.qr(random)
        state = Ket.normalized(rng.normal(size=d) + 1j * rng.normal(size=d))
        out = apply(Operator(q), state)
        assert abs(out.norm() - 1.0) < 1e-10


class TestMeasurementInvariants:
    def test_rejects_incomplete_povm(self):
        half = Operator(0.5 * np.eye(2))
        with pytest.raises(ValueError):
            Measurement((half,), (0,))

    def test_rejects_negative_element(self):
        neg = Operator(np.diag([1.5, -0.5]).astype(complex))
        fix = Operator(np.eye(2) - neg.entries)
        with pytest.raises(ValueError):
            Measurement((neg, fix), (0, 1))

    def test_rejects_duplicate_labels(self):
        p0 = Operator(np.diag([1.0, 0.0]).astype(complex))
        p1 = Operator(np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(ValueError):
            Measurement((p0, p1), (0, 0))


def computational_measurement(d):
    ops = tuple(Operator(np.diag(np.eye(d)[i]).astype(complex)) for i in range(d))
    return Measurement(ops, tuple(range(d)))


class TestBornProbabilities:
    def test_basis_state(self):
        probs = born_probabilities(basis(2, 0), computational_measurement(2))
        assert np.allclose(probs, [1, 0])

    def test_me_on_nonuniform_family(self, qubit_state):
        # by hand from the circulant form: p = ((a0 +/- a1)^2) / 2
        a0, a1 = qubit_state.coeffs
        expected = [(a0 + a1) ** 2 / 2, (a0 - a1) ** 2 / 2]
        probs = born_probabilities(symmetric_state(qubit_state, 0), me_measurement(2, 2))
        assert np.allclose(probs, expected, atol=1e-12)
        assert np.allclose(probs, [0.9, 0.1], atol=1e-12)

    def test_orthogonal_uniform_states(self):
        from densecode import SchmidtState

        uniform = SchmidtState.from_squared(3, 3, [1 / 3] * 3)
        probs = born_probabilities(symmetric_state(uniform, 0), me_measurement(3, 3))
        assert np.allclose(probs, [1, 0, 0], atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            born_probabilities(basis(3, 0), computational_measurement(2))

    @pytest.mark.parametrize("seed", range(25))
    def test_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        s = random_schmidt(rng)
        state = symmetric_state(s, int(rng.integers(s.D)))
        probs = born_probabilities(state, me_measurement(s.D, s.d1))
        assert abs(probs.sum() - 1.0) < 1e-9
        assert probs.min() >= 0.0 and probs.max() <= 1.0


class TestProjectSubsystem:
    def test_bell_state(self):
        bell = Ket.normalized([1, 0, 0, 1])
        prob, residual = project_subsystem(bell, (2, 2), "B", 0)
        assert abs(prob - 0.5) < 1e-12
        assert np.allclose(residual.amplitudes, [1, 0])

    def test_product_state(self):
        state = tensor(basis(2, 1), basis(2, 1))
        prob, residual = project_subsystem(state, (2, 2), "B", 1)
        assert abs(prob - 1.0) < 1e-12
        assert np.allclose(residual.amplitudes, [0, 1])

    def test_null_event(self):
        state = tensor(basis(2, 0), basis(2, 0))
        with pytest.raises(ValueError, match="null event"):
            project_subsystem(state, (2, 2), "B", 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        s = random_schmidt(rng)
        state = encode(s, Message(int(rng.integers(s.D)), int(rng.integers(s.d2))))
        total = 0.0
        for outcome in range(s.d2):
            table = state.amplitudes.reshape(s.d1, s.d2)
            total += float(np.sum(np.abs(table[:, outcome]) ** 2))
        assert abs(total - 1.0) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_gxor_split_recovers_message(self, seed):
        # decoding split: GXOR then a system-2 projection is deterministic
        rng = np.random.default_rng(100 + seed)
        s = random_schmidt(rng)
        gate = gxor(s.d1, s.d2)
        for j in range(s.D):
            expected = symmetric_state(s, j)
            for k in range(s.d2):
                split = apply(gate, encode(s, Message(j, k)))
                prob, residual = project_subsystem(split, (s.d1, s.d2), "B", k)
                assert abs(prob - 1.0) < 1e-10
                assert np.max(np.abs(residual.amplitudes - expected.amplitudes)) < 1e-10


class TestDerivedRng:
    def test_streams_reproducible_and_distinct(self):
        a1 = derived_rng(5, 0).random(4)
        a2 = derived_rng(5, 0).random(4)
        b = derived_rng(5, 1).random(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
