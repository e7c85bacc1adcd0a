import numpy as np
import pytest

from densecode.gates import fourier, gxor, pauli_x, pauli_z
from densecode.tensor_core import Ket, apply, tensor

from conftest import random_schmidt
from dense import Message, encode, symmetric_state


class TestPauliX:
    def test_mod_two_wraparound(self):
        out = apply(pauli_x(2), Ket.basis(2, 1))
        assert np.allclose(out.amplitudes, [1, 0])

    def test_inverse_power(self):
        x = pauli_x(4).entries
        inv = np.linalg.matrix_power(x, 3)  # X^-1 on 4 levels
        out = inv @ Ket.basis(4, 0).amplitudes
        assert np.allclose(out, np.eye(4)[3])

    def test_cyclic_order(self):
        x = pauli_x(3).entries
        assert np.allclose(np.linalg.matrix_power(x, 3), np.eye(3), atol=1e-10)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            pauli_x(1)


class TestPauliZ:
    def test_qubit_phase(self):
        assert np.allclose(pauli_z(2, 2).entries, np.diag([1, -1]), atol=1e-12)

    def test_roots_of_unity(self):
        z = pauli_z(3, 3).entries
        assert np.allclose(np.linalg.matrix_power(z, 3), np.eye(3), atol=1e-10)

    def test_identity_on_complement(self):
        assert np.allclose(pauli_z(2, 3).entries, np.diag([1, -1, 1]), atol=1e-12)

    def test_rejects_rank_above_dimension(self):
        with pytest.raises(ValueError):
            pauli_z(4, 3)


class TestGxor:
    def test_cnot_like_action(self):
        g = gxor(2, 2).entries
        state_10 = np.zeros(4)
        state_10[2] = 1.0
        state_11 = np.zeros(4)
        state_11[3] = 1.0
        assert np.allclose(g @ state_10, state_11)
        assert np.allclose(g @ state_11, state_10)

    def test_unequal_cardinalities(self):
        g = gxor(3, 4).entries
        idx_in = 2 * 4 + 1  # |2, 1>
        idx_out = 2 * 4 + (2 - 1) % 4  # |2, 2 - 1>
        out = g @ np.eye(12)[idx_in]
        assert np.allclose(out, np.eye(12)[idx_out])

    def test_involution(self):
        g = gxor(3, 4)
        assert np.allclose((g @ g).entries, np.eye(12), atol=1e-10)

    def test_hermitian_and_unitary(self):
        g = gxor(3, 4)
        assert g.is_hermitian(1e-10)
        assert g.is_unitary(1e-10)


class TestFourier:
    def test_qubit_hadamard(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(fourier(2, 2).entries, expected, atol=1e-12)

    def test_columns_are_uniform_symmetric_states(self):
        f = fourier(3, 3)
        for j in range(3):
            column = apply(f, Ket.basis(3, j)).amplitudes
            phases = np.exp(2j * np.pi * j * np.arange(3) / 3) / np.sqrt(3)
            assert np.allclose(column, phases, atol=1e-12)

    def test_unitary_when_embedded(self):
        f = fourier(3, 4)
        assert f.is_unitary(1e-10)

    def test_rejects_rank_above_dimension(self):
        with pytest.raises(ValueError):
            fourier(5, 4)


@pytest.mark.parametrize("d", range(2, 9))
def test_power_identities(d):
    x = pauli_x(d).entries
    assert np.max(np.abs(np.linalg.matrix_power(x, d) - np.eye(d))) <= 1e-10
    for rank in range(2, d + 1):
        z = pauli_z(rank, d).entries
        assert np.max(np.abs(np.linalg.matrix_power(z, rank) - np.eye(d))) <= 1e-10
        f = fourier(rank, d)
        assert np.max(np.abs((f.dagger() @ f).entries - np.eye(d))) <= 1e-10


@pytest.mark.parametrize("d1", range(2, 9, 2))
@pytest.mark.parametrize("d2", range(2, 9, 3))
def test_gxor_involution_grid(d1, d2):
    g = gxor(d1, d2)
    assert np.max(np.abs((g @ g).entries - np.eye(d1 * d2))) <= 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_encoding_identity(seed):
    # X^-k Z^j on the shared state equals GXOR applied to carrier x basis
    rng = np.random.default_rng(seed)
    s = random_schmidt(rng)
    gate = gxor(s.d1, s.d2)
    for j in range(s.D):
        carrier = symmetric_state(s, j)
        for k in range(s.d2):
            lhs = encode(s, Message(j, k)).amplitudes
            rhs = apply(gate, tensor(carrier, Ket.basis(s.d2, k))).amplitudes
            assert np.max(np.abs(lhs - rhs)) <= 1e-10
