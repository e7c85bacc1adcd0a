import json

import numpy as np
import pytest

from densecode import SchmidtState, cli
from densecode.discrimination import separate
from densecode.gates import fourier, gxor, pauli_z
from densecode.tensor_core import Ket, apply, tensor

from conftest import random_schmidt
from dense import Message, decode_split, encode, resource_state, symmetric_state


class TestSchmidtState:
    def test_basic_fields(self, qutrit_state):
        assert qutrit_state.D == 3
        assert abs(qutrit_state.coeffs.min() - np.sqrt(0.2)) < 1e-12
        assert qutrit_state.n_messages == 12

    def test_uniform_multiplicity(self):
        s = SchmidtState.from_squared(3, 3, [1 / 3, 1 / 3, 1 / 3])
        sep = separate(s.coeffs, 1.0)
        assert sep.minimal.sum() == s.D == 3
        assert sep.uniform

    def test_multiplicity_groups_float_noise(self):
        s = SchmidtState.from_squared(3, 3, [0.2, 0.2 + 1e-10, 0.6 - 1e-10])
        assert separate(s.coeffs, 1.0).minimal.sum() == 2

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            SchmidtState(2, 2, [0.5, 0.5])

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ValueError):
            SchmidtState(2, 2, [1.0, 0.0])

    def test_rejects_rank_above_dimensions(self):
        with pytest.raises(ValueError):
            SchmidtState.from_squared(2, 3, [0.2, 0.3, 0.5])

    def test_json_round_trip(self):
        obj = {"d1": 2, "d2": 2, "coeffs": [0.2, 0.8], "squared": True}
        s = cli._parse_state(json.loads(json.dumps(obj)))
        assert np.allclose(s.coeffs**2, [0.2, 0.8])
        t = cli._parse_state({"d1": 2, "d2": 2, "coeffs": list(s.coeffs)})
        assert np.allclose(t.coeffs, s.coeffs)

    def test_order_preserved(self):
        s = SchmidtState.from_squared(3, 3, [0.5, 0.2, 0.3])
        assert np.allclose(s.coeffs**2, [0.5, 0.2, 0.3])


class TestResourceState:
    def test_bell_state(self):
        s = SchmidtState(2, 2, [2**-0.5, 2**-0.5])
        assert np.allclose(resource_state(s).amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_nonuniform_qubits(self, qubit_state):
        amps = resource_state(qubit_state).amplitudes
        assert np.allclose(amps, [np.sqrt(0.2), 0, 0, np.sqrt(0.8)])

    def test_uniform_rank3_in_12_dims(self):
        s = SchmidtState.from_squared(3, 4, [1 / 3] * 3)
        amps = resource_state(s).amplitudes
        assert amps.size == 12
        expected = np.zeros(12)
        expected[[0, 5, 10]] = 3**-0.5
        assert np.allclose(amps, expected)


class TestEncode:
    def test_identity_message(self, qubit_state):
        out = encode(qubit_state, Message(0, 0))
        assert np.allclose(out.amplitudes, resource_state(qubit_state).amplitudes)

    def test_bell_phase_flip(self):
        s = SchmidtState(2, 2, [2**-0.5, 2**-0.5])
        out = encode(s, Message(1, 0))
        assert np.allclose(out.amplitudes, np.array([1, 0, 0, -1]) / np.sqrt(2))

    def test_overlap_structure(self, qubit_state):
        # <Psi_01 | Psi_11> collapses to the carrier overlap, -0.6 by hand
        left = encode(qubit_state, Message(0, 1))
        right = encode(qubit_state, Message(1, 1))
        assert abs(left.overlap(right) - (-0.6)) < 1e-12

    def test_rejects_out_of_range_message(self, qubit_state):
        with pytest.raises(ValueError):
            encode(qubit_state, Message(2, 0))
        with pytest.raises(ValueError):
            encode(qubit_state, Message(0, 2))


class TestSymmetricState:
    def test_zeroth_is_coefficient_vector(self, qutrit_state):
        amps = symmetric_state(qutrit_state, 0).amplitudes
        assert np.allclose(amps, qutrit_state.coeffs)

    def test_ambient_padding(self):
        s = SchmidtState.from_squared(4, 4, [0.2, 0.3, 0.5])
        amps = symmetric_state(s, 0).amplitudes
        assert amps.size == 4
        assert np.allclose(amps[:3], s.coeffs)
        assert amps[3] == 0.0

    def test_hand_evaluated_phases(self, qubit_state):
        amps = symmetric_state(qubit_state, 1).amplitudes
        assert np.allclose(amps, [np.sqrt(0.2), -np.sqrt(0.8)])

    def test_uniform_family_is_orthonormal(self):
        s = SchmidtState.from_squared(3, 3, [1 / 3] * 3)
        family = [symmetric_state(s, j) for j in range(3)]
        for j in range(3):
            for k in range(3):
                assert abs(family[j].overlap(family[k]) - (j == k)) < 1e-10

    def test_rejects_out_of_range(self, qubit_state):
        with pytest.raises(ValueError):
            symmetric_state(qubit_state, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_phase_operator_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        s = random_schmidt(rng)
        z = pauli_z(s.D, s.d1)
        base = symmetric_state(s, 0)
        for j in range(s.D):
            expected = symmetric_state(s, j).amplitudes
            powered = np.linalg.matrix_power(z.entries, j) @ base.amplitudes
            assert np.max(np.abs(powered - expected)) <= 1e-10
        wrapped = z.entries @ symmetric_state(s, s.D - 1).amplitudes
        assert np.max(np.abs(wrapped - base.amplitudes)) <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_orthogonality_split(seed):
    # <Psi_mn | Psi_jk> = <alpha_m | alpha_j> delta_kn
    rng = np.random.default_rng(40 + seed)
    s = random_schmidt(rng)
    encoded = {
        (j, k): encode(s, Message(j, k)) for j in range(s.D) for k in range(s.d2)
    }
    carriers = [symmetric_state(s, j) for j in range(s.D)]
    for (m, n), bra in encoded.items():
        for (j, k), ket in encoded.items():
            expected = carriers[m].overlap(carriers[j]) if n == k else 0.0
            assert abs(bra.overlap(ket) - expected) <= 1e-10


def test_uniform_case_fourier_route_and_distinguishability():
    s = SchmidtState.from_squared(3, 4, [1 / 3] * 3)
    gate = gxor(3, 4)
    f1 = fourier(3, 3)
    encoded = []
    for j in range(3):
        for k in range(4):
            direct = encode(s, Message(j, k))
            routed = apply(gate, tensor(apply(f1, Ket.basis(3, j)), Ket.basis(4, k)))
            assert np.max(np.abs(direct.amplitudes - routed.amplitudes)) <= 1e-10
            encoded.append(direct)
    for a in range(len(encoded)):
        for b in range(len(encoded)):
            assert abs(encoded[a].overlap(encoded[b]) - (a == b)) <= 1e-10


class TestDecodeSplit:
    def test_bell_message(self):
        s = SchmidtState(2, 2, [2**-0.5, 2**-0.5])
        k, residual = decode_split(encode(s, Message(1, 1)), s)
        assert k == 1
        assert np.allclose(residual.amplitudes, np.array([1, -1]) / np.sqrt(2))

    def test_uniform_rank3(self):
        s = SchmidtState.from_squared(3, 3, [1 / 3] * 3)
        k, residual = decode_split(encode(s, Message(2, 0)), s)
        assert k == 0
        assert np.max(np.abs(residual.amplitudes - symmetric_state(s, 2).amplitudes)) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_exhaustive_round_trip(self, seed):
        rng = np.random.default_rng(60 + seed)
        s = random_schmidt(rng)
        for j in range(s.D):
            expected = symmetric_state(s, j)
            for k in range(s.d2):
                got_k, residual = decode_split(encode(s, Message(j, k)), s)
                assert got_k == k
                assert np.max(np.abs(residual.amplitudes - expected.amplitudes)) <= 1e-10

    def test_rejects_invalid_input(self, qubit_state):
        bogus = Ket.normalized([1, 1, 0, 0])
        with pytest.raises(ValueError, match="not a valid encoded state"):
            decode_split(bogus, qubit_state)
