"""Dense protocol helpers, for tests only.

The runtime computes every figure in closed form from the Schmidt
coefficients and the batched `Separation` rows of
`densecode.discrimination.separate`. The helpers here build the same objects
as dense kets, operators and POVMs from `densecode.tensor_core` and
`densecode.gates`: the encoded messages and the GXOR split, the carrier
family, a separation's Kraus pair and dilation unitary on an ambient space,
the ME measurement, Bayes confidence and conditional entropy. They serve
`circuit_oracle.py` and the tests that check the closed form against the
circuit. The textbook joint-table oracles live here too: `analytic_joint`
expands the branch tree into the dense (message) x (record, m) table,
`mutual_info_from_joint` is the mutual information of any joint table, and
`counts_table_mutual_info` the plug-in information of a dense count table.

The Kraus pair is not part of the runtime: `kraus_diagonals` derives it here
from the Chefles-Barnett formula, without calling `separate`. Its diagonals
cover the levels of one 1D coefficient vector; the helpers pad them to the
ambient dimension `dim` with 1 (success) and 0 (failure), so the pair stays
complete there. No valid state carries amplitude on the padded levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from densecode.channel import COEFF_TOL, GROUP_TOL_SQ, SchmidtState
from densecode.gates import fourier, gxor, pauli_x, pauli_z
from densecode.infometrics import _ZERO_PROB, _plogp
from densecode.protocol_sim import INCONCLUSIVE, DecodingStrategy, _BranchTree
from densecode.tensor_core import Ket, Measurement, Operator, apply, born_probabilities


@dataclass(frozen=True)
class Message:
    """Classical message (j, k) with j < D and k < d2."""

    j: int
    k: int

    def validate(self, s: SchmidtState) -> None:
        if not 0 <= self.j < s.D:
            raise ValueError(f"message j={self.j} out of range for rank {s.D}")
        if not 0 <= self.k < s.d2:
            raise ValueError(f"message k={self.k} out of range for d2={s.d2}")


def resource_state(s: SchmidtState) -> Ket:
    """The shared ket sum_l a_l |l>_1 |l>_2 in the d1*d2 space."""
    amps = np.zeros(s.d1 * s.d2, dtype=complex)
    for level, coeff in enumerate(s.coeffs):
        amps[level * s.d2 + level] = coeff
    return Ket(amps)


def _encoding_unitary(s: SchmidtState, m: Message) -> np.ndarray:
    xmat = pauli_x(s.d2).entries
    xpow = np.linalg.matrix_power(xmat, (-m.k) % s.d2)
    if s.D == 1:
        return xpow
    zmat = pauli_z(s.D, s.d2).entries
    return xpow @ np.linalg.matrix_power(zmat, m.j)


def encode(s: SchmidtState, m: Message) -> Ket:
    """Sender's local action: (I x X^-k Z^j) applied to the resource state."""
    m.validate(s)
    local = _encoding_unitary(s, m)
    full = np.kron(np.eye(s.d1, dtype=complex), local)
    return apply(Operator(full), resource_state(s))


def symmetric_state(s: SchmidtState, j: int) -> Ket:
    """Carrier state sum_l a_l exp(2*pi*i*j*l/D) |l> in the d1 space."""
    if not 0 <= j < s.D:
        raise ValueError(f"index j={j} out of range for rank {s.D}")
    amps = np.zeros(s.d1, dtype=complex)
    levels = np.arange(s.D)
    amps[: s.D] = s.coeffs * np.exp(2j * np.pi * j * levels / s.D)
    return Ket(amps)


def decode_split(state: Ket, s: SchmidtState):
    """Apply GXOR and measure system 2; returns (k, residual system-1 state).

    The system-2 outcome is deterministic for any validly encoded state; a
    spread-out outcome distribution means the input was not one.
    """
    if state.dim != s.d1 * s.d2:
        raise ValueError("state dimension does not match the channel")
    split = apply(gxor(s.d1, s.d2), state)
    table = split.amplitudes.reshape(s.d1, s.d2)
    outcome_probs = np.sum(np.abs(table) ** 2, axis=0)
    k = int(np.argmax(outcome_probs))
    if outcome_probs[k] < 1.0 - 1e-9:
        raise ValueError("input is not a valid encoded state")
    branch = table[:, k]
    return k, Ket(branch / np.linalg.norm(branch))


def _padded(values: np.ndarray, dim: int, fill: float) -> np.ndarray:
    """`values` on the leading levels of a `dim`-level space, `fill` above."""
    if dim < values.size:
        raise ValueError("ambient dimension smaller than the coefficient vector")
    out = np.full(dim, fill)
    out[: values.size] = values
    return out


def kraus_diagonals(coeffs, xi: float):
    """(success, failure) Kraus diagonals of the optimal separation of the
    symmetric family of the 1D vector `coeffs` at distinguishability `xi`.

    Chefles-Barnett: on d support levels with smallest square m2, success
    happens with P_s = 1 / ((1 - xi) + xi / (d * m2)) and leaves the levels
    b_l with b_l^2 = (1 - xi) * c_l^2 + xi / d, so the success diagonal is
    A_l = sqrt(P_s) * b_l / c_l, that is A_l^2 = P_s * ((1 - xi) + xi / (d * c_l^2)).
    Completeness fixes the failure diagonal, F_l^2 = 1 - A_l^2 =
    P_s * (xi / d) * (1 / m2 - 1 / c_l^2), which vanishes on the minimum.
    The pair is (1, 0) off the support, and on every level when the support
    squares all lie within GROUP_TOL_SQ of each other: such a family is
    uniform and there is nothing to separate.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1:
        raise ValueError("coeffs must be a 1D vector")
    if not 0.0 <= xi <= 1.0:
        raise ValueError("distinguishability must lie in [0, 1]")
    success, failure = np.ones(coeffs.size), np.zeros(coeffs.size)
    on = coeffs > COEFF_TOL
    level_sq = coeffs[on] ** 2
    if level_sq.max() - level_sq.min() <= GROUP_TOL_SQ:
        return success, failure
    d, m2 = level_sq.size, level_sq.min()
    p_success = 1.0 / ((1.0 - xi) + xi / (d * m2))
    success[on] = np.sqrt(p_success * ((1.0 - xi) + xi / (d * level_sq)))
    failure[on] = np.sqrt(p_success * (xi / d) * (1.0 / m2 - 1.0 / level_sq))
    return success, failure


def _padded_diagonals(coeffs, xi: float, dim: int):
    success, failure = kraus_diagonals(coeffs, xi)
    return _padded(success, dim, 1.0), _padded(failure, dim, 0.0)


def kraus_pair(coeffs, xi: float, dim: int):
    """(success, failure) Kraus operators of the separation of `coeffs` at
    `xi` on `dim` levels."""
    success, failure = _padded_diagonals(coeffs, xi, dim)
    return Operator(np.diag(success.astype(complex))), Operator(np.diag(failure.astype(complex)))


def _phased_ket(coeffs: np.ndarray, period: int, j: int, dim: int) -> Ket:
    amps = np.zeros(dim, dtype=complex)
    levels = np.arange(coeffs.size)
    amps[: coeffs.size] = coeffs * np.exp(2j * np.pi * j * levels / period)
    return Ket(amps)


def separated_state(sep, j: int, dim: int) -> Ket:
    """Post-success state; phases keep the original period on a shrunken support."""
    period = sep.b_coeffs.size
    if not 0 <= j < period:
        raise ValueError(f"index j={j} out of range for period {period}")
    return _phased_ket(sep.b_coeffs, period, j, dim)


def failure_state(sep, j: int, dim: int) -> Ket:
    """Post-failure state; independent of the distinguishability parameter."""
    if sep.uniform:
        raise ValueError("failure branch is empty")
    period = sep.failure_coeffs.size
    if not 0 <= j < period:
        raise ValueError(f"index j={j} out of range for period {period}")
    return _phased_ket(sep.failure_coeffs, period, j, dim)


def dilation_unitary(coeffs, xi: float, dim: int) -> Operator:
    """Two-level ancilla coupling realizing the Kraus pair of the separation
    of `coeffs` at `xi` on `dim` levels.

    On |psi>|0> it produces sqrt(P_s)|beta>|0> + sqrt(1-P_s)|chi>|1>. The
    unused ancilla-|1> input sector is completed by a per-level rotation,
    which is one valid isometric extension.
    """
    s_diag, f_diag = _padded_diagonals(coeffs, xi, dim)
    mat = np.zeros((2 * dim, 2 * dim), dtype=complex)
    for n in range(dim):
        mat[2 * n, 2 * n] = s_diag[n]
        mat[2 * n + 1, 2 * n] = f_diag[n]
        mat[2 * n, 2 * n + 1] = -f_diag[n]
        mat[2 * n + 1, 2 * n + 1] = s_diag[n]
    return Operator(mat)


def me_measurement(rank: int, d: int) -> Measurement:
    """Minimum-error projectors onto the Fourier columns of the leading
    `rank`-dimensional subspace, plus a complement element (labelled
    INCONCLUSIVE) when rank < d so the POVM stays complete. The complement
    never fires on states supported in the subspace."""
    if rank < 1:
        raise ValueError("rank must be positive")
    if rank > d:
        raise ValueError(f"rank {rank} exceeds ambient dimension {d}")
    fmat = fourier(rank, d).entries
    ops = []
    labels = []
    for j in range(rank):
        col = fmat[:, j]
        ops.append(Operator(np.outer(col, col.conj())))
        labels.append(j)
    if rank < d:
        complement = np.eye(d, dtype=complex)
        for op in ops:
            complement -= op.entries
        ops.append(Operator(complement))
        labels.append(INCONCLUSIVE)
    return Measurement(tuple(ops), tuple(labels))


def confidence(family, priors, m: Measurement, outcome: int, hypothesis: int) -> float:
    """Bayes posterior p(hypothesis | outcome) for the given family and POVM."""
    priors = np.asarray(priors, dtype=float)
    if len(family) != priors.size:
        raise ValueError("family and priors must have equal length")
    if abs(priors.sum() - 1.0) > 1e-9:
        raise ValueError("priors must sum to 1")
    if not 0 <= outcome < len(m):
        raise ValueError("outcome index out of range")
    if not 0 <= hypothesis < len(family):
        raise ValueError("hypothesis index out of range")
    op = m.operators[outcome].entries
    likelihoods = np.array(
        [np.vdot(state.amplitudes, op @ state.amplitudes).real for state in family]
    )
    likelihoods = np.clip(likelihoods, 0.0, None)
    total = float(np.dot(priors, likelihoods))
    if total < 1e-14:
        raise ValueError("unreachable outcome")
    return float(priors[hypothesis] * likelihoods[hypothesis] / total)


def conditional_entropy(states, m: Measurement) -> float:
    """Equal-prior conditional entropy -(1/D) sum_jl p(l|j) log2 p(l|j)."""
    n_states = len(states)
    if n_states == 0:
        raise ValueError("empty state family")
    acc = 0.0
    for state in states:
        acc += float(_plogp(born_probabilities(state, m)))
    return -acc / n_states


def _expand_joint(counts: np.ndarray) -> np.ndarray:
    """Full (message) x (record, m) table of `counts`, shape (D, d2, records),
    in their dtype; m is the deterministic k readout."""
    rank, d2, n_records = counts.shape
    joint = np.zeros((rank * d2, n_records * d2), dtype=counts.dtype)
    for j in range(rank):
        for k in range(d2):
            joint[j * d2 + k, k::d2] = counts[j, k, :]
    return joint


def analytic_joint(s: SchmidtState, strat: DecodingStrategy) -> np.ndarray:
    """Exact joint distribution over (message) x (record, m) of the branch tree.

    Row index is j*d2 + k, column index record*d2 + m, with uniform message
    priors folded in. The readout m always equals k. The textbook mutual
    information of this table must equal the strategy's closed-form total.
    """
    dist = _BranchTree(s.coeffs, strat.plan).dist
    per_message = np.broadcast_to(dist[:, None, :], (s.D, s.d2, dist.shape[1]))
    return _expand_joint(per_message) / (s.d2 * s.D)


def mutual_info_from_joint(joint) -> float:
    """Textbook mutual information of a joint probability table.

    Serves as the independent oracle for the simplified reduction used by the
    analytic strategy formulas.
    """
    table = np.asarray(joint, dtype=float)
    if table.ndim != 2:
        raise ValueError("joint must be a 2D table")
    if np.min(table) < -1e-12:
        raise ValueError("joint probabilities must be nonnegative")
    total = float(table.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError("joint table is not normalized")
    table = np.clip(table, 0.0, None)
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    acc = 0.0
    for i, j in zip(*np.nonzero(table > _ZERO_PROB)):
        p = table[i, j]
        acc += p * math.log2(p / (row[i] * col[j]))
    return float(acc)


def counts_table_mutual_info(table, n: int) -> float:
    """Plug-in mutual information of a dense integer count table over `n`
    trials: each marginal an integer sum divided by n, each term's logarithm
    numpy's log2, the terms summed in a row-major loop.

    Serves as the oracle of infometrics.counts_mutual_info, which reads the
    same figures from the compact counts of a block-diagonal table.
    """
    table = np.asarray(table)
    if table.dtype.kind not in "iu" or table.ndim != 2:
        raise ValueError("table must be a 2D integer array")
    if n < 1 or table.min() < 0 or table.sum() != n:
        raise ValueError(f"table must be nonnegative and sum to n = {n}")
    row = table.sum(axis=1) / n
    col = table.sum(axis=0) / n
    acc = 0.0
    for i, j in zip(*np.nonzero(table)):
        p = table[i, j] / n
        if p > _ZERO_PROB:
            acc += p * np.log2(p / (row[i] * col[j]))
    return float(acc)
