"""Measurement machinery: minimum-error POVM for symmetric families, the
distinguishability-parametrized separation map with its Kraus pair and
dilation unitary, failure states, stage recursion, and Bayes confidence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import COEFF_TOL, GROUP_TOL_SQ
from .gates import fourier
from .tensor_core import INCONCLUSIVE, Ket, Measurement, Operator

#: Final actions for a stage plan.
FINAL_ME = "me"
FINAL_ABSTAIN = "abstain"


@dataclass(frozen=True)
class StagePlan:
    """Ordered separation stages (one distinguishability value each) plus the
    action taken after the last failure."""

    stages: tuple
    final_action: str = FINAL_ABSTAIN

    def __post_init__(self) -> None:
        stages = tuple(float(x) for x in self.stages)
        for xi in stages:
            if not 0.0 <= xi <= 1.0:
                raise ValueError("stage distinguishability must lie in [0, 1]")
        if self.final_action not in (FINAL_ME, FINAL_ABSTAIN):
            raise ValueError("final_action must be 'me' or 'abstain'")
        object.__setattr__(self, "stages", stages)


@dataclass(frozen=True, eq=False)
class SeparationMap:
    """Probabilistic map increasing the pairwise distinguishability of a
    symmetric family with coefficients `coeffs` (phase period = len(coeffs)).

    kraus_success acts as the identity off the support so that the pair stays
    complete on the ambient space; no valid state carries amplitude there.
    failure_coeffs is None for a uniform family (the failure branch is empty).
    """

    xi: float
    coeffs: np.ndarray
    support: tuple
    b_coeffs: np.ndarray
    p_success: float
    kraus_success: Operator
    kraus_failure: Operator
    failure_coeffs: np.ndarray | None
    dim: int

    @property
    def period(self) -> int:
        return self.coeffs.size


def _support(coeffs: np.ndarray) -> np.ndarray:
    return np.flatnonzero(coeffs > COEFF_TOL)


def _min_group(coeffs: np.ndarray, support: np.ndarray) -> np.ndarray:
    sq = coeffs[support] ** 2
    return support[sq - np.min(sq) <= GROUP_TOL_SQ]


def failure_coefficients(coeffs: np.ndarray) -> np.ndarray | None:
    """Post-failure family coefficients; None when the family is uniform.

    Supported only where the input exceeds its minimum, so each failure strips
    at least the whole minimal multiplicity class.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    support = _support(coeffs)
    minimal = _min_group(coeffs, support)
    if minimal.size == support.size:
        return None
    m2 = float(np.min(coeffs[support] ** 2))
    rest = np.setdiff1d(support, minimal)
    # Normalised over what is left: a near-tied level in the minimal class
    # drops its excess over m2 as well, so 1 - d*m2 would overcount.
    excess = coeffs[rest] ** 2 - m2
    chi = np.zeros_like(coeffs)
    chi[rest] = np.sqrt(excess / excess.sum())
    return chi


def separation_map(coeffs, xi: float, dim: int | None = None) -> SeparationMap:
    """Optimal separation of a symmetric family at distinguishability `xi`.

    `coeffs` is the coefficient vector on the phase period; zeros mark levels
    outside the support. `dim` embeds the operators in a larger ambient space.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError("distinguishability must lie in [0, 1]")
    coeffs = np.array(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("coeffs must be a nonempty 1D vector")
    if np.min(coeffs) < -COEFF_TOL:
        raise ValueError("coefficients must be nonnegative")
    support = _support(coeffs)
    if support.size == 0:
        raise ValueError("empty support")
    if abs(np.sum(coeffs[support] ** 2) - 1.0) > 1e-10:
        raise ValueError("squared coefficients must sum to 1 on the support")
    dim = coeffs.size if dim is None else int(dim)
    if dim < coeffs.size:
        raise ValueError("ambient dimension smaller than the coefficient vector")

    d_sup = support.size
    sq = coeffs**2
    m2 = float(np.min(sq[support]))
    uniform = bool(np.max(sq[support]) - m2 <= GROUP_TOL_SQ)

    b = np.zeros_like(coeffs)
    if uniform:
        # Nothing to separate: identity map, certain success.
        b[support] = coeffs[support]
        s_diag = np.ones(dim)
        f_diag = np.zeros(dim)
        p_success = 1.0
    else:
        b[support] = np.sqrt((1.0 - xi) * sq[support] + xi / d_sup)
        denom = (1.0 - xi) + xi / (d_sup * m2)
        p_success = 1.0 / denom
        s_diag = np.ones(dim)
        f_diag = np.zeros(dim)
        s_diag[support] = np.sqrt((1.0 - xi + xi / (d_sup * sq[support])) / denom)
        f_diag[support] = np.sqrt((xi / d_sup) * (1.0 / m2 - 1.0 / sq[support]) / denom)

    coeffs.setflags(write=False)
    b.setflags(write=False)
    chi = failure_coefficients(coeffs)
    if chi is not None:
        chi.setflags(write=False)
    return SeparationMap(
        xi=float(xi),
        coeffs=coeffs,
        support=tuple(int(i) for i in support),
        b_coeffs=b,
        p_success=float(p_success),
        kraus_success=Operator(np.diag(s_diag.astype(complex))),
        kraus_failure=Operator(np.diag(f_diag.astype(complex))),
        failure_coeffs=chi,
        dim=dim,
    )


def stage_walk(coeffs, stages, dim: int | None = None):
    """Walk a stage plan down the failure-state hierarchy of a symmetric family.

    Returns (maps, rest): the separation maps the plan executes, in order, and
    the coefficients of the family left for the final action, or None when a
    uniform family ends the walk with certain success. The walk stops early
    once the family's support drops below two levels (nothing left to
    separate); the stages after that are never attempted.
    """
    current = np.asarray(coeffs, dtype=float)
    if len(stages) > max(current.size - 1, 0):
        raise ValueError("plan exceeds channel stages")
    maps = []
    for xi in stages:
        if _support(current).size < 2:
            break
        smap = separation_map(current, xi, dim)
        maps.append(smap)
        if smap.failure_coeffs is None:
            return maps, None
        current = smap.failure_coeffs
    return maps, current


def _phased_ket(coeffs: np.ndarray, period: int, j: int, dim: int) -> Ket:
    amps = np.zeros(dim, dtype=complex)
    levels = np.arange(coeffs.size)
    amps[: coeffs.size] = coeffs * np.exp(2j * np.pi * j * levels / period)
    return Ket(amps)


def separated_state(smap: SeparationMap, j: int) -> Ket:
    """Post-success state; phases keep the original period on a shrunken support."""
    if not 0 <= j < smap.period:
        raise ValueError(f"index j={j} out of range for period {smap.period}")
    return _phased_ket(smap.b_coeffs, smap.period, j, smap.dim)


def failure_state(smap: SeparationMap, j: int) -> Ket:
    """Post-failure state; independent of the distinguishability parameter."""
    if smap.failure_coeffs is None:
        raise ValueError("failure branch is empty")
    if not 0 <= j < smap.period:
        raise ValueError(f"index j={j} out of range for period {smap.period}")
    return _phased_ket(smap.failure_coeffs, smap.period, j, smap.dim)


def dilation_unitary(smap: SeparationMap) -> Operator:
    """Two-level ancilla coupling realizing the Kraus pair.

    On |psi>|0> it produces sqrt(P_s)|beta>|0> + sqrt(1-P_s)|chi>|1>. The
    unused ancilla-|1> input sector is completed by a per-level rotation,
    which is one valid isometric extension.
    """
    dim = smap.dim
    s_diag = np.real(np.diag(smap.kraus_success.entries))
    f_diag = np.real(np.diag(smap.kraus_failure.entries))
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


def me_outcome_probs(coeffs) -> np.ndarray:
    """Closed-form ME outcome row q_t = |sum_l c_l w^(lt)|^2 / P over the
    relative index t = (j - l) mod P; circulant in (j, l)."""
    coeffs = np.asarray(coeffs, dtype=float)
    period = coeffs.size
    grid = np.outer(np.arange(period), np.arange(period))
    amps = np.exp(2j * np.pi * grid / period) @ coeffs
    return np.abs(amps) ** 2 / period


def stage_success_probability(coeffs) -> float:
    """Success probability of separating the NEXT stage's family, i.e. the
    failure states of the family given by `coeffs`, at full distinguishability.

    Returns 0.0 when no further stage is possible: uniform input (no failure
    branch) or a failure support of dimension <= 1 (identical failure states).
    """
    chi = failure_coefficients(np.asarray(coeffs, dtype=float))
    if chi is None:
        return 0.0
    support = _support(chi)
    if support.size <= 1:
        return 0.0
    return float(support.size * np.min(chi[support] ** 2))


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
