"""Measurement machinery: minimum-error POVM for symmetric families, the
distinguishability-parametrized separation map with its Kraus pair and
dilation unitary, failure states, stage recursion, and Bayes confidence."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class Separation(NamedTuple):
    """Optimal separation of a stack of symmetric families at one
    distinguishability: one family per row of a (..., P) coefficient array,
    each field an array over those rows. A uniform row has nothing to
    separate (identity map, certain success, zero failure coefficients); a
    collapsed row has fewer than two support levels, so a stage walk stops
    before it."""

    support: np.ndarray
    minimal: np.ndarray
    b_coeffs: np.ndarray
    p_success: np.ndarray
    success_diag: np.ndarray
    failure_diag: np.ndarray
    failure_coeffs: np.ndarray
    uniform: np.ndarray
    collapsed: np.ndarray


def separate(coeffs, xi) -> Separation:
    """Optimal separation of each coefficient row of `coeffs` (shape (..., P),
    zeros marking levels outside the support) at distinguishability `xi`, one
    value for all rows or one per row (shape (...)).

    The minimum group holds the support levels whose squares lie within
    GROUP_TOL_SQ of the smallest; failure strips it and keeps the excess over
    that smallest square, normalised over what is left. The Kraus diagonals
    act as the identity off the support.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all((0.0 <= xi) & (xi <= 1.0)):
        raise ValueError("distinguishability must lie in [0, 1]")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 0 or coeffs.shape[-1] == 0:
        raise ValueError("coeffs must be a nonempty 1D vector")
    if np.any(coeffs < -COEFF_TOL):
        raise ValueError("coefficients must be nonnegative")
    support = coeffs > COEFF_TOL
    d_sup = support.sum(axis=-1)
    if np.any(d_sup == 0):
        raise ValueError("empty support")
    sq = coeffs**2
    if np.any(np.abs(np.sum(sq, axis=-1, where=support) - 1.0) > 1e-10):
        raise ValueError("squared coefficients must sum to 1 on the support")

    m2 = np.min(sq, axis=-1, where=support, initial=np.inf)
    uniform = np.max(sq, axis=-1, where=support, initial=0.0) - m2 <= GROUP_TOL_SQ
    minimal = support & (sq - m2[..., None] <= GROUP_TOL_SQ)
    level_sq = np.where(support, sq, 1.0)
    keep = xi / d_sup
    denom = (1.0 - xi) + xi / (d_sup * m2)
    stay = (1.0 - xi)[..., None]
    separated = np.sqrt(stay * sq + keep[..., None])
    s_diag = np.sqrt((stay + xi[..., None] / (d_sup[..., None] * level_sq)) / denom[..., None])
    f_diag = np.sqrt(keep[..., None] * (1.0 / m2[..., None] - 1.0 / level_sq) / denom[..., None])
    flat = uniform[..., None]
    # Normalised over what is left: a near-tied level in the minimal class
    # drops its excess over m2 as well, so 1 - d*m2 would overcount.
    excess = np.where(support & ~minimal, sq - m2[..., None], 0.0)
    norm = np.where(uniform, 1.0, excess.sum(axis=-1))
    return Separation(
        support=support,
        minimal=minimal,
        b_coeffs=np.where(support, np.where(flat, coeffs, separated), 0.0),
        p_success=np.where(uniform, 1.0, 1.0 / denom),
        success_diag=np.where(support & ~flat, s_diag, 1.0),
        failure_diag=np.where(support & ~flat, f_diag, 0.0),
        failure_coeffs=np.sqrt(excess / norm[..., None]),
        uniform=uniform,
        collapsed=d_sup < 2,
    )


@dataclass(frozen=True, eq=False)
class SeparationMap:
    """Probabilistic map increasing the pairwise distinguishability of a
    symmetric family with coefficients `coeffs` (phase period = len(coeffs)).

    The Kraus pair is diagonal; success_diag and failure_diag hold it on the
    ambient space of dimension `dim`. kraus_success acts as the identity off
    the support so that the pair stays complete on the ambient space; no
    valid state carries amplitude there. failure_coeffs is None for a uniform
    family (the failure branch is empty).
    """

    xi: float
    coeffs: np.ndarray
    support: tuple
    b_coeffs: np.ndarray
    p_success: float
    success_diag: np.ndarray
    failure_diag: np.ndarray
    failure_coeffs: np.ndarray | None
    dim: int

    @property
    def period(self) -> int:
        return self.coeffs.size

    @property
    def kraus_success(self) -> Operator:
        return Operator(np.diag(self.success_diag.astype(complex)))

    @property
    def kraus_failure(self) -> Operator:
        return Operator(np.diag(self.failure_diag.astype(complex)))


def _readonly(values: np.ndarray) -> np.ndarray:
    values = np.array(values)
    values.setflags(write=False)
    return values


def _as_map(coeffs: np.ndarray, xi: float, sep: Separation, dim: int) -> SeparationMap:
    """One family's separation map from a batch-of-one kernel result."""
    s_diag = np.ones(dim)
    f_diag = np.zeros(dim)
    s_diag[: coeffs.size] = sep.success_diag
    f_diag[: coeffs.size] = sep.failure_diag
    return SeparationMap(
        xi=float(xi),
        coeffs=_readonly(coeffs),
        support=tuple(int(i) for i in np.flatnonzero(sep.support)),
        b_coeffs=_readonly(sep.b_coeffs),
        p_success=float(sep.p_success),
        success_diag=_readonly(s_diag),
        failure_diag=_readonly(f_diag),
        failure_coeffs=None if sep.uniform else _readonly(sep.failure_coeffs),
        dim=dim,
    )


def _ambient(coeffs: np.ndarray, dim: int | None) -> int:
    dim = coeffs.size if dim is None else int(dim)
    if dim < coeffs.size:
        raise ValueError("ambient dimension smaller than the coefficient vector")
    return dim


def separation_map(coeffs, xi: float, dim: int | None = None) -> SeparationMap:
    """Optimal separation of a symmetric family at distinguishability `xi`.

    `coeffs` is the coefficient vector on the phase period; zeros mark levels
    outside the support. `dim` embeds the operators in a larger ambient space.
    """
    coeffs = np.array(coeffs, dtype=float)
    sep = separate(coeffs, xi)
    if coeffs.ndim != 1:
        raise ValueError("coeffs must be a nonempty 1D vector")
    return _as_map(coeffs, xi, sep, _ambient(coeffs, dim))


def walk_stages(coeffs, stages):
    """Walk a stage plan down the failure-state hierarchy of each coefficient
    row of `coeffs` (shape (..., P)).

    Returns (steps, rest, sure). steps holds per planned stage a tuple
    (rows that execute it, the families it acts on, their Separation); rest
    the families left for the final action; sure the rows whose walk ended
    with a uniform family, that is with certain success and nothing left.
    A row stops once its support drops below two levels, and an ended row
    executes no later stage; its families stay as they were, so every row
    stays valid input.
    """
    current = np.asarray(coeffs, dtype=float)
    if len(stages) > max(current.shape[-1] - 1, 0):
        raise ValueError("plan exceeds channel stages")
    live = np.ones(current.shape[:-1], dtype=bool)
    sure = np.zeros_like(live)
    steps = []
    for xi in stages:
        sep = separate(current, xi)
        live = live & ~sep.collapsed
        steps.append((live, current, sep))
        sure = sure | (live & sep.uniform)
        live = live & ~sep.uniform
        current = np.where(live[..., None], sep.failure_coeffs, current)
    return steps, current, sure


def stage_walk(coeffs, stages, dim: int | None = None):
    """Walk a stage plan down the failure-state hierarchy of a symmetric family.

    Returns (maps, rest): the separation maps the plan executes, in order, and
    the coefficients of the family left for the final action, or None when a
    uniform family ends the walk with certain success. The walk stops early
    once the family's support drops below two levels (nothing left to
    separate); the stages after that are never attempted.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    steps, rest, sure = walk_stages(coeffs, stages)
    dim = _ambient(coeffs, dim)
    maps = [_as_map(family, xi, sep, dim) for (executed, family, sep), xi in zip(steps, stages) if executed]
    return maps, None if sure else rest


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
    s_diag, f_diag = smap.success_diag, smap.failure_diag
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
    """Closed-form ME outcome rows q_t = |sum_l c_l w^(lt)|^2 / P over the
    relative index t = (j - l) mod P, along the last axis of `coeffs`;
    circulant in (j, l). The transform is one matrix-vector product per row,
    so each row's result does not depend on the rows batched with it."""
    coeffs = np.asarray(coeffs, dtype=float)
    period = coeffs.shape[-1]
    grid = np.outer(np.arange(period), np.arange(period))
    amps = np.matmul(np.exp(2j * np.pi * grid / period), coeffs[..., None])[..., 0]
    return np.abs(amps) ** 2 / period


def stage_success_probability(coeffs) -> float:
    """Success probability of separating the NEXT stage's family, i.e. the
    failure states of the family given by `coeffs`, at full distinguishability.

    Returns 0.0 when no further stage is possible: uniform input (no failure
    branch) or a failure support of dimension <= 1 (identical failure states).
    """
    first = separate(coeffs, 1.0)
    if first.uniform:
        return 0.0
    second = separate(first.failure_coeffs, 1.0)
    return 0.0 if second.collapsed else float(second.p_success)


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
