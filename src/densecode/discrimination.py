"""Discrimination of symmetric families in closed form: the optimal
separation map at a distinguishability (Chefles & Barnett), batched over
coefficient rows, its walk down the failure-state hierarchy, and the
minimum-error outcome rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import COEFF_TOL, GROUP_TOL_SQ, NORM_TOL

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
        if not all(0.0 <= xi <= 1.0 for xi in stages):
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
    failure_coeffs: np.ndarray
    uniform: np.ndarray
    collapsed: np.ndarray


def _checked(coeffs, *xis):
    """(coeffs, *xis) as float arrays, after the checks of separate."""
    xis = [np.asarray(xi, dtype=float) for xi in xis]
    if not all(np.all((0.0 <= xi) & (xi <= 1.0)) for xi in xis):
        raise ValueError("distinguishability must lie in [0, 1]")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 0 or coeffs.shape[-1] == 0:
        raise ValueError("coeffs must be a nonempty 1D vector")
    if np.any(coeffs < -COEFF_TOL):
        raise ValueError("coefficients must be nonnegative")
    support = coeffs > COEFF_TOL
    if not np.all(np.any(support, axis=-1)):
        raise ValueError("empty support")
    # A coefficient above 1 is refused before it is squared, which could overflow.
    if np.any(coeffs > 1.0 + NORM_TOL) or np.any(np.abs(np.sum(coeffs**2, axis=-1, where=support) - 1.0) > NORM_TOL):
        raise ValueError("squared coefficients must sum to 1 on the support")
    return (coeffs, *xis)


def separate(coeffs, xi) -> Separation:
    """Optimal separation of each coefficient row of `coeffs` (shape (..., P),
    zeros marking levels outside the support) at distinguishability `xi`, one
    value for all rows or one per row (shape (...)). Raises ValueError unless
    xi lies in [0, 1] and each row is nonnegative and normalised on a nonempty
    support; _separate is the unchecked kernel.

    The minimum group holds the support levels whose squares lie within
    GROUP_TOL_SQ of the smallest; failure strips it and keeps the excess over
    that smallest square, normalised over what is left.
    """
    return _separate(*_checked(coeffs, xi))


def _separate(coeffs: np.ndarray, xi: np.ndarray) -> Separation:
    support = coeffs > COEFF_TOL
    d_sup = support.sum(axis=-1)
    sq = coeffs**2
    m2 = np.min(sq, axis=-1, where=support, initial=np.inf)
    uniform = np.max(sq, axis=-1, where=support, initial=0.0) - m2 <= GROUP_TOL_SQ
    minimal = support & (sq - m2[..., None] <= GROUP_TOL_SQ)
    denom = (1.0 - xi) + xi / (d_sup * m2)
    separated = np.sqrt((1.0 - xi)[..., None] * sq + (xi / d_sup)[..., None])
    # Normalised over what is left: a near-tied level in the minimal class
    # drops its excess over m2 as well, so 1 - d*m2 would overcount.
    excess = np.where(support & ~minimal, sq - m2[..., None], 0.0)
    norm = np.where(uniform, 1.0, excess.sum(axis=-1))
    return Separation(
        support=support,
        minimal=minimal,
        b_coeffs=np.where(support, np.where(uniform[..., None], coeffs, separated), 0.0),
        p_success=np.where(uniform, 1.0, 1.0 / denom),
        failure_coeffs=np.sqrt(excess / norm[..., None]),
        uniform=uniform,
        collapsed=d_sup < 2,
    )


def walk_stages(coeffs, stages):
    """Walk a stage plan down the failure-state hierarchy of each coefficient
    row of `coeffs` (shape (..., P)).

    Returns (steps, rest, sure). steps holds per planned stage a tuple
    (rows that execute it, the families it acts on, their Separation); rest
    the families left for the final action; sure the rows whose walk ended
    with a uniform family, that is with certain success and nothing left.
    A row stops once its support drops below two levels, and an ended row
    executes no later stage; its families stay as they were, so every row
    stays valid input. A plan may hold rank - 1 stages, and one on a rank-1
    family, which that stage leaves unexecuted. The input passes the checks of
    separate once, `coeffs` and every stage's xi; failure families are valid
    by construction, so the stages run the unchecked kernel.
    """
    current, *stages = _checked(coeffs, *stages)
    if len(stages) > max(current.shape[-1] - 1, 1):
        raise ValueError("plan exceeds channel stages")
    live = np.ones(current.shape[:-1], dtype=bool)
    sure = np.zeros_like(live)
    steps = []
    for xi in stages:
        sep = _separate(current, xi)
        live = live & ~sep.collapsed
        steps.append((live, current, sep))
        sure = sure | (live & sep.uniform)
        live = live & ~sep.uniform
        current = np.where(live[..., None], sep.failure_coeffs, current)
    return steps, current, sure


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
