"""Discrimination of symmetric families in closed form: the optimal
separation map at a distinguishability (Chefles & Barnett), batched over
coefficient rows, its walk down the failure-state hierarchy, and the
minimum-error outcome rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import COEFF_TOL, GROUP_TOL_SQ, check_coeffs

#: Final actions for a stage plan.
FINAL_ME = "me"
FINAL_ABSTAIN = "abstain"

#: P_s at which a stage is sure and ends the walk; the weight past it is below output resolution.
SURE_SUCCESS = 1.0 - 1e-12


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
    """(coeffs, *xis) as float arrays, after the checks of separate: every xi in [0, 1] (NaN fails both
    comparisons), then channel.check_coeffs."""
    xis = [np.asarray(xi, dtype=float) for xi in xis]
    if xis:
        joined = np.concatenate([xi.ravel() for xi in xis])
        if not (np.minimum.reduce(joined, initial=0.0) >= 0.0 and np.maximum.reduce(joined, initial=1.0) <= 1.0):
            raise ValueError("distinguishability must lie in [0, 1]")
    return (check_coeffs(coeffs), *xis)


def separate(coeffs, xi) -> Separation:
    """Optimal separation of each coefficient row of `coeffs` (shape (..., P),
    zeros marking levels outside the support) at distinguishability `xi`, one
    value for all rows or one per row (shape (...)). Raises ValueError unless
    xi lies in [0, 1] and each row is finite, nonnegative and normalised on a
    nonempty support; _separate is the unchecked kernel.

    The minimum group holds the support levels whose squares lie within
    GROUP_TOL_SQ of the smallest; failure strips it and keeps the excess over
    that smallest square, normalised over what is left.
    """
    return _separate(*_checked(coeffs, xi))


def _separate(coeffs: np.ndarray, xi: np.ndarray) -> Separation:
    support = coeffs > COEFF_TOL
    d_sup = support.sum(axis=-1)
    sq = coeffs**2
    m2 = np.minimum.reduce(sq, axis=-1, where=support, initial=np.inf)
    uniform = np.maximum.reduce(sq, axis=-1, where=support, initial=0.0) - m2 <= GROUP_TOL_SQ
    denom = (1.0 - xi) + xi / (d_sup * m2)
    # Full-size results reuse buffers, so a call holds about two coefficient arrays.
    b_coeffs = np.multiply((1.0 - xi)[..., None], sq)
    np.sqrt(np.add(b_coeffs, (xi / d_sup)[..., None], out=b_coeffs), out=b_coeffs)
    np.copyto(b_coeffs, coeffs, where=uniform[..., None])
    np.copyto(b_coeffs, 0.0, where=~support)
    # The excess over m2, normalised over what is left: a near-tied level in the
    # minimal class drops its excess as well, so 1 - d*m2 would overcount.
    excess = np.subtract(sq, m2[..., None], out=sq)
    minimal = support & (excess <= GROUP_TOL_SQ)
    np.copyto(excess, 0.0, where=minimal | ~support)
    norm = np.where(uniform, 1.0, excess.sum(axis=-1))
    return Separation(
        support=support,
        minimal=minimal,
        b_coeffs=b_coeffs,
        p_success=np.where(uniform, 1.0, 1.0 / denom),
        failure_coeffs=np.sqrt(np.divide(excess, norm[..., None], out=excess), out=excess),
        uniform=uniform,
        collapsed=d_sup < 2,
    )


def walk_stages(coeffs, stages):
    """Walk a stage plan down the failure-state hierarchy of each coefficient
    row of `coeffs` (shape (..., P)).

    Returns (steps, rest). steps holds per planned stage a tuple (rows that
    execute it, the families it acts on, its P_s, its separated families);
    rest the families left for the final action. A stage's Separation is
    dropped once its failure families are taken. A row's walk ends after a
    stage whose P_s reaches SURE_SUCCESS (xi = 0, a uniform family), and its
    rest is that stage's input, which the final action reaches with weight
    1 - P_s; a row also stops once its support drops below two levels. An
    ended row executes no later stage and its families stay as they were, so
    every row stays valid input. A plan may hold rank - 1 stages, and one on a
    rank-1 family, which that stage leaves unexecuted. The input passes the
    checks of separate once, `coeffs` and every stage's xi; failure families
    are valid by construction, so the stages run the unchecked kernel.
    """
    current, *stages = _checked(coeffs, *stages)
    if len(stages) > max(current.shape[-1] - 1, 1):
        raise ValueError("plan exceeds channel stages")
    live = np.ones(current.shape[:-1], dtype=bool)
    steps = []
    for xi in stages:
        sep = _separate(current, xi)
        live = live & ~sep.collapsed
        steps.append((live, current, sep.p_success, sep.b_coeffs))
        live = live & (sep.p_success < SURE_SUCCESS)
        current = np.where(live[..., None], sep.failure_coeffs, current)
        del sep
    return steps, current


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
