"""Analytic information quantities: the simplified mutual-information
reduction, per-strategy totals, and the plug-in estimate from counts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SchmidtState
from .discrimination import FINAL_ME, StagePlan, me_outcome_probs, walk_stages

#: Probabilities at or below this count as zero in p*log2(p) and in the plug-in estimate.
_ZERO_PROB = 1e-15
#: Rounding slack of _check_bits: perfect or unentangled decoding lands on a range end.
_BITS_SLACK = 1e-9


def _plogp(probs) -> np.ndarray:
    """sum p*log2(p) along the last axis with 0*log(0) := 0; tiny
    probabilities count as zero."""
    p = np.asarray(probs, dtype=float)
    return np.sum(p * np.log2(np.where(p > _ZERO_PROB, p, 1.0)), axis=-1)


def _check_bits(bits, d2: int, rank: int):
    """`bits`, after checking that each lies within [log2 d2, log2(d2*rank)]:
    the error-free target-system bits at least, a perfect decoding at most."""
    lo = math.log2(d2)
    hi = math.log2(d2 * rank)
    values = np.atleast_1d(bits)
    outside = ~((lo - _BITS_SLACK <= values) & (values <= hi + _BITS_SLACK))
    if outside.any():
        raise ValueError(f"total {values[outside][0]} outside [{lo}, {hi}] for this channel")
    return bits


@dataclass(frozen=True)
class InfoReport:
    """Mutual-information figures for one decoding strategy on one channel:
    the total and, per planned stage, its success probability and bits."""

    total_bits: float
    branch_probabilities: tuple
    stage_success_bits: tuple


def _outcome_bits(q, d2: int) -> np.ndarray:
    """Information from ME outcome rows `q` (shape (..., D), as
    me_outcome_probs gives them), including the error-free target-system
    part: log2(d2*D) + sum q log2 q per row."""
    rank = q.shape[-1]
    return _check_bits(math.log2(d2 * rank) + _plogp(q), d2, rank)


def me_bits(coeffs, d2: int) -> np.ndarray:
    """Information from an ME measurement on each symmetric family, one per
    row of `coeffs` (shape (..., D))."""
    return _outcome_bits(me_outcome_probs(coeffs), d2)


def _prefix_plans(coeffs, d2: int, stages):
    """One walk of `stages` down the failure-state hierarchy of each
    coefficient row of `coeffs` (shape (..., D)), read as its prefix plans,
    every plan the paper compares. Returns (probs, bits, families): per
    planned stage, P_s and the ME bits of its separated families, 0 and the
    target-system floor on rows that do not execute it; per depth 0 to
    len(stages), the families a final action after that many stages acts on."""
    steps, rest = walk_stages(coeffs, stages)
    families = (*(family for _, family, _, _ in steps), rest)
    probs = tuple(np.where(executed, p_stage, 0.0) for executed, _, p_stage, _ in steps)
    bits = tuple(np.where(executed, me_bits(b_coeffs, d2), math.log2(d2)) for executed, _, _, b_coeffs in steps)
    return probs, bits, families


def _fold_stages(total, probs, bits, d2: int, rank: int) -> np.ndarray:
    """Fold stages bottom-up into `total`, the bits of what follows the last
    stage's failure: each stage's success bits weigh P_s and what follows its
    failure 1 - P_s. The totals are range-checked by _check_bits."""
    # P_s = 0 and P_s = 1 give the failure or the success bits exactly.
    for p_stage, suc_bits in zip(reversed(probs), reversed(bits)):
        total = p_stage * suc_bits + (1.0 - p_stage) * total
    return _check_bits(total, d2, rank)


def multistage_bits(coeffs, d2: int, stages, final: str):
    """Iterated probabilistic decoding of each coefficient row of `coeffs`
    (shape (..., D)), folded bottom-up over the separation `stages` and the
    `final` action. Each stage's distinguishability is one value for all
    rows or one per row (shape (...)), as walk_stages takes it.

    Returns (total, probabilities, bits): the total per row, the deepest
    fold of _prefix_plans, and the per-stage P_s and bits it reads."""
    probs, bits, families = _prefix_plans(coeffs, d2, stages)
    rest = families[-1]
    total = me_bits(rest, d2) if final == FINAL_ME else np.full(rest.shape[:-1], math.log2(d2))
    return _fold_stages(total, probs, bits, d2, rest.shape[-1]), probs, bits


def multistage_columns(coeffs, d2: int) -> dict:
    """The plan columns of sweep-multistage per coefficient row of `coeffs`
    (shape (N, D), D >= 3), by CSV name, from one walk of two full
    separations: every plan the paper compares is a prefix of that walk.

    I_MC separates once and abstains on failure, I_MC_ME decodes the failure
    family by ME, and I_MC_MC separates it again; each equals multistage_bits
    of its plan bit for bit. I_suc and P_s are the stages' success-branch bits
    and probabilities, I_ME is plain ME, and P_overall adds the second stage's
    success mass where its bits beat I_ME."""
    probs, bits, families = _prefix_plans(coeffs, d2, (1.0, 1.0))
    floor_bits, rank = math.log2(d2), families[0].shape[-1]
    # The ME-final totals at depths 0 and 1, the abstain totals at depths 1 and 2.
    i_me, after_first = (me_bits(family, d2) for family in families[:2])
    return {
        "I_MC": _fold_stages(floor_bits, probs[:1], bits[:1], d2, rank),
        "I_MC_ME": _fold_stages(after_first, probs[:1], bits[:1], d2, rank),
        "I_MC_MC": _fold_stages(floor_bits, probs, bits, d2, rank),
        "I_suc1": bits[0],
        "I_suc2": bits[1],
        "I_ME": i_me,
        "P_s1": probs[0],
        "P_overall": probs[0] + (1.0 - probs[0]) * probs[1] * np.where(bits[1] > i_me, 1.0, 0.0),
    }


def mutual_info_me(s: SchmidtState) -> InfoReport:
    """Deterministic minimum-error decoding."""
    return mutual_info_multistage(s, StagePlan((), FINAL_ME))


def mutual_info_multistage(s: SchmidtState, plan: StagePlan) -> InfoReport:
    """Iterated probabilistic decoding over the failure-state hierarchy:
    multistage_bits of one state and plan."""
    total, probs, bits = multistage_bits(s.coeffs, s.d2, plan.stages, plan.final_action)
    return InfoReport(
        total_bits=float(total),
        branch_probabilities=tuple(map(float, probs)),
        stage_success_bits=tuple(map(float, bits)),
    )


def counts_mutual_info(counts, n: int) -> float:
    """Plug-in mutual information of the integer `counts`, shape (D, d2,
    records): trials with message (j, k) and record r, read out as m = k,
    over `n` trials.

    That is the information of the block-diagonal (D*d2) x (records*d2) count
    table, read from the counts alone: each marginal is an integer sum divided
    once by n, and the terms, in the table's row-major order (the logical
    (j, k, r) order of `counts`, whatever its strides), are summed
    sequentially with math.log2, as the tests' oracle
    tests/dense.py:counts_table_mutual_info sums them.
    """
    counts = np.asarray(counts)
    # Reductions go through the ufuncs, not the .min()/.sum() wrappers, whose dispatch
    # costs more than the reduction itself on the small tables of a seed ensemble.
    valid = counts.dtype.kind in "iu" and counts.ndim == 3 and n >= 1
    if not (valid and np.minimum.reduce(counts, axis=None) >= 0 and np.add.reduce(counts, axis=None) == n):
        raise ValueError(f"counts must be a nonnegative integer (D, d2, records) array summing to n = {n}")
    rows = np.add.reduce(counts, axis=2) / n
    cols = np.add.reduce(counts, axis=0) / n
    # Occupied cells in row-major order; a strided view is read in place, not copied by ravel.
    j, k, r = np.unravel_index((counts != 0).ravel().nonzero()[0], counts.shape)
    p = counts[j, k, r] / n
    # A count of 1 or more gives p >= 1/n, so the zero rule can drop a cell only from 1e15 trials on.
    if 1 / n <= _ZERO_PROB:
        live = p > _ZERO_PROB
        j, k, r, p = j[live], k[live], r[live], p[live]
    ratio = p / (rows[j, k] * cols[k, r])
    terms = p * np.fromiter(map(math.log2, ratio.tolist()), float, count=ratio.size)
    # Sequential like the oracle's loop; np.sum would sum pairwise.
    return float(np.add.accumulate(terms)[-1]) if terms.size else 0.0
