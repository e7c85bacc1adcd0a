"""Analytic information quantities: the simplified mutual-information
reduction, per-strategy totals, and the plug-in estimate from counts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SchmidtState
from .discrimination import FINAL_ABSTAIN, FINAL_ME, StagePlan, me_outcome_probs, walk_stages

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
    """Mutual-information figures for one decoding strategy on one channel."""

    d2: int
    rank: int
    total_bits: float
    success_branch_bits: float | None
    branch_probabilities: tuple
    stage_success_bits: tuple = ()

    def __post_init__(self) -> None:
        _check_bits(self.total_bits, self.d2, self.rank)
        object.__setattr__(
            self, "branch_probabilities", tuple(float(p) for p in self.branch_probabilities)
        )
        object.__setattr__(
            self, "stage_success_bits", tuple(float(b) for b in self.stage_success_bits)
        )


def me_bits(coeffs, d2: int) -> np.ndarray:
    """Information from an ME measurement on each symmetric family, one per
    row of `coeffs` (shape (..., D)), including the error-free target-system
    part."""
    coeffs = np.asarray(coeffs, dtype=float)
    rank = coeffs.shape[-1]
    return _check_bits(math.log2(d2 * rank) + _plogp(me_outcome_probs(coeffs)), d2, rank)


def _stage_bits(step, d2: int):
    """(P_s, success-branch bits) per row of one walk_stages step: 0 and the
    target-system floor on rows that do not execute the stage."""
    executed, _, sep = step
    return np.where(executed, sep.p_success, 0.0), np.where(executed, me_bits(sep.b_coeffs, d2), math.log2(d2))


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

    Returns (total, probabilities, bits): the total per row and, per planned
    stage, the success probability and the success-branch bits, which are 0
    and the target-system floor for a stage the walk does not reach."""
    floor_bits = math.log2(d2)
    steps, rest, sure = walk_stages(coeffs, stages)
    read = [_stage_bits(step, d2) for step in steps]
    del steps
    probs = tuple(p_stage for p_stage, _ in read)
    bits = tuple(suc_bits for _, suc_bits in read)
    # A sure row's last stage succeeds surely, so its seed is weighted by 0.
    if final == FINAL_ME:
        total = np.where(sure, floor_bits, me_bits(rest, d2))
    else:
        total = np.full(sure.shape, floor_bits)
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
    floor_bits = math.log2(d2)
    rank = coeffs.shape[-1]
    first, second = walk_stages(coeffs, (1.0, 1.0))[0]
    # Each stage's Separation is dropped once read, so its arrays are freed.
    p_s1, i_suc1 = _stage_bits(first, d2)
    sure1 = first[0] & first[2].uniform
    del first
    p_s2, i_suc2 = _stage_bits(second, d2)
    # Stage 2's input is stage 1's failure family; a sure row has none.
    after_first = np.where(sure1, floor_bits, me_bits(second[1], d2))
    del second
    i_me = me_bits(coeffs, d2)
    return {
        "I_MC": _fold_stages(floor_bits, (p_s1,), (i_suc1,), d2, rank),
        "I_MC_ME": _fold_stages(after_first, (p_s1,), (i_suc1,), d2, rank),
        "I_MC_MC": _fold_stages(floor_bits, (p_s1, p_s2), (i_suc1, i_suc2), d2, rank),
        "I_suc1": i_suc1,
        "I_suc2": i_suc2,
        "I_ME": i_me,
        "P_s1": p_s1,
        "P_overall": p_s1 + (1.0 - p_s1) * p_s2 * np.where(i_suc2 > i_me, 1.0, 0.0),
    }


def mutual_info_me(s: SchmidtState) -> InfoReport:
    """Deterministic minimum-error decoding."""
    return mutual_info_multistage(s, StagePlan((), FINAL_ME))


def mutual_info_sep(s: SchmidtState, xi: float) -> InfoReport:
    """Separation-assisted decoding: separate at `xi`, ME on success, nothing
    on failure. Interpolates between the deterministic ME protocol (xi=0) and
    full unambiguous decoding (xi=1)."""
    return mutual_info_multistage(s, StagePlan((xi,), FINAL_ABSTAIN))


def mutual_info_multistage(s: SchmidtState, plan: StagePlan) -> InfoReport:
    """Iterated probabilistic decoding over the failure-state hierarchy.

    Each stage separates the current symmetric family and concludes with an
    ME measurement on success; failures descend to the next stage, and the
    final action handles the last failure family. A stage whose family has
    collapsed to one dimension retrieves nothing and its branch is worth only
    the error-free target-system bits.
    """
    total, probs, bits = multistage_bits(s.coeffs, s.d2, plan.stages, plan.final_action)
    return InfoReport(
        d2=s.d2,
        rank=s.D,
        total_bits=float(total),
        success_branch_bits=float(bits[0] if bits else total),
        branch_probabilities=probs,
        stage_success_bits=bits,
    )


def counts_mutual_info(counts, n: int) -> float:
    """Plug-in mutual information of `counts`, shape (D, d2, records): trials
    with message (j, k) and record r, read out as m = k, over `n` trials.

    Works from the counts alone and gives the bits of the textbook mutual
    information of the dense block-diagonal (D*d2) x (records*d2) table
    (the tests' oracle, tests/dense.py:mutual_info_from_joint), with every
    floating-point operation kept in order: rows are summed pairwise at the
    table's row length (zeros add exactly), columns sequentially over j, and
    terms, taken in the table's row-major order with math.log2, sequentially.
    """
    counts = np.asarray(counts)
    if counts.ndim != 3 or n < 1 or counts.min() < 0 or counts.sum() != n:
        raise ValueError(f"counts must be a nonnegative (D, d2, records) array summing to n = {n}")
    rank, d2, n_records = counts.shape
    probs = counts / n
    rows = np.empty((rank, d2))
    buf = np.zeros((rank, n_records * d2))
    for k in range(d2):
        buf[:, k::d2] = probs[:, k, :]
        rows[:, k] = buf.sum(axis=1)
        buf[:, k::d2] = 0.0
    cols = probs.sum(axis=0)
    j, k, r = np.nonzero(probs > _ZERO_PROB)
    p = probs[j, k, r]
    ratio = p / (rows[j, k] * cols[k, r])
    terms = p * np.fromiter(map(math.log2, ratio.tolist()), float, count=ratio.size)
    # Sequential like the oracle's loop; np.sum would sum pairwise.
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0
