"""Analytic information quantities: conditional entropy, the simplified
mutual-information reduction, per-strategy totals, and the textbook
joint-distribution oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SchmidtState
from .discrimination import (
    FINAL_ME,
    StagePlan,
    me_outcome_probs,
    separation_map,
    stage_walk,
)
from .tensor_core import Measurement, born_probabilities

_ZERO_PROB = 1e-15


def _plogp(probs: np.ndarray) -> float:
    """sum p*log2(p) with 0*log(0) := 0; tiny probabilities count as zero."""
    p = np.asarray(probs, dtype=float)
    live = p > _ZERO_PROB
    return float(np.sum(p[live] * np.log2(p[live])))


@dataclass(frozen=True)
class InfoReport:
    """Mutual-information figures for one decoding strategy on one channel."""

    strategy: str
    d2: int
    rank: int
    total_bits: float
    success_branch_bits: float | None
    branch_probabilities: tuple
    stage_success_bits: tuple = ()

    def __post_init__(self) -> None:
        lo = math.log2(self.d2)
        hi = math.log2(self.d2 * self.rank)
        if not lo - 1e-9 <= self.total_bits <= hi + 1e-9:
            raise ValueError(
                f"total {self.total_bits} outside [{lo}, {hi}] for this channel"
            )
        object.__setattr__(
            self, "branch_probabilities", tuple(float(p) for p in self.branch_probabilities)
        )
        object.__setattr__(
            self, "stage_success_bits", tuple(float(b) for b in self.stage_success_bits)
        )


def conditional_entropy(states, m: Measurement) -> float:
    """Equal-prior conditional entropy -(1/D) sum_jl p(l|j) log2 p(l|j)."""
    n_states = len(states)
    if n_states == 0:
        raise ValueError("empty state family")
    acc = 0.0
    for state in states:
        acc += _plogp(born_probabilities(state, m))
    return -acc / n_states


def _me_branch_bits(coeffs: np.ndarray, d2: int, rank: int) -> float:
    """Information from an ME measurement on one symmetric branch family,
    including the error-free target-system part."""
    q = me_outcome_probs(coeffs)
    return math.log2(d2 * rank) + _plogp(q)


def mutual_info_me(s: SchmidtState) -> InfoReport:
    """Deterministic minimum-error decoding."""
    total = _me_branch_bits(s.coeffs, s.d2, s.D)
    return InfoReport(
        strategy="me",
        d2=s.d2,
        rank=s.D,
        total_bits=total,
        success_branch_bits=total,
        branch_probabilities=(),
    )


def mutual_info_sep(s: SchmidtState, xi: float) -> InfoReport:
    """Separation-assisted decoding: separate at `xi`, ME on success, nothing
    on failure. Interpolates between the deterministic ME protocol (xi=0) and
    full unambiguous decoding (xi=1)."""
    smap = separation_map(s.coeffs, xi)
    bracket = math.log2(s.D) + _plogp(me_outcome_probs(smap.b_coeffs))
    total = smap.p_success * bracket + math.log2(s.d2)
    success = bracket + math.log2(s.d2)
    return InfoReport(
        strategy=f"sep_me(xi={xi:g})",
        d2=s.d2,
        rank=s.D,
        total_bits=total,
        success_branch_bits=success,
        branch_probabilities=(smap.p_success,),
        stage_success_bits=(success,),
    )


def mutual_info_multistage(s: SchmidtState, plan: StagePlan) -> InfoReport:
    """Iterated probabilistic decoding over the failure-state hierarchy.

    Each stage separates the current symmetric family and concludes with an
    ME measurement on success; failures descend to the next stage, and the
    final action handles the last failure family. A stage whose family has
    collapsed to one dimension retrieves nothing and its branch is worth only
    the error-free target-system bits.
    """
    d2, rank = s.d2, s.D
    floor_bits = math.log2(d2)
    maps, rest = stage_walk(s.coeffs, plan.stages)
    stage_bits = [_me_branch_bits(smap.b_coeffs, d2, rank) for smap in maps]
    # With rest None the last map succeeds surely, so the seed is weighted by 0.
    if rest is not None and plan.final_action == FINAL_ME:
        total = _me_branch_bits(rest, d2, rank)
    else:
        total = floor_bits
    for smap, suc_bits in zip(reversed(maps), reversed(stage_bits)):
        total = smap.p_success * suc_bits + (1.0 - smap.p_success) * total
    skipped = len(plan.stages) - len(maps)
    stage_probs = [smap.p_success for smap in maps] + [0.0] * skipped
    stage_bits += [floor_bits] * skipped
    return InfoReport(
        strategy=f"multistage({len(plan.stages)} stages, final={plan.final_action})",
        d2=d2,
        rank=rank,
        total_bits=total,
        success_branch_bits=stage_bits[0] if stage_bits else total,
        branch_probabilities=tuple(stage_probs),
        stage_success_bits=tuple(stage_bits),
    )


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
