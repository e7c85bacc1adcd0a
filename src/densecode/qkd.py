"""Quantitative intercept-resend analysis of the symmetric-state B92-style
key distribution: the sender transmits one of D symmetric carrier states, the
receiver sifts by unambiguous discrimination, and an optional eavesdropper
applies any decoding strategy, resending the pure state matching her
inference. All errors in the sifted key are eavesdropper-induced.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import SchmidtState
from .discrimination import separate
from .infometrics import counts_mutual_info
from .protocol_sim import (
    GUESS_ME,
    GUESS_UNIFORM,
    _TREE_MEMO_SIZE,
    DecodingStrategy,
    _BranchTree,
    _shared_tree,
    count_table,
)


@dataclass(frozen=True)
class EveStrategy:
    """Eavesdropper policy: the decoding strategy she intercepts with, None
    when she is absent; the fallback fires only on an inconclusive record."""

    strategy: DecodingStrategy | None = None
    fallback: str = GUESS_UNIFORM

    def __post_init__(self) -> None:
        if not isinstance(self.strategy, (DecodingStrategy, type(None))):
            raise ValueError(f"eavesdropper strategy must be a DecodingStrategy, not {self.strategy!r}")
        if self.fallback not in (GUESS_UNIFORM, GUESS_ME):
            raise ValueError("fallback must be 'uniform' or 'me'")

    @classmethod
    def absent(cls) -> "EveStrategy":
        return cls()

    @classmethod
    def intercept(cls, strategy: DecodingStrategy, fallback: str = GUESS_UNIFORM) -> "EveStrategy":
        if strategy is None:
            raise ValueError("intercepting eavesdropper requires a strategy")
        return cls(strategy, fallback)

    def describe(self) -> str:
        if self.strategy is None:
            return "absent"
        return f"intercept({self.strategy.describe()}, fallback={self.fallback})"


@dataclass(frozen=True, eq=False)
class QkdReport:
    """Tallies of one seeded key-distribution run."""

    n_rounds: int
    seed: int
    eve: str
    state: dict
    kept: int
    errors: int
    sift_rate: float
    sifted_error_rate: float
    eve_info_bits: float
    eve_counts: np.ndarray | None
    #: The eavesdropper's branch tree the run sampled, None when she is
    #: absent; shared read-only by every run of its configuration, and left
    #: out of the JSON report.
    tree: _BranchTree | None


def simulate_qkd(
    s: SchmidtState,
    eve: EveStrategy,
    n_rounds: int,
    seed: int,
    threads: int | None = None,
) -> QkdReport:
    """Seed-deterministic intercept-resend run, `threads` ignored as in
    run_simulation. The run draws one count table: the transmitted dits per
    carrier and the eavesdropper's records per carrier, then, from the same
    generator, the receiver's sift of each (carrier, record) cell. Without an
    eavesdropper it draws one sift count."""
    if s.D < 2:
        raise ValueError("sifting requires channel rank >= 2")
    p_keep = analytic_sift_rate(s.coeffs)
    fam, counts, errors, eve_info = None, None, 0, 0.0
    if eve.strategy is None:
        rng, _ = count_table(seed, n_rounds)
        kept = int(rng.binomial(n_rounds, p_keep))
    else:
        fam = _shared_tree(s.coeffs.tobytes(), eve.strategy.plan, eve.fallback)
        rng, table = count_table(seed, n_rounds, fam.dist)
        counts = rng.binomial(table, p_keep)
        counts.setflags(write=False)
        kept = int(counts.sum())
        errors = int(counts[~fam.correct].sum())
        if kept:
            eve_info = counts_mutual_info(counts[:, None, :], kept)
    return QkdReport(
        n_rounds=n_rounds,
        seed=int(seed),
        eve=eve.describe(),
        state=s.to_dict(),
        kept=kept,
        errors=errors,
        sift_rate=kept / n_rounds,
        sifted_error_rate=errors / kept if kept else 0.0,
        eve_info_bits=eve_info,
        eve_counts=counts,
        tree=fam,
    )


def analytic_sift_rate(coeffs) -> float:
    """Receiver keep probability: the full-separation success probability,
    computed once per coefficient vector (its values) and then reused."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1:
        raise ValueError("coeffs must be a nonempty 1D vector")
    return _sift_rate(coeffs.tobytes())


# Keyed as the tree memo is, by a float64 vector's bytes, and bounded as it
# is, for the same reason: a seed ensemble revisits one state.
@functools.lru_cache(maxsize=_TREE_MEMO_SIZE)
def _sift_rate(coeff_bytes: bytes) -> float:
    # An input that separate refuses raises here on every call: lru_cache keeps no exception.
    return float(separate(np.frombuffer(coeff_bytes), 1.0).p_success)


def analytic_qkd_error(coeffs, eve: EveStrategy) -> float:
    """Exact sifted-key error rate: the error rate of the eavesdropper's
    branch tree, 0 without her; the receiver's sift is error-free. The tree
    is built fresh, not taken from the runs' memo, so a check of a run
    against this closed form never reads what the run read."""
    return 0.0 if eve.strategy is None else _BranchTree(coeffs, eve.strategy.plan, eve.fallback).error_rate()
