"""Quantitative intercept-resend analysis of the symmetric-state B92-style
key distribution: the sender transmits one of D symmetric carrier states, the
receiver sifts by unambiguous discrimination, and an optional eavesdropper
applies any decoding strategy, resending the pure state matching her
inference. All errors in the sifted key are eavesdropper-induced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .channel import SchmidtState, check_keys
from .discrimination import separate
from .infometrics import counts_mutual_info
from .protocol_sim import (
    GUESS_ME,
    GUESS_UNIFORM,
    DecodingStrategy,
    _BranchTree,
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

    @classmethod
    def from_dict(cls, obj: dict) -> "EveStrategy":
        if not isinstance(obj, dict):
            raise ValueError("'eve' must be an object with a 'kind'")
        kind = obj.get("kind")
        if kind == "absent":
            check_keys(obj, ("kind",), "absent eve")
            return cls.absent()
        if kind != "intercept":
            raise ValueError(f"unknown eavesdropper kind {kind!r}")
        check_keys(obj, ("kind", "strategy", "fallback"), "intercept eve")
        if "strategy" not in obj:
            raise ValueError("an intercepting 'eve' needs key 'strategy'")
        return cls.intercept(
            DecodingStrategy.from_dict(obj["strategy"]),
            obj.get("fallback", GUESS_UNIFORM),
        )

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
    eve_record_labels: tuple
    eve_counts: np.ndarray | None

    def to_json(self) -> str:
        counts = {}
        if self.eve_counts is not None:
            for j in range(self.eve_counts.shape[0]):
                for r, label in enumerate(self.eve_record_labels):
                    c = int(self.eve_counts[j, r])
                    if c:
                        counts[f"{j}|{label}"] = c
        return json.dumps(
            {
                "n_rounds": self.n_rounds,
                "seed": self.seed,
                "eve": self.eve,
                "state": self.state,
                "kept": self.kept,
                "errors": self.errors,
                "sift_rate": self.sift_rate,
                "sifted_error_rate": self.sifted_error_rate,
                "eve_info_bits": self.eve_info_bits,
                "eve_counts": counts,
            },
            indent=2,
            sort_keys=True,
        )


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
    labels, counts, errors, eve_info = (), None, 0, 0.0
    if eve.strategy is None:
        rng, _ = count_table(seed, n_rounds)
        kept = int(rng.binomial(n_rounds, p_keep))
    else:
        fam = _BranchTree(s.coeffs, eve.strategy.plan, eve.fallback)
        rng, table = count_table(seed, n_rounds, fam.distribution())
        counts = rng.binomial(table, p_keep)
        counts.setflags(write=False)
        labels = fam.records
        kept = int(counts.sum())
        errors = int(counts[fam.inferred != np.arange(s.D)[:, None]].sum())
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
        eve_record_labels=labels,
        eve_counts=counts,
    )


def analytic_sift_rate(coeffs) -> float:
    """Receiver keep probability: the full-separation success probability."""
    return float(separate(coeffs, 1.0).p_success)


def analytic_qkd_error(coeffs, eve: EveStrategy) -> float:
    """Exact sifted-key error rate: the weight the eavesdropper's branch tree
    puts on records inferring a wrong dit; the receiver's sift is error-free."""
    if eve.strategy is None:
        return 0.0
    fam = _BranchTree(coeffs, eve.strategy.plan, eve.fallback)
    wrong = fam.inferred != np.arange(fam.rank)[:, None]
    return float(fam.distribution()[wrong].sum() / fam.rank)
