"""Shared entangled resource, sender-side encoding, and the receiver's
GXOR-plus-target-measurement split into a symmetric-state discrimination
subproblem."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .gates import gxor, pauli_x, pauli_z
from .tensor_core import Ket, Operator, apply

#: Coefficients below this are treated as absent from the Schmidt decomposition.
COEFF_TOL = 1e-12
#: Squared-coefficient spread below which values share a multiplicity class.
GROUP_TOL_SQ = 1e-9


def config_number(obj: dict, key: str, default, integral: bool = False):
    """obj[key], or `default` when absent, as an int (`integral`) or a float;
    any other value raises ValueError naming the key."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key!r} must be a number, not {value!r}")
    if integral and not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ValueError(f"{key!r} must be an integer, not {value!r}")
    return int(value) if integral else float(value)


def check_coeffs(d1: int, d2: int, coeffs) -> np.ndarray:
    """Schmidt coefficients of a d1 x d2 channel as a read-only float array:
    one state (D,) or one state per row (N, D). Raises ValueError unless every
    row is finite, strictly positive, normalised and of rank <= min(d1, d2)."""
    if d1 < 1 or d2 < 1:
        raise ValueError("subsystem dimensions must be positive")
    coeffs = np.array(coeffs, dtype=float)
    if coeffs.ndim == 0 or coeffs.shape[-1] == 0:
        raise ValueError("coeffs must be a nonempty 1D vector")
    if not np.all(coeffs >= COEFF_TOL):
        raise ValueError("all Schmidt coefficients must be finite and strictly positive")
    if np.any(np.abs(np.sum(coeffs**2, axis=-1) - 1.0) > 1e-10):
        raise ValueError("squared Schmidt coefficients must sum to 1")
    if coeffs.shape[-1] > min(d1, d2):
        raise ValueError("Schmidt rank exceeds min(d1, d2)")
    coeffs.setflags(write=False)
    return coeffs


@dataclass(frozen=True, eq=False)
class SchmidtState:
    """Bipartite pure resource sum_l a_l |l>|l> with strictly positive a_l.

    Coefficient order is preserved as given; the minimum and its multiplicity
    drive the failure-branch structure of the probabilistic decoders.
    """

    d1: int
    d2: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = check_coeffs(self.d1, self.d2, self.coeffs)
        if coeffs.ndim != 1:
            raise ValueError("coeffs must be a nonempty 1D vector")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def D(self) -> int:
        """Schmidt rank."""
        return self.coeffs.size

    @property
    def a_min(self) -> float:
        return float(np.min(self.coeffs))

    @property
    def mu(self) -> int:
        """Multiplicity of the smallest coefficient (squared-value grouping)."""
        sq = self.coeffs**2
        return int(np.sum(sq - np.min(sq) <= GROUP_TOL_SQ))

    @property
    def is_uniform(self) -> bool:
        return self.mu == self.D

    @property
    def n_messages(self) -> int:
        return self.d2 * self.D

    @classmethod
    def from_squared(cls, d1: int, d2: int, squared) -> "SchmidtState":
        sq = np.asarray(squared, dtype=float)
        if np.min(sq) < 0:
            raise ValueError("squared coefficients must be nonnegative")
        return cls(d1, d2, np.sqrt(sq))

    @classmethod
    def from_dict(cls, obj: dict) -> "SchmidtState":
        """Build from {"d1": ..., "d2": ..., "coeffs": [...], "squared": bool}."""
        if not isinstance(obj, dict):
            raise ValueError("'state' must be an object with keys d1, d2 and coeffs")
        missing = [key for key in ("d1", "d2", "coeffs") if key not in obj]
        if missing:
            raise ValueError(f"'state' lacks key {missing[0]!r}")
        d1 = config_number(obj, "d1", None, integral=True)
        d2 = config_number(obj, "d2", None, integral=True)
        coeffs = obj["coeffs"]
        if obj.get("squared", False):
            return cls.from_squared(d1, d2, coeffs)
        return cls(d1, d2, coeffs)

    @classmethod
    def from_json(cls, text: str) -> "SchmidtState":
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> dict:
        return {"d1": self.d1, "d2": self.d2, "coeffs": [float(c) for c in self.coeffs]}


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
