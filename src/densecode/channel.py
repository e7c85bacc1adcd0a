"""The shared entangled resource: a Schmidt state, its validation, and the
config-number parsing the file formats share."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

#: Coefficients below this are treated as absent from the Schmidt decomposition.
COEFF_TOL = 1e-12
#: Slack of "squared coefficients sum to 1".
NORM_TOL = 1e-10
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
    if np.any(np.abs(np.sum(coeffs**2, axis=-1) - 1.0) > NORM_TOL):
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

    def to_dict(self) -> dict:
        return {"d1": self.d1, "d2": self.d2, "coeffs": [float(c) for c in self.coeffs]}
