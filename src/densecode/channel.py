"""The shared entangled resource: a Schmidt state and its validation. The
config format that names a state is read in `densecode.cli`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Coefficients below this are treated as absent from the Schmidt decomposition.
COEFF_TOL = 1e-12
#: Slack of "squared coefficients sum to 1".
NORM_TOL = 1e-10
#: Squared-coefficient spread below which values share a multiplicity class.
GROUP_TOL_SQ = 1e-9


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
    # A coefficient above 1 cannot be normalised; rejecting it first keeps its square finite.
    if np.any(coeffs > 1.0 + NORM_TOL) or np.any(np.abs(np.sum(coeffs**2, axis=-1) - 1.0) > NORM_TOL):
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

    def to_dict(self) -> dict:
        return {"d1": self.d1, "d2": self.d2, "coeffs": [float(c) for c in self.coeffs]}
