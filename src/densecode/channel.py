"""The shared entangled resource: a Schmidt state, the one coefficient check
that the state and the stage walk share, and the one integer test of
dimensions, seeds and trial counts. The config format that names a state is
read in `densecode.cli`."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Coefficients below this are treated as absent from the Schmidt decomposition.
COEFF_TOL = 1e-12
#: Slack of "squared coefficients sum to 1".
NORM_TOL = 1e-10
#: Squared-coefficient spread below which values share a multiplicity class.
GROUP_TOL_SQ = 1e-9


def _is_integer(value) -> bool:
    """True for a Python or numpy integer. A bool is not one, though Python counts it as an int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_coeffs(coeffs) -> np.ndarray:
    """`coeffs`, one row (P,) or a stack of rows (..., P) with zeros outside a row's support, as a float array
    without a copy. Raises ValueError unless each row is finite, nonnegative and normalised on a nonempty support.
    Each check is a ufunc reduction, cheaper than np.min or .all() on a run's few coefficients; a minimum or
    maximum carries NaN through, and the initial values keep zero-row input valid."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 0 or coeffs.shape[-1] == 0:
        raise ValueError("coeffs must be a nonempty 1D vector")
    lowest = np.minimum.reduce(coeffs, axis=None, initial=0.0)
    highest = np.maximum.reduce(coeffs, axis=None, initial=0.0)
    if not (math.isfinite(lowest) and math.isfinite(highest)):
        raise ValueError("coefficients must be finite")
    if lowest < -COEFF_TOL:
        raise ValueError("coefficients must be nonnegative")
    support = coeffs > COEFF_TOL
    if not np.logical_and.reduce(np.logical_or.reduce(support, axis=-1), axis=None):
        raise ValueError("empty support")
    # A coefficient above 1 is refused before it is squared, which could overflow.
    if highest > 1.0 + NORM_TOL or np.logical_or.reduce(
        abs(np.add.reduce(coeffs**2, axis=-1, where=support) - 1.0) > NORM_TOL, axis=None
    ):
        raise ValueError("squared Schmidt coefficients must sum to 1")
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
        for name in ("d1", "d2"):
            dim = getattr(self, name)
            if not _is_integer(dim):
                raise ValueError(f"subsystem dimension {name} = {dim!r} must be an integer")
            # Python ints, so that to_dict() serialises a numpy integer too.
            object.__setattr__(self, name, int(dim))
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("subsystem dimensions must be positive")
        coeffs = check_coeffs(np.array(self.coeffs, dtype=float))
        if coeffs.ndim != 1:
            raise ValueError("coeffs must be a nonempty 1D vector")
        if not np.logical_and.reduce(coeffs >= COEFF_TOL):
            raise ValueError(f"all Schmidt coefficients must be at least {COEFF_TOL:g}")
        if coeffs.size > min(self.d1, self.d2):
            raise ValueError("Schmidt rank exceeds min(d1, d2)")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def D(self) -> int:
        """Schmidt rank."""
        return self.coeffs.size

    @classmethod
    def from_squared(cls, d1: int, d2: int, squared) -> "SchmidtState":
        sq = np.asarray(squared, dtype=float)
        # With an initial value an empty input reaches check_coeffs and its message.
        if np.minimum.reduce(sq, axis=None, initial=0.0) < 0:
            raise ValueError("squared coefficients must be nonnegative")
        return cls(d1, d2, np.sqrt(sq))

    def to_dict(self) -> dict:
        return {"d1": self.d1, "d2": self.d2, "coeffs": [float(c) for c in self.coeffs]}
