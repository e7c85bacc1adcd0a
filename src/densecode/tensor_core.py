"""Exact complex linear algebra on finite-dimensional Hilbert spaces.

States are dense complex vectors, operators dense matrices, and measurements
ordered POVM element lists. All values are immutable after construction;
outcome sampling takes an explicit generator, never a module-level one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NORM_ATOL = 1e-10
_PROB_SUM_ATOL = 1e-9
_PROB_CLIP = 1e-10
_NULL_EVENT = 1e-14


@dataclass(frozen=True, eq=False)
class Ket:
    """State vector on a finite Hilbert space. Not necessarily normalized."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a nonempty 1D vector")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, amplitudes) -> "Ket":
        amps = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        if norm < 1e-12:
            raise ValueError("cannot normalize a null vector")
        return cls(amps / norm)

    @classmethod
    def basis(cls, dim: int, index: int) -> "Ket":
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dim {dim}")
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, atol: float = _NORM_ATOL) -> bool:
        return abs(self.norm() - 1.0) <= atol

    def overlap(self, other: "Ket") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise ValueError("overlap requires equal dimensions")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix between finite Hilbert spaces."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] == 0 or mat.shape[1] == 0:
            raise ValueError("entries must be a nonempty 2D matrix")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def dim_out(self) -> int:
        return self.entries.shape[0]

    @property
    def dim_in(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls(np.eye(dim, dtype=complex))

    def dagger(self) -> "Operator":
        return Operator(self.entries.conj().T)

    def is_unitary(self, atol: float = _NORM_ATOL) -> bool:
        if self.dim_out != self.dim_in:
            return False
        gram = self.entries.conj().T @ self.entries
        return bool(np.max(np.abs(gram - np.eye(self.dim_in))) <= atol)

    def is_hermitian(self, atol: float = _NORM_ATOL) -> bool:
        if self.dim_out != self.dim_in:
            return False
        return bool(np.max(np.abs(self.entries - self.entries.conj().T)) <= atol)

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.dim_in != other.dim_out:
            raise ValueError("operator dimensions do not compose")
        return Operator(self.entries @ other.entries)


@dataclass(frozen=True, eq=False)
class Measurement:
    """N-outcome POVM: positive elements summing to the identity."""

    operators: tuple
    labels: tuple

    def __post_init__(self) -> None:
        ops = tuple(self.operators)
        labels = tuple(int(x) for x in self.labels)
        if not ops:
            raise ValueError("measurement needs at least one element")
        if len(ops) != len(labels):
            raise ValueError("operators and labels must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be unique")
        dim = ops[0].dim_in
        total = np.zeros((dim, dim), dtype=complex)
        for op in ops:
            if op.dim_in != dim or op.dim_out != dim:
                raise ValueError("POVM elements must be square with a common dimension")
            if np.min(np.linalg.eigvalsh(op.entries)) < -_PROB_CLIP:
                raise ValueError("POVM element is not positive semidefinite")
            total += op.entries
        if np.max(np.abs(total - np.eye(dim))) > _NORM_ATOL:
            raise ValueError("POVM elements do not sum to the identity")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.operators[0].dim_in

    def __len__(self) -> int:
        return len(self.operators)


def tensor(a: Ket, b: Ket) -> Ket:
    """Tensor product; index (i, j) maps to i * b.dim + j."""
    return Ket(np.kron(a.amplitudes, b.amplitudes))


def apply(u: Operator, s: Ket) -> Ket:
    """Matrix-vector product u|s>."""
    if u.dim_in != s.dim:
        raise ValueError(f"operator expects dim {u.dim_in}, state has dim {s.dim}")
    return Ket(u.entries @ s.amplitudes)


def born_probabilities(state: Ket, m: Measurement) -> np.ndarray:
    """Outcome distribution <s|Pi_l|s>, clipped to [0, 1]."""
    if state.dim != m.dim:
        raise ValueError(f"state dim {state.dim} does not match measurement dim {m.dim}")
    if not state.is_normalized(_PROB_SUM_ATOL):
        raise ValueError("born probabilities require a normalized state")
    amps = state.amplitudes
    probs = np.array([np.vdot(amps, op.entries @ amps).real for op in m.operators])
    if np.min(probs) < -_PROB_CLIP or np.max(probs) > 1.0 + _PROB_CLIP:
        raise ValueError("probability excursion beyond rounding tolerance")
    probs = np.clip(probs, 0.0, 1.0)
    if abs(probs.sum() - 1.0) > _PROB_SUM_ATOL:
        raise ValueError("outcome probabilities do not sum to 1")
    return probs


def sample_outcome(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an outcome index by inverse CDF; deterministic for a fixed stream."""
    p = np.asarray(probs, dtype=float)
    if p.size == 0:
        raise ValueError("empty probability vector")
    if np.min(p) < -_PROB_CLIP:
        raise ValueError("negative probability beyond rounding tolerance")
    if abs(p.sum() - 1.0) > _PROB_SUM_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf = np.cumsum(np.clip(p, 0.0, None))
    u = rng.random(size=1)[0]
    return int(min(np.searchsorted(cdf, u, side="right"), p.size - 1))


def project_subsystem(state: Ket, dims: tuple, subsystem: str, outcome: int):
    """Computational-basis measurement of one factor of a bipartite state.

    Returns (probability of `outcome`, renormalized state of the remaining
    subsystem). Conditioning on a null event raises.
    """
    d_a, d_b = int(dims[0]), int(dims[1])
    if state.dim != d_a * d_b:
        raise ValueError(f"state dim {state.dim} does not factor as {d_a}x{d_b}")
    if subsystem not in ("A", "B"):
        raise ValueError("subsystem must be 'A' or 'B'")
    table = state.amplitudes.reshape(d_a, d_b)
    if subsystem == "B":
        if not 0 <= outcome < d_b:
            raise ValueError("outcome out of range for subsystem B")
        branch = table[:, outcome]
    else:
        if not 0 <= outcome < d_a:
            raise ValueError("outcome out of range for subsystem A")
        branch = table[outcome, :]
    prob = float(np.vdot(branch, branch).real)
    if prob <= _NULL_EVENT:
        raise ValueError("cannot condition on null event")
    prob = min(prob, 1.0)
    return prob, Ket(branch / np.sqrt(prob))
