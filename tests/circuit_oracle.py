"""Circuit oracle: the dense-coding circuit run as actual operators.

The runtime branch tree (`densecode.protocol_sim._BranchTree`) is a closed
form in the Schmidt coefficients. This module builds the same tree the long
way, for tests only. It encodes every message with the dense (I x X^-k Z^j)
unitary, splits it with GXOR and the system-2 readout, evolves the carrier
family through each stage's dilation coupling, and reads every confusion row
off the ME POVM by the Born rule. Each step checks what the circuit promises
and raises ValueError when it does not hold.
"""

from __future__ import annotations

import math

import numpy as np

from densecode.channel import GROUP_TOL_SQ
from densecode.discrimination import FINAL_ABSTAIN, FINAL_ME, SURE_SUCCESS, walk_stages
from densecode.gates import gxor
from densecode.protocol_sim import GUESS_ME, GUESS_UNIFORM, INCONCLUSIVE
from densecode.tensor_core import Ket, apply, born_probabilities, project_subsystem, tensor

from dense import Message, dilation_unitary, encode, me_measurement, symmetric_state

#: Amplitude-level slack of the channel checks: the GXOR split of an encoded
#: message is a permutation of amplitudes, so only rounding separates it from
#: a sure system-2 outcome and the reference carrier state.
READOUT_ATOL = 1e-10
#: Weight the complement POVM element may catch from a state inside the rank
#: subspace; the element is orthogonal to that subspace up to rounding.
COMPLEMENT_ATOL = 1e-10
#: Spread of a stage's success probability over the hypotheses; the Kraus
#: pair is diagonal and every hypothesis has the same level magnitudes.
HYPOTHESIS_ATOL = 1e-10
#: Largest distance of the receiver's sift confusion table from the identity.
SIFT_ATOL = 1e-9
#: Agreement of the closed-form tree with the circuit: both sum O(D) terms of
#: size <= 1, so they differ by a few units of rounding.
AGREE_ATOL = 1e-12
#: Agreement for a family whose two smallest squared coefficients differ by a
#: nonzero gap <= GROUP_TOL_SQ. The closed form strips the near-tied level
#: from the failure family; the circuit's failure state keeps amplitude at
#: most sqrt(GROUP_TOL_SQ / (1 - d*m2)) there, which the next stage passes
#: into its success branch. With 1 - d*m2 >= NEAR_TIE_MIN_EXCESS that
#: amplitude is at most eps = sqrt(GROUP_TOL_SQ / NEAR_TIE_MIN_EXCESS), and a
#: Born probability moves by at most 2*eps + eps**2.
NEAR_TIE_MIN_EXCESS = 0.2
_EPS = math.sqrt(GROUP_TOL_SQ / NEAR_TIE_MIN_EXCESS)
NEAR_TIE_ATOL = 2.0 * _EPS + _EPS**2


def verify_channel(s) -> np.ndarray:
    """Encode, GXOR-split and read out every message (j, k).

    Checks that the system-2 outcome is k with certainty and that the residual
    system-1 state is the carrier state |psi_j>. Returns the readout table
    P(m | j, k) of shape (D, d2, d2).
    """
    gate = gxor(s.d1, s.d2)
    readout = np.zeros((s.D, s.d2, s.d2))
    for j in range(s.D):
        reference = symmetric_state(s, j)
        for k in range(s.d2):
            split = apply(gate, encode(s, Message(j, k)))
            table = split.amplitudes.reshape(s.d1, s.d2)
            readout[j, k] = np.sum(np.abs(table) ** 2, axis=0)
            p_k, residual = project_subsystem(split, (s.d1, s.d2), "B", k)
            if p_k < 1.0 - READOUT_ATOL:
                raise ValueError("system-2 outcome is not deterministic")
            if np.max(np.abs(residual.amplitudes - reference.amplitudes)) > READOUT_ATOL:
                raise ValueError("decoded carrier state mismatch")
    return readout


class CircuitTree:
    """Branch tree of a strategy over one symmetric family, circuit-derived.

    stages[n] = (success probability, confusion table) of the n-th executed
    stage: the separations that walk_stages executes, applied as dilation
    couplings to the evolved states, cut after a stage that the evolved states show
    succeeds surely. Records and labels follow the runtime tree.
    """

    def __init__(self, s, stages, final: str, guess=None):
        rank, dim = s.D, s.d1
        povm = me_measurement(rank, dim)

        def outcome_table(states) -> np.ndarray:
            rows = np.empty((rank, rank))
            for j, state in enumerate(states):
                probs = born_probabilities(state, povm)
                if probs[rank:].sum() > COMPLEMENT_ATOL:
                    raise ValueError("complement POVM element fired on a subspace state")
                rows[j] = probs[:rank]
            return rows

        self.rank = rank
        self.stages: list = []
        records: list = []
        current = [symmetric_state(s, j) for j in range(rank)]
        for xi, (executed, family, _, _) in zip(stages, walk_stages(s.coeffs, stages)[0]):
            if not executed:
                break
            coupling = dilation_unitary(family, xi, dim)
            probs, succeeded, failed = [], [], []
            for state in current:
                evolved = apply(coupling, tensor(state, Ket.basis(2, 0)))
                p_ok, ket_ok = project_subsystem(evolved, (dim, 2), "B", 0)
                probs.append(p_ok)
                succeeded.append(ket_ok)
                if p_ok < SURE_SUCCESS:
                    failed.append(project_subsystem(evolved, (dim, 2), "B", 1)[1])
            if max(probs) - min(probs) > HYPOTHESIS_ATOL:
                raise ValueError("stage success probability depends on the hypothesis")
            p_stage = float(np.mean(probs))
            records += [f"s{len(self.stages) + 1}:{l}" for l in range(rank)]
            self.stages.append((p_stage, outcome_table(succeeded)))
            if p_stage >= SURE_SUCCESS:
                break
            current = failed
        self.final_offset = len(records)
        # A guess replaces abstention; after an ME final it never fires.
        self.guess = None if final == FINAL_ME else guess
        if final == FINAL_ME:
            records += [f"f:{l}" for l in range(rank)]
        elif guess is None:
            records.append("inc")
        else:
            records += [f"{'g' if guess == GUESS_ME else 'u'}:{l}" for l in range(rank)]
        self.records = tuple(records)
        self.final_table = None
        if final == FINAL_ME or self.guess == GUESS_ME:
            self.final_table = outcome_table(current)

    def distribution(self) -> np.ndarray:
        """P(record | hypothesis), shape (D, n_records), by branch enumeration:
        each hypothesis reaches stage n with the product of earlier failures."""
        dist = np.zeros((self.rank, len(self.records)))
        for j in range(self.rank):
            reach = 1.0
            for n, (p_stage, table) in enumerate(self.stages):
                for l in range(self.rank):
                    dist[j, n * self.rank + l] = reach * p_stage * table[j, l]
                reach *= 1.0 - p_stage
            for l in range(self.rank):
                if self.final_table is not None:
                    dist[j, self.final_offset + l] = reach * self.final_table[j, l]
                elif self.guess == GUESS_UNIFORM:
                    dist[j, self.final_offset + l] = reach / self.rank
            if self.final_table is None and self.guess is None:
                dist[j, self.final_offset] = reach
        return dist


def circuit_joint(s, strat) -> np.ndarray:
    """Joint over (message) x (record, m) with uniform message priors: the
    circuit's system-2 readout P(m | j, k) times the carrier's record
    distribution. Row j*d2 + k, column record*d2 + m."""
    readout = verify_channel(s)
    dist = CircuitTree(s, strat.plan.stages, strat.plan.final_action).distribution()
    joint = np.einsum("jkm,jr->jkrm", readout, dist) / (s.d2 * s.D)
    return joint.reshape(s.d2 * s.D, dist.shape[1] * s.d2)


def circuit_sift_rate(s) -> float:
    """Receiver keep probability: full separation, whose conclusive outcomes
    must be exact."""
    sift = CircuitTree(s, (1.0,), FINAL_ABSTAIN)
    p_keep, table = sift.stages[0]
    if np.max(np.abs(table - np.eye(s.D))) > SIFT_ATOL:
        raise ValueError("sifting measurement is not unambiguous")
    return p_keep


def inferred(records) -> np.ndarray:
    """Hypothesis each record infers; INCONCLUSIVE for "inc"."""
    return np.array([INCONCLUSIVE if r == "inc" else int(r.split(":")[1]) for r in records])
