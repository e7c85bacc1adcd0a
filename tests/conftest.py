import sys

import numpy as np
import pytest

from densecode import SchmidtState


def random_schmidt(rng, rank=None, d2=None, d1=None, floor=0.03):
    """Random full-support channel, squared coefficients away from zero."""
    rank = int(rng.integers(2, 5)) if rank is None else rank
    d2 = int(rng.integers(2, 5)) if d2 is None else d2
    rank = min(rank, d2)
    d1 = int(rng.integers(rank, rank + 3)) if d1 is None else d1
    sq = rng.dirichlet(np.ones(rank))
    sq = (1.0 - rank * floor) * sq + floor
    return SchmidtState.from_squared(d1, d2, sq / sq.sum())


def random_support_coeffs(rng, period=None, floor=0.02):
    """Coefficient vector with an optional hole pattern, unit squared sum."""
    period = int(rng.integers(2, 5)) if period is None else period
    support = np.sort(rng.choice(period, size=int(rng.integers(2, period + 1)), replace=False))
    sq = rng.dirichlet(np.ones(support.size))
    sq = (1.0 - support.size * floor) * sq + floor
    out = np.zeros(period)
    out[support] = np.sqrt(sq / sq.sum())
    return out


@pytest.fixture
def qubit_state():
    """The paper-style two-qubit resource with squared coefficients (0.2, 0.8)."""
    return SchmidtState.from_squared(2, 2, [0.2, 0.8])


@pytest.fixture
def qutrit_state():
    """Rank-3 channel with squared coefficients (0.2, 0.3, 0.5) in 3x4."""
    return SchmidtState.from_squared(3, 4, [0.2, 0.3, 0.5])


def refuse_everywhere(monkeypatch, functions):
    """Make every binding of `functions` in every densecode namespace raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("refused function called on the runtime path")

    modules = [m for n, m in sys.modules.items() if n == "densecode" or n.startswith("densecode.")]
    for module in modules:
        for name, obj in list(vars(module).items()):
            if any(obj is fn for fn in functions):
                monkeypatch.setattr(module, name, refuse)
