import math
import sys
from statistics import NormalDist

import numpy as np
import pytest

from densecode import SchmidtState, cli, protocol_sim, qkd


def simplex_grid(rank: int, resolution: int, margin: float) -> np.ndarray:
    """The squared coefficients levels[codes] of a sweep's lattice, cli._lattice, one state per row."""
    levels, codes = cli._lattice(rank, resolution, margin)
    return levels[codes]


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


@pytest.fixture(autouse=True)
def cold_memos():
    """Clear the memos of branch trees and of keep probabilities before each
    test, so a test that counts builds sees a cold memo whatever ran before."""
    protocol_sim._shared_tree.cache_clear()
    qkd._sift_rate.cache_clear()


@pytest.fixture
def qubit_state():
    """The paper-style two-qubit resource with squared coefficients (0.2, 0.8)."""
    return SchmidtState.from_squared(2, 2, [0.2, 0.8])


@pytest.fixture
def qutrit_state():
    """Rank-3 channel with squared coefficients (0.2, 0.3, 0.5) in 3x4."""
    return SchmidtState.from_squared(3, 4, [0.2, 0.3, 0.5])


def refuse_everywhere(monkeypatch, functions):
    """Make every binding of `functions` in every densecode namespace and in
    the tests' dense helpers raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("refused function called on the runtime path")

    modules = [
        m for n, m in sys.modules.items() if n in ("densecode", "dense") or n.startswith("densecode.")
    ]
    for module in modules:
        for name, obj in list(vars(module).items()):
            if any(obj is fn for fn in functions):
                monkeypatch.setattr(module, name, refuse)


def count_everywhere(monkeypatch, function) -> list:
    """Wrap every binding of `function` in every densecode namespace so that
    each call appends its positional arguments to the returned list."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for module in [m for n, m in sys.modules.items() if n == "densecode" or n.startswith("densecode.")]:
        for name, obj in list(vars(module).items()):
            if obj is function:
                monkeypatch.setattr(module, name, counted)
    return calls


#: Significance of the law-level sampler tests: a sampler drawing from the
#: right law fails one of them with about this probability at a random seed.
#: The seeds are fixed, so each verdict is reproducible.
LAW_ALPHA = 1e-6
#: Two-sided normal bound at LAW_ALPHA for one binomial count.
LAW_Z = NormalDist().inv_cdf(1.0 - LAW_ALPHA / 2.0)
#: Cells expected to hold fewer draws than this are pooled into one cell, so
#: the G statistic stays close to its chi-square law.
MIN_EXPECTED = 5.0


def chi2_bound(dof: int) -> float:
    """Upper LAW_ALPHA-quantile of chi-square with `dof` degrees of freedom
    (Wilson-Hilferty; slightly conservative at one degree of freedom)."""
    z = NormalDist().inv_cdf(1.0 - LAW_ALPHA)
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * math.sqrt(h)) ** 3


def assert_counts_follow(observed, probs):
    """G-test of a table of counts against exact cell probabilities of the same
    shape, summing to 1. A cell of probability 0 must stay empty; cells with
    expected count below MIN_EXPECTED are pooled."""
    observed = np.asarray(observed, dtype=float).ravel()
    probs = np.asarray(probs, dtype=float).ravel()
    assert abs(probs.sum() - 1.0) <= 1e-9
    assert not observed[probs == 0.0].any(), "a count landed on a cell of probability 0"
    expected = observed.sum() * probs
    small = expected < MIN_EXPECTED
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    obs, exp = obs[exp > 0], exp[exp > 0]
    hit = obs > 0
    g = 2.0 * float(np.sum(obs[hit] * np.log(obs[hit] / exp[hit])))
    bound = chi2_bound(max(obs.size - 1, 1))
    assert g <= bound, f"G = {g:.1f} over {obs.size} cells, bound {bound:.1f}"


def assert_binomial(successes: int, trials: int, p: float):
    """`successes` out of `trials` within LAW_Z standard deviations of p."""
    sigma = math.sqrt(max(p * (1.0 - p), 0.0) * trials)
    assert abs(successes - p * trials) <= LAW_Z * sigma + 1e-6, (successes, trials, p)
