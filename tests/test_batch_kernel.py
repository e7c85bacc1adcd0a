"""The batched closed-form engine: every row of a batch is computed as if it
were alone, and batched multistage totals agree with the circuit oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from densecode import (
    FINAL_ABSTAIN,
    FINAL_ME,
    SchmidtState,
    StagePlan,
    cli,
    mutual_info_multistage,
)
from densecode.channel import COEFF_TOL, GROUP_TOL_SQ
from densecode.discrimination import Separation, _checked, _separate, separate, walk_stages
from densecode.infometrics import me_bits, multistage_bits, multistage_columns

from circuit_oracle import circuit_joint
from conftest import simplex_grid
from dense import mutual_info_from_joint


def _row(squared) -> np.ndarray:
    return np.sqrt(np.asarray(squared, dtype=float))


def _near_tie(factor: float) -> np.ndarray:
    """Two smallest squares a gap of factor * GROUP_TOL_SQ apart."""
    gap = factor * GROUP_TOL_SQ
    return _row([0.15, 0.15 + gap, 0.3, 0.4 - gap])


#: Uniform, exact tie, near ties straddling GROUP_TOL_SQ, a support hole, and
#: generic rows, all of period 4.
MIXED = np.array(
    [
        _row([0.25, 0.25, 0.25, 0.25]),
        _row([0.1, 0.1, 0.3, 0.5]),
        _near_tie(0.5),
        _near_tie(1.0),
        _near_tie(2.0),
        _row([0.2, 0.0, 0.3, 0.5]),
        _row([0.1, 0.2, 0.3, 0.4]),
        _row([0.4, 0.05, 0.35, 0.2]),
        _row([0.2, 0.2, 0.2, 0.4]),
    ]
)
PLANS = (
    StagePlan((1.0,), FINAL_ABSTAIN),
    StagePlan((0.6,), FINAL_ME),
    StagePlan((1.0, 1.0), FINAL_ABSTAIN),
    StagePlan((0.0, 1.0, 0.3), FINAL_ME),
)


def test_separation_rows_are_independent():
    for xi in (0.0, 0.35, 1.0):
        batch = separate(MIXED, xi)
        for r, coeffs in enumerate(MIXED):
            alone = separate(coeffs[None, :], xi)
            for name, value in alone._asdict().items():
                assert np.array_equal(getattr(batch, name)[r], value[0]), (r, xi, name)
            row = separate(coeffs, xi)
            assert row.p_success == batch.p_success[r]
            assert row.b_coeffs.tobytes() == batch.b_coeffs[r].tobytes()
            assert row.uniform == batch.uniform[r]
            if not row.uniform:
                assert row.failure_coeffs.tobytes() == batch.failure_coeffs[r].tobytes()


def test_per_row_xi_matches_one_xi_per_call():
    xis = np.linspace(0.0, 1.0, len(MIXED))
    batch = separate(MIXED, xis)
    for r, (coeffs, xi) in enumerate(zip(MIXED, xis)):
        alone = separate(coeffs, float(xi))
        for name, value in alone._asdict().items():
            assert np.array_equal(getattr(batch, name)[r], value), (r, name)


def test_near_ties_straddle_the_grouping_threshold():
    batch = separate(MIXED, 1.0)
    assert batch.uniform.tolist() == [True] + [False] * 8
    assert batch.minimal[1].tolist() == [True, True, False, False]
    assert batch.minimal[2].tolist() == [True, True, False, False]
    assert batch.minimal[4].tolist() == [True, False, False, False]
    assert batch.support[5].tolist() == [True, False, True, True]


def test_bits_rows_are_independent():
    d2 = 5
    batch_me = me_bits(MIXED, d2)
    for r, coeffs in enumerate(MIXED):
        assert me_bits(coeffs[None, :], d2)[0] == batch_me[r]
    # The last input gives each of its two stages one distinguishability per row.
    per_row = (np.linspace(0.0, 1.0, len(MIXED)), np.linspace(1.0, 0.2, len(MIXED)))
    for stages, final in [(p.stages, p.final_action) for p in PLANS] + [(per_row, FINAL_ME)]:
        total, probs, bits = multistage_bits(MIXED, d2, stages, final)
        for r, coeffs in enumerate(MIXED):
            row_stages = tuple(float(np.broadcast_to(xi, len(MIXED))[r]) for xi in stages)
            alone_total, alone_probs, alone_bits = multistage_bits(coeffs[None, :], d2, row_stages, final)
            assert alone_total[0] == total[r], (stages, r)
            assert [p[0] for p in alone_probs] == [p[r] for p in probs]
            assert [b[0] for b in alone_bits] == [b[r] for b in bits]


def _separate_walk_bits(coeffs, d2, stages, final):
    """(total, probabilities, bits) of one plan from a walk of its own, folded
    here rather than by the shared fold."""
    floor_bits = math.log2(d2)
    steps, rest = walk_stages(coeffs, stages)
    probs = [np.where(executed, p_stage, 0.0) for executed, _, p_stage, _ in steps]
    bits = [np.where(executed, me_bits(b_coeffs, d2), floor_bits) for executed, _, _, b_coeffs in steps]
    total = me_bits(rest, d2) if final == FINAL_ME else np.full(rest.shape[:-1], floor_bits)
    for p_stage, suc_bits in zip(reversed(probs), reversed(bits)):
        total = p_stage * suc_bits + (1.0 - p_stage) * total
    return total, probs, bits


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def _check_multistage_columns(coeffs, d2):
    columns = multistage_columns(coeffs, d2)
    assert list(columns) == ["I_MC", "I_MC_ME", "I_MC_MC", "I_suc1", "I_suc2", "I_ME", "P_s1", "P_overall"]
    for name, stages, final in [
        ("I_MC", (1.0,), FINAL_ABSTAIN),
        ("I_MC_ME", (1.0,), FINAL_ME),
        ("I_MC_MC", (1.0, 1.0), FINAL_ABSTAIN),
    ]:
        reference = _separate_walk_bits(coeffs, d2, stages, final)[0]
        assert _same_bits(columns[name], reference), name
        assert _same_bits(multistage_bits(coeffs, d2, stages, final)[0], reference), name
    _, (p_s1, p_s2), (i_suc1, i_suc2) = _separate_walk_bits(coeffs, d2, (1.0, 1.0), FINAL_ABSTAIN)
    i_me = me_bits(coeffs, d2)
    assert _same_bits(columns["I_ME"], i_me)
    assert _same_bits(columns["I_suc1"], i_suc1) and _same_bits(columns["I_suc2"], i_suc2)
    assert _same_bits(columns["P_s1"], p_s1)
    p_overall = p_s1 + (1.0 - p_s1) * p_s2 * np.where(i_suc2 > i_me, 1.0, 0.0)
    assert _same_bits(columns["P_overall"], p_overall)


@pytest.mark.parametrize("margin", [1e-3, 1e-6])
@pytest.mark.parametrize("rank, grid", [(3, 24), (4, 12), (5, 8), (6, 6)])
def test_multistage_columns_match_separate_walks(rank, grid, margin):
    """Each sweep-multistage column from the one shared walk equals, bit for
    bit, the plan it reports walked and folded on its own."""
    coeffs = np.sqrt(simplex_grid(rank, grid, margin))
    for d2 in (rank, rank + 2):
        _check_multistage_columns(coeffs, d2)


def test_multistage_columns_on_mixed_rows():
    # Uniform (stage 1 is sure), an exact tie, near ties and a support hole.
    _check_multistage_columns(MIXED, 5)


@pytest.mark.parametrize("rank, grid, n_stages", [(8, 8, 2), (6, 10, 3), (5, 12, 1)])
def test_walk_holds_only_what_its_readers_read(rank, grid, n_stages):
    """Per stage a walk keeps its rows, input families, P_s and separated
    families: at most two coefficient arrays and 9 bytes a row. A step that
    kept its whole Separation would hold about half as much again."""
    coeffs = np.sqrt(simplex_grid(rank, grid, 1e-3))
    tracemalloc.start()
    try:
        steps, rest = walk_stages(coeffs, (1.0,) * n_stages)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 2 * n_stages * coeffs.nbytes + n_stages * len(coeffs) * 9 + 64 * 2**10
    assert held <= bound, f"held {held / coeffs.nbytes:.2f} x the input, bound {bound / coeffs.nbytes:.2f} x"
    assert rest.shape == coeffs.shape
    for step in steps:
        assert isinstance(step, tuple) and len(step) == 4 and not isinstance(step, Separation)
        assert all(isinstance(part, np.ndarray) for part in step)


def _separation_by_fresh_arrays(coeffs, xi) -> Separation:
    """The separation kernel with a new array for every intermediate: the
    arithmetic _separate does in reused buffers, in the same order."""
    support = coeffs > COEFF_TOL
    d_sup = support.sum(axis=-1)
    sq = coeffs**2
    m2 = np.minimum.reduce(sq, axis=-1, where=support, initial=np.inf)
    uniform = np.maximum.reduce(sq, axis=-1, where=support, initial=0.0) - m2 <= GROUP_TOL_SQ
    gap = sq - m2[..., None]
    minimal = support & (gap <= GROUP_TOL_SQ)
    separated = np.sqrt((1.0 - xi)[..., None] * sq + (xi / d_sup)[..., None])
    excess = np.where(support & ~minimal, gap, 0.0)
    norm = np.where(uniform, 1.0, excess.sum(axis=-1))
    return Separation(
        support=support,
        minimal=minimal,
        b_coeffs=np.where(support, np.where(uniform[..., None], coeffs, separated), 0.0),
        p_success=np.where(uniform, 1.0, 1.0 / ((1.0 - xi) + xi / (d_sup * m2))),
        failure_coeffs=np.sqrt(excess / norm[..., None]),
        uniform=uniform,
        collapsed=d_sup < 2,
    )


@pytest.mark.parametrize("xi", [0.0, 0.3, 0.7, 1.0, "per row"])
@pytest.mark.parametrize("coeffs", [MIXED, np.sqrt(simplex_grid(5, 6, 1e-3)), MIXED[6]], ids=["mixed", "lattice", "one"])
def test_separation_in_reused_buffers_matches_fresh_arrays(coeffs, xi):
    xi = np.linspace(0.0, 1.0, len(coeffs)) if xi == "per row" else xi
    coeffs, xi = _checked(coeffs, xi)
    got, expected = _separate(coeffs, xi), _separation_by_fresh_arrays(coeffs, xi)
    for name in Separation._fields:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("rank, grid", [(8, 8), (6, 10), (5, 12)])
def test_separation_peaks_near_two_coefficient_arrays(rank, grid):
    """One separation reuses its full-size buffers: it peaks near three times
    its input (tracemalloc), where a new array per intermediate peaked near
    eight times."""
    coeffs, xi = _checked(np.sqrt(simplex_grid(rank, grid, 1e-3)), 1.0)
    tracemalloc.start()
    try:
        sep = _separate(coeffs, xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 4.5 * coeffs.nbytes + 64 * 2**10
    assert peak <= bound, f"peak {peak / coeffs.nbytes:.2f} x the input, bound {bound / coeffs.nbytes:.2f} x"
    assert sep.b_coeffs.shape == sep.failure_coeffs.shape == coeffs.shape


@st.composite
def state_stacks(draw):
    """1-4 channels of one rank 3-5 with integer-weighted squared
    coefficients: ties are exact and other gaps far exceed GROUP_TOL_SQ."""
    rank = draw(st.integers(3, 5))
    d1 = draw(st.integers(rank, rank + 1))
    d2 = draw(st.integers(rank, rank + 1))
    weights = draw(
        st.lists(st.lists(st.integers(1, 12), min_size=rank, max_size=rank), min_size=1, max_size=4)
    )
    states = [SchmidtState.from_squared(d1, d2, np.array(w) / sum(w)) for w in weights]
    xis = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    stages = draw(st.lists(xis, max_size=rank - 1))
    plan = StagePlan(tuple(stages), draw(st.sampled_from([FINAL_ME, FINAL_ABSTAIN])))
    return states, plan


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(state_stacks())
def test_batched_multistage_matches_circuit_oracle(case):
    states, plan = case
    stack = np.array([s.coeffs for s in states])
    totals = multistage_bits(stack, states[0].d2, plan.stages, plan.final_action)[0]
    for s, total in zip(states, totals):
        oracle = mutual_info_from_joint(circuit_joint(s, plan))
        assert math.isclose(total, oracle, rel_tol=0.0, abs_tol=1e-9)
        assert total == mutual_info_multistage(s, plan).total_bits
