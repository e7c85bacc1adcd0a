import json
import math

import numpy as np
import pytest

from densecode import (
    FINAL_ABSTAIN,
    DecodingStrategy,
    EveStrategy,
    GUESS_ME,
    GUESS_UNIFORM,
    SchmidtState,
    StagePlan,
    analytic_qkd_error,
    analytic_sift_rate,
    cli,
    simulate_qkd,
)
from densecode.discrimination import separate
from densecode.tensor_core import Ket, born_probabilities

from conftest import random_schmidt
from dense import me_measurement, separated_state


def sigma3(p, n):
    return 3 * math.sqrt(max(p * (1 - p), 1e-12) / n)


def brute_force_error(s, stages, final, fallback):
    """Branch enumeration with explicit states and Born probabilities."""
    povm = me_measurement(s.D, s.d1)
    total_err = 0.0
    for j in range(s.D):
        weight = 1.0
        coeffs = np.asarray(s.coeffs, dtype=float)
        err = 0.0
        for xi in stages:
            if np.sum(coeffs > 1e-12) < 2:
                break
            sep = separate(coeffs, xi)
            probs = born_probabilities(separated_state(sep, j, s.d1), povm)
            err += weight * sep.p_success * (1.0 - probs[j])
            if sep.uniform:
                weight = 0.0
                break
            weight *= 1.0 - sep.p_success
            coeffs = sep.failure_coeffs
        if weight > 0:
            if final == "me" or fallback == GUESS_ME:
                levels = np.arange(s.D)
                amps = np.zeros(s.d1, dtype=complex)
                amps[: s.D] = coeffs * np.exp(2j * np.pi * j * levels / s.D)
                probs = born_probabilities(Ket(amps), povm)
                err += weight * (1.0 - probs[j])
            else:
                err += weight * (1.0 - 1.0 / s.D)
        total_err += err / s.D
    return total_err


class TestEveStrategy:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown eavesdropper kind 'sneaky'"):
            cli._parse_eve({"kind": "sneaky"})
        with pytest.raises(ValueError, match="needs key 'strategy'"):
            cli._parse_eve({"kind": "intercept"})
        with pytest.raises(ValueError, match="requires a strategy"):
            EveStrategy.intercept(None)
        with pytest.raises(ValueError, match="must be a DecodingStrategy"):
            EveStrategy("absent")
        with pytest.raises(ValueError):
            EveStrategy.intercept(DecodingStrategy.me(), fallback="coin")

    def test_dict_round_trip(self):
        eve = cli._parse_eve(
            {"kind": "intercept", "strategy": {"kind": "sep_me", "xi": 0.5}, "fallback": "me"}
        )
        assert eve.strategy == DecodingStrategy.sep_me(0.5)
        assert eve.strategy.describe() == "sep_me(xi=0.5)"
        assert eve.fallback == GUESS_ME
        assert eve.describe() == "intercept(sep_me(xi=0.5), fallback=me)"
        absent = cli._parse_eve({"kind": "absent"})
        assert absent == EveStrategy.absent() and absent.strategy is None
        assert absent.describe() == "absent"

    def test_absence_is_a_missing_strategy(self, qubit_state, tmp_path):
        # An absent eavesdropper cannot carry a strategy: one with a strategy
        # intercepts, and is named and run as intercepting.
        with pytest.raises(ValueError, match="must be a DecodingStrategy, not 'absent'"):
            EveStrategy("absent", DecodingStrategy.me())
        with pytest.raises(TypeError):
            EveStrategy(kind="absent", strategy=DecodingStrategy.me())
        eve = EveStrategy(DecodingStrategy.me())
        assert eve == EveStrategy.intercept(DecodingStrategy.me())
        report = simulate_qkd(qubit_state, eve, 20000, seed=2)
        assert eve.describe() == "intercept(me, fallback=uniform)"
        assert report.errors > 0 and report.tree.records == ("f:0", "f:1")
        # The CSV and the JSON report name the eavesdropper that ran.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"eve": {"kind": "intercept", "strategy": {"kind": "me"}}, "trials": 20000}))
        assert cli.main(["qkd", "--config", str(config), "--out", str(tmp_path / "run.csv")]) == 0
        assert json.loads((tmp_path / "run.json").read_text())["eve"] == "intercept(me, fallback=uniform)"
        assert (tmp_path / "run.csv").read_text().splitlines()[1].startswith('"intercept(me, fallback=uniform)",')


class TestSimulateQkd:
    def test_absent_eve(self, qubit_state):
        report = simulate_qkd(qubit_state, EveStrategy.absent(), 100000, seed=1)
        assert report.sifted_error_rate == 0.0
        assert report.errors == 0
        assert abs(report.sift_rate - 0.4) <= sigma3(0.4, 100000)
        assert report.eve_info_bits == 0.0

    def test_me_eavesdropper(self, qubit_state):
        eve = EveStrategy.intercept(DecodingStrategy.me())
        report = simulate_qkd(qubit_state, eve, 100000, seed=2)
        assert abs(report.sifted_error_rate - 0.1) <= sigma3(0.1, report.kept)
        assert abs(report.sift_rate - 0.4) <= sigma3(0.4, 100000)

    def test_unambiguous_eavesdropper_with_uniform_guess(self, qubit_state):
        eve = EveStrategy.intercept(DecodingStrategy.sep_me(1.0), GUESS_UNIFORM)
        report = simulate_qkd(qubit_state, eve, 100000, seed=3)
        assert abs(report.sifted_error_rate - 0.3) <= sigma3(0.3, report.kept)

    def test_deterministic_replay(self, qubit_state):
        eve = EveStrategy.intercept(DecodingStrategy.sep_me(0.5))
        a = simulate_qkd(qubit_state, eve, 20000, seed=5)
        b = simulate_qkd(qubit_state, eve, 20000, seed=5)
        c = simulate_qkd(qubit_state, eve, 20000, seed=5, threads=3)
        assert cli._report_json(a, {}) == cli._report_json(b, {}) == cli._report_json(c, {})

    def test_succeeded_rounds_are_exact(self, qubit_state):
        # maximum-confidence successes identify the dit with certainty
        eve = EveStrategy.intercept(DecodingStrategy.sep_me(1.0), GUESS_UNIFORM)
        report = simulate_qkd(qubit_state, eve, 50000, seed=6)
        labels = report.tree.records
        for j in range(2):
            for l in range(2):
                if j != l:
                    assert report.eve_counts[j, labels.index(f"s1:{l}")] == 0
        # plug-in information restricted to conclusive records is one full dit
        cols = [labels.index(f"s1:{l}") for l in range(2)]
        sub = report.eve_counts[:, cols].astype(float)
        sub /= sub.sum()
        from dense import mutual_info_from_joint

        assert abs(mutual_info_from_joint(sub) - 1.0) <= 0.01

    def test_json_payload(self, qubit_state):
        eve = EveStrategy.intercept(DecodingStrategy.me())
        report = simulate_qkd(qubit_state, eve, 4096, seed=7)
        payload = json.loads(cli._report_json(report, {"seed": 7}))
        assert payload["n_rounds"] == 4096 and payload["seed"] == 7
        assert sum(payload["eve_counts"].values()) == payload["kept"]


class TestAnalyticError:
    def test_absent(self, qubit_state):
        assert analytic_qkd_error(qubit_state.coeffs, EveStrategy.absent()) == 0.0

    def test_me(self, qubit_state):
        eve = EveStrategy.intercept(DecodingStrategy.me())
        assert abs(analytic_qkd_error(qubit_state.coeffs, eve) - 0.1) < 1e-12

    def test_half_separation_brute_force(self, qubit_state):
        eve = EveStrategy.intercept(DecodingStrategy.sep_me(0.5), GUESS_UNIFORM)
        value = analytic_qkd_error(qubit_state.coeffs, eve)
        oracle = brute_force_error(qubit_state, (0.5,), "abstain", GUESS_UNIFORM)
        assert abs(value - oracle) < 1e-12
        assert abs(value - 0.2274) < 5e-5

    def test_full_separation_uniform_guess(self, qubit_state):
        eve = EveStrategy.intercept(DecodingStrategy.sep_me(1.0), GUESS_UNIFORM)
        assert abs(analytic_qkd_error(qubit_state.coeffs, eve) - 0.3) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_everywhere(self, seed):
        rng = np.random.default_rng(800 + seed)
        s = random_schmidt(rng)
        xi = float(rng.uniform(0, 1))
        for strat, stages, final, fallback in [
            (DecodingStrategy.me(), (), "me", GUESS_UNIFORM),
            (DecodingStrategy.sep_me(xi), (xi,), "abstain", GUESS_UNIFORM),
            (DecodingStrategy.sep_me(xi), (xi,), "abstain", GUESS_ME),
        ]:
            eve = EveStrategy.intercept(strat, fallback)
            value = analytic_qkd_error(s.coeffs, eve)
            oracle = brute_force_error(s, stages, final, fallback)
            assert abs(value - oracle) <= 1e-10

    def test_monotone_ordering_in_xi(self):
        # the deterministic strategy introduces the fewest errors; the
        # trade-off family interpolates monotonically up to full separation
        for sq_min in (0.1, 0.2, 0.35):
            s = SchmidtState.from_squared(2, 2, [sq_min, 1 - sq_min])
            errors = [
                analytic_qkd_error(
                    s.coeffs,
                    EveStrategy.intercept(DecodingStrategy.sep_me(float(xi)), GUESS_UNIFORM),
                )
                for xi in np.linspace(0, 1, 21)
            ]
            me_err = analytic_qkd_error(s.coeffs, EveStrategy.intercept(DecodingStrategy.me()))
            assert abs(errors[0] - me_err) < 1e-12
            assert all(b >= a - 1e-12 for a, b in zip(errors, errors[1:]))


class TestMultistageEavesdropper:
    def test_lower_error_than_single_stage(self, qutrit_state):
        single = EveStrategy.intercept(DecodingStrategy.sep_me(1.0), GUESS_UNIFORM)
        plan = StagePlan((1.0, 1.0), FINAL_ABSTAIN)
        multi = EveStrategy.intercept(DecodingStrategy.multistage(plan), GUESS_UNIFORM)
        err_single = analytic_qkd_error(qutrit_state.coeffs, single)
        err_multi = analytic_qkd_error(qutrit_state.coeffs, multi)
        assert abs(err_single - 0.4 * 2 / 3) < 1e-12
        assert abs(err_multi - 0.2) < 1e-12
        assert err_multi < err_single
        rep_single = simulate_qkd(qutrit_state, single, 100000, seed=8)
        rep_multi = simulate_qkd(qutrit_state, multi, 100000, seed=9)
        assert abs(rep_single.sifted_error_rate - err_single) <= sigma3(err_single, rep_single.kept)
        assert abs(rep_multi.sifted_error_rate - err_multi) <= sigma3(err_multi, rep_multi.kept)
        assert rep_multi.sifted_error_rate < rep_single.sifted_error_rate


def test_analytic_sift_rate(qubit_state):
    assert abs(analytic_sift_rate(qubit_state.coeffs) - 0.4) < 1e-12
    assert abs(analytic_sift_rate(np.sqrt([0.25, 0.25, 0.25, 0.25])) - 1.0) < 1e-12
