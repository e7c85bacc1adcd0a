"""Byte-for-byte golden outputs of every CLI command at small sizes.

Each case runs one command in-process and compares every CSV and JSON file it
writes with the copy under tests/golden/. After an intended output change,
regenerate the copies with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ before committing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from densecode import cli

GOLDEN = Path(__file__).parent / "golden"

#: Distinct squared coefficients: every separation stage is constructible.
RAMP = {"d1": 4, "d2": 4, "coeffs": [0.1, 0.2, 0.3, 0.4], "squared": True}
#: Tied minimum: the first failure strips two levels, the second leaves one.
TIED = {"d1": 4, "d2": 4, "coeffs": [0.1, 0.1, 0.3, 0.5], "squared": True}
#: The first failure family is uniform, so the second stage succeeds surely.
UNIFORM_TAIL = {"d1": 5, "d2": 4, "coeffs": [0.1, 0.3, 0.3, 0.3], "squared": True}


def _multistage(stages, final):
    return {"kind": "multistage", "stages": [{"xi": xi} for xi in stages], "final": final}


STRATEGIES = {
    "me": (RAMP, {"kind": "me"}),
    "sep0": (RAMP, {"kind": "sep_me", "xi": 0.0}),
    "sep06": (RAMP, {"kind": "sep_me", "xi": 0.6}),
    "ms_me": (RAMP, _multistage([1.0, 0.7, 1.0], "me")),
    "ms_abstain": (RAMP, _multistage([0.8, 1.0], "abstain")),
    "ms_xi0": (RAMP, _multistage([0.0, 1.0], "me")),
    "tied_abstain": (TIED, _multistage([1.0, 1.0, 1.0], "abstain")),
    "uniform_tail_me": (UNIFORM_TAIL, _multistage([1.0, 1.0, 1.0], "me")),
}

EVES = {
    "absent": (RAMP, {"kind": "absent"}),
    "me": (RAMP, {"kind": "intercept", "strategy": {"kind": "me"}}),
    "sep0_uniform": (RAMP, {"kind": "intercept", "strategy": {"kind": "sep_me", "xi": 0.0}}),
    "sep06_uniform": (
        RAMP,
        {"kind": "intercept", "strategy": {"kind": "sep_me", "xi": 0.6}, "fallback": "uniform"},
    ),
    "sep06_guess_me": (
        RAMP,
        {"kind": "intercept", "strategy": {"kind": "sep_me", "xi": 0.6}, "fallback": "me"},
    ),
    "ms_me": (RAMP, {"kind": "intercept", "strategy": _multistage([1.0, 0.7, 1.0], "me")}),
    "ms_abstain_uniform": (
        RAMP,
        {"kind": "intercept", "strategy": _multistage([0.8, 1.0], "abstain")},
    ),
    "ms_abstain_guess_me": (
        RAMP,
        {"kind": "intercept", "strategy": _multistage([0.8, 1.0], "abstain"), "fallback": "me"},
    ),
    "ms_xi0_guess_me": (
        RAMP,
        {"kind": "intercept", "strategy": _multistage([0.0, 1.0], "abstain"), "fallback": "me"},
    ),
    "tied_uniform": (
        TIED,
        {"kind": "intercept", "strategy": _multistage([1.0, 1.0, 1.0], "abstain")},
    ),
    "uniform_tail_guess_me": (
        UNIFORM_TAIL,
        {"kind": "intercept", "strategy": _multistage([1.0, 1.0], "abstain"), "fallback": "me"},
    ),
}

#: 20001 trials, longer than the 4096-trial cases below.
SEEDS = (1, 7)
TRIALS = "20001"
#: Cases also run at 4096 trials, seed 3: a run of at most 4096 trials draws
#: the same counts from the same streams (0 for the table, 1 for the readout)
#: as when runs were split into 4096-trial blocks, and these files pin that.
SHORT_TRIALS = "4096"
SHORT_STRATEGIES = ("me", "ms_me", "tied_abstain", "uniform_tail_me")
SHORT_EVES = ("absent", "me", "ms_abstain_guess_me", "tied_uniform")


def _cases() -> dict:
    """name -> (argv without --out, config dict or None)."""
    cases = {
        "sweep_me": (["sweep-me", "--grid", "6"], None),
        "sweep_me_d4": (["sweep-me", "--d1", "4", "--d2", "4", "--grid", "5"], None),
        "sweep_multistage": (["sweep-multistage", "--grid", "6"], None),
        "sweep_multistage_d4": (["sweep-multistage", "--d1", "4", "--d2", "4", "--grid", "5"], None),
        "sweep_sep": (["sweep-sep", "--xi-steps", "10"], None),
        "sweep_sep_tied": (["sweep-sep", "--xi-steps", "10"], {"state": TIED}),
    }
    for seed in SEEDS:
        run = ["--trials", TRIALS, "--seed", str(seed)]
        for name, (state, strategy) in STRATEGIES.items():
            config = {"state": state, "strategy": strategy}
            cases[f"montecarlo_{name}_seed{seed}"] = (["montecarlo", *run], config)
        for name, (state, eve) in EVES.items():
            cases[f"qkd_{name}_seed{seed}"] = (["qkd", *run], {"state": state, "eve": eve})
    short = ["--trials", SHORT_TRIALS, "--seed", "3"]
    for name in SHORT_STRATEGIES:
        state, strategy = STRATEGIES[name]
        cases[f"montecarlo_{name}_n4096"] = (["montecarlo", *short], {"state": state, "strategy": strategy})
    for name in SHORT_EVES:
        state, eve = EVES[name]
        cases[f"qkd_{name}_n4096"] = (["qkd", *short], {"state": state, "eve": eve})
    return cases


CASES = _cases()


def _run(name: str, work: Path) -> dict:
    """Run case `name` in directory `work`; returns output file name -> bytes."""
    argv, config = CASES[name]
    argv = [*argv, "--out", str(work / f"{name}.csv")]
    if config is not None:
        path = work / f"{name}.config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return {
        fname: (work / fname).read_bytes()
        for fname in (f"{name}.csv", f"{name}.json")
        if (work / fname).exists()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(name, tmp_path):
    outputs = _run(name, tmp_path)
    expected = sorted(p.name for p in GOLDEN.glob(f"{name}.*"))
    assert sorted(outputs) == expected
    for fname, blob in outputs.items():
        assert blob == (GOLDEN / fname).read_bytes(), fname


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for fname, blob in _run(case, Path(tmp)).items():
                (GOLDEN / fname).write_bytes(blob)
    print(f"wrote {len(os.listdir(GOLDEN))} files to {GOLDEN}", file=sys.stderr)
