"""Print one sha256 per output file of a fixed list of large CLI runs, to check
that a change keeps every output byte-identical.

    python3 tools/output_digest.py

Each run goes through `densecode.cli.main` in this process, against the `src/`
of the checkout that holds this tool, and writes into a fresh temporary
directory. Run the tool in two checkouts (copy it into one that lacks it) and
compare what they print: one `<sha256>  <file name>` line per output file, in
name order. The runs include the deepest Monte Carlo run and the largest
eavesdropper's tree the CLI admits. They take a few seconds. Their largest
arrays are the limits the CLI enforces: the deepest run's 2**24 int64 counts
(128 MiB) and the intercept's tree arrays of 203**3 float64 cells (64 MiB
each); the process peak also depends on the heap layout earlier runs leave.

tests/golden/output_digest.txt pins what the tool prints, and
tests/test_output_digest.py runs it at BLAS thread counts of 1 and 2 against
that file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The RAMP state and the "ms_me" plan of tests/test_golden.py: distinct
#: squared coefficients, three stages and an ME final.
RAMP = {"d1": 4, "d2": 4, "coeffs": [0.1, 0.2, 0.3, 0.4], "squared": True}
MS_ME = {"kind": "multistage", "stages": [{"xi": 1.0}, {"xi": 0.7}, {"xi": 1.0}], "final": "me"}
MILLION = ["--trials", "1000000", "--seed", "1"]


def ramp(rank: int) -> dict:
    """A rank-`rank` state, d1 = d2 = rank, with squared coefficients proportional to 1..rank."""
    squared = [k / (rank * (rank + 1) / 2) for k in range(1, rank + 1)]
    return {"d1": rank, "d2": rank, "coeffs": squared, "squared": True}


def full_depth(rank: int, final: str) -> dict:
    """The deepest plan at this rank: rank - 1 stages at xi = 1, then `final`."""
    return {"kind": "multistage", "stages": [{"xi": 1.0}] * (rank - 1), "final": final}


#: Output name -> (argv without --config and --out, config object or None).
RUNS = {
    # The two sweeps of one `sweep_analytic` benchmark op (perfbench/workloads.py).
    "sweep_analytic_me": (["sweep-me", "--d1", "5", "--d2", "5", "--grid", "13"], None),
    "sweep_analytic_multistage": (["sweep-multistage", "--d1", "4", "--d2", "4", "--grid", "9"], None),
    "sweep_multistage_rank8": (["sweep-multistage", "--d1", "8", "--d2", "8", "--grid", "14"], None),
    "sweep_me_rank8": (["sweep-me", "--d1", "8", "--d2", "8", "--grid", "12"], None),
    "sweep_sep": (["sweep-sep", "--xi-steps", "100000"], None),
    "sweep_multistage_margin": (
        ["sweep-multistage", "--d1", "5", "--d2", "6", "--grid", "20", "--margin", "1e-6"],
        None,
    ),
    "montecarlo_ms_me": (["montecarlo", *MILLION], {"state": RAMP, "strategy": MS_ME}),
    "qkd_ms_me": (["qkd", *MILLION], {"state": RAMP, "eve": {"kind": "intercept", "strategy": MS_ME}}),
    # The deepest Monte Carlo run admitted: 2**30 information terms, 2**24 counts.
    "montecarlo_deep": (
        ["montecarlo", "--trials", "4096", "--seed", "1"],
        {"state": ramp(64), "strategy": full_depth(64, "me")},
    ),
    # The largest eavesdropper's tree admitted: 203**3 cells.
    "qkd_intercept_rank203": (
        ["qkd", "--trials", "100000", "--seed", "1"],
        {
            "state": ramp(203),
            "eve": {"kind": "intercept", "strategy": full_depth(203, "abstain"), "fallback": "uniform"},
        },
    ),
}


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from densecode import cli

    if Path(cli.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"densecode came from {cli.__file__}, not from {ROOT / 'src'}")
    with tempfile.TemporaryDirectory() as tmp:
        out_dir, config_dir = Path(tmp, "out"), Path(tmp, "config")
        out_dir.mkdir()
        config_dir.mkdir()
        for name, (argv, config) in RUNS.items():
            if config is not None:
                path = config_dir / f"{name}.json"
                path.write_text(json.dumps(config))
                argv = [*argv, "--config", str(path)]
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main([*argv, "--out", str(out_dir / f"{name}.csv")]):
                    sys.exit(f"{name}: the run failed")
        for path in sorted(out_dir.iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")


if __name__ == "__main__":
    main()
