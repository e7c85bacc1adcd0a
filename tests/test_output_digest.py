"""tools/output_digest.py names only runs the CLI accepts (every argv parses and
every config passes the CLI's own checks), and prints the pinned digests at any
BLAS thread count."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from densecode import cli

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_digest_run_parses():
    runs = _tool().RUNS
    assert len(runs) == 10
    for name, (argv, config) in runs.items():
        args = cli._build_parser().parse_args([*argv, "--out", f"{name}.csv"])
        assert args.command == argv[0]
        if config is not None:
            cli._check_keys(config, cli._CONFIG_KEYS, "config")
            cli._parse_state(config["state"])
            if "strategy" in config:
                cli._parse_strategy(config["strategy"])
            else:
                cli._parse_eve(config["eve"])


#: What the tool printed when the digests were pinned, on numpy 2.4.6 with OpenBLAS 0.3.31. They change only
#: with a declared output change, in a commit that touches nothing else, as the goldens do.
PINNED = ROOT / "tests" / "golden" / "output_digest.txt"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_digests_match_the_pinned_file_at_any_blas_thread_count(threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py")], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == PINNED.read_text(), "pinned on numpy 2.4.6 with OpenBLAS 0.3.31"
