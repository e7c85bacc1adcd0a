"""tools/output_digest.py names only runs the CLI accepts: every argv parses and
every config passes the CLI's own checks, without running anything."""

import importlib.util
from pathlib import Path

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
