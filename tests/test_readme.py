"""README.md holds to the code: its quick tour and example config run as written, and each of its tables (flags,
config objects, config keys, limits, CSV columns, tolerances) and every backticked `module.name` or `path:name`
reference matches what it names."""

import ast
import importlib
import json
import math
import pkgutil
import re
from pathlib import Path

import pytest

import densecode
from densecode import cli

ROOT = Path(__file__).resolve().parent.parent
TEXT = (ROOT / "README.md").read_text()
#: The README's prose and tables: everything outside its fenced blocks.
PROSE = re.sub(r"^```.*?^```$", "", TEXT, flags=re.M | re.S)


def _block(lang: str) -> str:
    """The first fenced block of `lang` in the README."""
    return re.search(rf"^```{lang}\n(.*?)^```$", TEXT, flags=re.M | re.S).group(1)


def _table(first: str) -> list:
    """The body rows, as lists of cells, of the README table whose header row starts with `first`."""
    lines = TEXT.splitlines()
    start = lines.index(next(line for line in lines if line.startswith(f"| {first} |")))
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip() for cell in line.strip("|").split(" | ")])
    return rows


def _ticks(text: str) -> list:
    return re.findall(r"`([^`]+)`", text)


def _sentence(opening: str) -> str:
    """The README sentence that starts with `opening`, on one line."""
    flat = " ".join(PROSE.split())
    start = flat.index(opening)
    return flat[start : flat.index(". ", start)]


#: Each quick-tour line that states a value: its expression, what its comment states, and a check of the value.
TOUR = [
    ("dc.mutual_info_me(s).total_bits", "1.531004...", lambda v, ns: math.floor(v * 1e6) == 1531004),
    ("rep.total_bits", "1.4", lambda v, ns: v == pytest.approx(1.4)),
    ("rep.branch_probabilities", "(0.4,)", lambda v, ns: v == pytest.approx((0.4,))),
    ("rep.stage_success_bits", "(2.0,)", lambda v, ns: v == pytest.approx((2.0,))),
    (
        "dc.mutual_info_multistage(s3, plan).stage_success_bits",
        "(log2 12, 7/3)",
        lambda v, ns: v == pytest.approx((math.log2(12), 7 / 3)),
    ),
    (
        "report.empirical_mutual_info_bits",
        "1.4 up to sampling noise",
        lambda v, ns: abs(v - 1.4) <= cli._MI_BOUND_BITS,
    ),
    ("report.tree.info_bits(s.d2)", "1.4", lambda v, ns: v == pytest.approx(1.4)),
    (
        "run.sifted_error_rate",
        "within 3 sigma of dc.analytic_qkd_error(s.coeffs, eve)",
        lambda v, ns: abs(v - (p := densecode.analytic_qkd_error(ns["s"].coeffs, ns["eve"])))
        <= 3 * math.sqrt(p * (1 - p) / ns["run"].kept),
    ),
]


def test_quick_tour_runs_and_gives_the_values_its_comments_state():
    code = _block("python")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    comments = {}
    for line in code.splitlines():
        expression, _, comment = line.partition("#")
        comments[expression.strip()] = comment.strip()
    for expression, stated, check in TOUR:
        assert comments[expression].startswith(stated), expression
        assert check(eval(expression, namespace), namespace), expression


@pytest.mark.parametrize("command", ["montecarlo", "qkd"])
def test_example_config_runs(command, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(_block("json"))
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / f"{command}.csv")]) == 0


def _readers(cell: str) -> set:
    return set(cli._COMMANDS) if cell == "every command" else set(_ticks(cell))


def test_flag_table_matches_the_parser():
    rows = _table("flag")
    assert {_ticks(row[0])[0].split()[0] for row in rows} == set(cli._FLAGS)
    for flag_cell, key_cell, readers, _ in rows:
        flag = _ticks(flag_cell)[0].split()[0]
        assert _readers(readers) == set(cli._FLAGS[flag][1]), flag
        key = flag[2:].replace("-", "_")
        assert (_ticks(key_cell) == [key]) == (key in cli._CONFIG_KEYS), flag


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """Per command: the defaults it passed to cli._setting and the header of the CSV it wrote, run without flags
    or config; and the key sets of the JSON reports."""
    tmp, runs = tmp_path_factory.mktemp("defaults"), {}
    setting = cli._setting
    for command in cli._COMMANDS:
        defaults = {}

        def recording(args, config, key, default, defaults=defaults):
            defaults[key] = default
            return setting(args, config, key, default)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_setting", recording)
            out = tmp / f"{command}.csv"
            assert cli.main([command, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        report = json.loads(out.with_suffix(".json").read_text()) if command in cli._RUNS else None
        runs[command] = defaults, header, report
    return runs


def test_flag_defaults_are_the_ones_the_commands_use(default_runs):
    for flag_cell, key_cell, readers, default in _table("flag"):
        if _ticks(key_cell) in ([], ["out"]):
            continue
        (key,) = _ticks(key_cell)
        per_command = {cmd: value for value, cmd in re.findall(r"(\S+) \(`([\w-]+)`\)", default)}
        for command in _readers(readers):
            stated = per_command.get(command, default)
            assert default_runs[command][0][key] == float(stated), (key, command)


def test_default_config_objects_are_the_ones_the_runs_read(default_runs):
    objects = [tick for tick in _ticks(_sentence("`sweep-sep`, `montecarlo` and `qkd` read")) if tick.startswith("{")]
    state, strategy, eve = map(json.loads, objects)
    for command in cli._RUNS:
        assert default_runs[command][2]["state"] == cli._parse_state(state).to_dict(), command
    assert default_runs["montecarlo"][2]["strategy"] == cli._parse_strategy(strategy).describe()
    assert default_runs["qkd"][2]["eve"] == cli._parse_eve(eve).describe()


def test_config_key_list_matches_the_parser():
    assert set(_ticks(_sentence("It may hold only these keys:"))) == cli._CONFIG_KEYS


def test_config_object_table_matches_the_parsers(monkeypatch):
    allowed = {}
    check_keys = cli._check_keys

    def recording(obj, keys, where):
        allowed[where] = set(keys)
        check_keys(obj, keys, where)

    monkeypatch.setattr(cli, "_check_keys", recording)
    cli._parse_state({"d1": 2, "d2": 2, "coeffs": [0.6, 0.8]})
    cli._parse_strategy({"kind": "multistage", "stages": [{"xi": 1.0}]})
    rows = _table("object")
    kinds = {(key, kind) for key, (_, table) in cli._KINDS.items() for kind in table}
    assert {tuple(_ticks(row[0])) for row in rows} == {("state",)} | kinds
    for names, keys in rows:
        own, _, stage = keys.partition(";")
        if _ticks(names) == ["state"]:
            assert set(_ticks(own)) == allowed["state"]
            continue
        key, kind = _ticks(names)
        assert set(_ticks(own)) == {"kind", *cli._KINDS[key][1][kind]}, kind
        assert set(_ticks(stage)) == (allowed["stage"] if stage else set()), kind


def _run_config(d2: int, coeffs: list, eve=None) -> dict:
    config = {"state": {"d1": len(coeffs), "d2": d2, "coeffs": coeffs, "squared": True}}
    return config if eve is None else config | {"eve": eve}


_FULL_DEPTH = {"kind": "multistage", "stages": [{"xi": 1.0}] * 255, "final": "abstain"}
#: Per limit, by the opening words of its refusal: a command line it refuses and the config it reads.
LIMITS = {
    "seed": (["qkd", "--seed", "-1"], None),
    "trial count": (["qkd", "--trials", "0"], None),
    "sweep of R": (["sweep-multistage", "--d1", "8", "--d2", "8", "--grid", "16"], None),
    "sweep of more": (["sweep-me", "--d1", "300000", "--d2", "300000", "--grid", "300000", "--margin", "1e-9"], None),
    "boundary margin must be positive": (["sweep-me", "--margin", "nan"], None),
    "boundary margin must be at least": (["sweep-me", "--margin", "1e-30"], None),
    "run of": (["montecarlo"], _run_config(100000, [0.36, 0.64])),
    "branch tree": (["qkd"], _run_config(256, [1 / 256] * 256, {"kind": "intercept", "strategy": _FULL_DEPTH})),
}


def test_limit_table_states_each_limit_and_its_refusal(tmp_path, capsys):
    rows = _table("limit")
    assert len(rows) == len(LIMITS)
    for limit, _, refusal in rows:
        for constant, value in re.findall(r"`(\w+\.[A-Z_]+)` = ([\d^]+)", limit):
            module, name = constant.split(".")
            assert getattr(importlib.import_module(f"densecode.{module}"), name) == eval(value.replace("^", "**"))
        (message,) = _ticks(refusal)
        argv, config = next(case for opening, case in LIMITS.items() if message.startswith(opening))
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(tmp_path / "config.json")]
        assert cli.main([*argv, "--out", str(tmp_path / "never.csv")]) == 1
        # Single capital letters stand for the numbers of the run at hand.
        pattern = " ".join(r"\S+" if word in set("SNRDTC") else re.escape(word) for word in message.split(" "))
        assert re.fullmatch(f"error: {pattern}\n", capsys.readouterr().err), message


def test_csv_and_json_schemas_match_what_the_commands_write(default_runs):
    for command_cell, columns in _table("command"):
        (command,) = _ticks(command_cell)
        names = _ticks(columns)
        if names[:2] == ["a0", "a{D-2}"]:
            # The default state has rank 3: columns a0 and a1.
            names = ["a0", "a1", *names[2:]]
        assert default_runs[command][1] == names, command
    shared = _sentence("The JSON reports hold")
    assert _ticks(shared) == ["seed", "state", "d1", "d2", "coeffs"]
    for command in cli._RUNS:
        added = [name for name in _ticks(_sentence(f"`{command}` adds"))[1:] if re.fullmatch(r"[a-z_0-9]{2,}", name)]
        report = default_runs[command][2]
        assert set(report) == {"seed", "state", *added}, command
        assert set(report["state"]) == {"d1", "d2", "coeffs"}


def test_tolerance_table_matches_the_constants():
    rows = _table("Name")
    assert len(rows) == 7
    for name, module, value, *_ in rows:
        (name,), (module,) = _ticks(name), _ticks(module)
        assert getattr(importlib.import_module(f"densecode.{module}"), name) == eval(value), name


def _top_level_names(path: Path) -> set:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


#: File name extensions: `qkd.csv` names a file, not the name csv in module qkd.
FILE_EXTENSIONS = {"csv", "json", "md", "py", "toml", "txt"}
MODULES = {"densecode", *(module.name for module in pkgutil.iter_modules(densecode.__path__))}


def test_every_module_and_path_reference_resolves():
    checked = 0
    for token in _ticks(PROSE):
        dotted = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", token)
        if ":" in token and token.split(":")[0].endswith(".py"):
            path, name = token.split(":")
            assert name in _top_level_names(ROOT / path), token
        elif re.fullmatch(r"[\w.]*/[\w./]*", token):
            assert (ROOT / token).exists(), token
        elif dotted and dotted[0].split(".")[0] in MODULES and dotted[0].rsplit(".", 1)[1] not in FILE_EXTENSIONS:
            module, *names = dotted[0].removeprefix("densecode.").split(".")
            obj = importlib.import_module(f"densecode.{module}")
            for name in names:
                obj = getattr(obj, name)
        else:
            continue
        checked += 1
    assert checked >= 30
