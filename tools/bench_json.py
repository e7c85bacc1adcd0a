"""Summarise paired perfbench runs of a parent commit and a change into one
BENCH_<n>.json.

    python3 tools/bench_json.py RUN_DIR PARENT_SHA CHANGE_SHA OUT

RUN_DIR holds the standard output of each `perfbench/run.py` run, one file
per run, named `parent_<...>.txt` or `change_<...>.txt` (for example
`parent_<workload>_<seed>.txt`); runs of both sides with the same workload,
seed and `--trace` value form a pair. A run without its pair stops the tool
with a message that names its file, and so do the runs of a side whose runs
come from more than one source digest (`src_sha256`): their medians would mix
two programs. The record's `run_seconds` is the `--seconds` that every run
states in its provenance; runs of more than one length stop the tool, naming
their files. Per workload and side the summary gives every end-to-end metric
of BENCHMARK.json as median and quartiles over the `--trace 0` runs; per
metric, the number of pairs the change won (ties count for neither side),
`rel_change`, the change's median over the parent's less 1 (null when the
parent's median is 0), `pair_rel_change`, each pair's change run over its
parent run less 1, in seed order (null where the parent run is 0), which
shows how consistent a change was from pair to pair, and `resolved`: false
when the parent's quartile spread exceeds the metric's bound times the
parent's median and not every change run beats every parent run, so that
neither a gain nor a regression within that spread can be told from noise.
Pairs of `--trace 1` runs go under `traced`: per workload and side the median
of each per-layer metric, which shows the layer a change of time comes from.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _by_workload(runs: dict, traced: bool) -> list:
    """(workload, seeds, pairs) per workload, in order, of the pairs with this `--trace` value."""
    grouped = defaultdict(list)
    for (workload, seed, is_traced), sides in sorted(runs.items()):
        if is_traced == traced:
            grouped[workload].append((seed, sides))
    return [(w, [seed for seed, _ in pairs], [sides for _, sides in pairs]) for w, pairs in grouped.items()]


def main(run_dir: str, parent_sha: str, change_sha: str, out: str) -> None:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = defaultdict(dict)  # (workload, seed, traced) -> side -> (provenance, result, file name)
    for path in sorted(Path(run_dir).glob("*.txt")):
        side = path.name.split("_", 1)[0]
        if side not in ("parent", "change"):
            sys.exit(f"{path}: not named parent_* or change_*")
        lines = path.read_text().strip().splitlines()
        if len(lines) < 2:
            sys.exit(f"{path}: no result lines; the run did not finish")
        head, result = lines[-2:]
        provenance = json.loads(head)["provenance"]
        sides = runs[(provenance["workload"], provenance["seed"], bool(provenance.get("trace")))]
        if side in sides:
            sys.exit(f"{path}: a second {side} run of {provenance['workload']} seed {provenance['seed']}")
        sides[side] = (provenance, json.loads(result), path.name)
    if not runs:
        sys.exit(f"{run_dir}: no run files")
    unpaired = sorted(run[2] for sides in runs.values() if len(sides) < 2 for run in sides.values())
    if unpaired:
        sys.exit(f"unpaired run files, each needs the other side's run of its workload and seed: {', '.join(unpaired)}")
    for side in ("parent", "change"):
        digests = defaultdict(list)
        for sides in runs.values():
            digests[sides[side][0]["src_sha256"]].append(sides[side][2])
        if len(digests) > 1:
            listed = "; ".join(f"{sha}: {', '.join(names)}" for sha, names in sorted(digests.items()))
            sys.exit(f"{side} runs come from more than one source digest, so they measure different programs: {listed}")
    lengths = defaultdict(list)
    for sides in runs.values():
        for provenance, _, name in sides.values():
            lengths[provenance["seconds"]].append(name)
    if len(lengths) > 1:
        listed = "; ".join(f"{seconds} s: {', '.join(sorted(names))}" for seconds, names in sorted(lengths.items()))
        sys.exit(f"runs of more than one length cannot be summarised as one record: {listed}")
    workloads = {}
    env = {}
    for workload, seeds, pairs in _by_workload(runs, traced=False):
        summary = {"pairs": len(pairs), "seeds": seeds}
        for side in ("parent", "change"):
            results = [sides[side][1] for sides in pairs]
            summary[side] = {
                "src_sha256": sorted({sides[side][0]["src_sha256"] for sides in pairs}),
                "failed": sum(r["failed"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                **{m["name"]: _quartiles([r["metrics"][m["name"]]["value"] for r in results]) for m in metrics},
            }
            env = {k: pairs[0][side][0][k] for k in ("python", "numpy", "cpu_count", "blas_threads")}
        wins, resolved, pair_rel = {}, {}, {}
        for m in metrics:
            sign = 1 if m["better"] == "lower" else -1
            values = [(s["parent"][1]["metrics"][m["name"]]["value"], s["change"][1]["metrics"][m["name"]]["value"]) for s in pairs]
            wins[m["name"]] = sum(sign * (p - c) > 0 for p, c in values)
            pair_rel[m["name"]] = [c / p - 1 if p else None for p, c in values]
            parent = summary["parent"][m["name"]]
            wide = parent["q3"] - parent["q1"] > m["bound"] * abs(parent["median"])
            resolved[m["name"]] = not wide or min(sign * p for p, _ in values) > max(sign * c for _, c in values)
        summary["change_wins"] = wins
        summary["resolved"] = resolved
        medians = [(summary["parent"][m["name"]]["median"], summary["change"][m["name"]]["median"]) for m in metrics]
        summary["rel_change"] = {m["name"]: c / p - 1 if p else None for m, (p, c) in zip(metrics, medians)}
        summary["pair_rel_change"] = pair_rel
        workloads[workload] = summary
    traced = {}
    for workload, seeds, pairs in _by_workload(runs, traced=True):
        traced[workload] = {"pairs": len(pairs), "seeds": seeds}
        for side in ("parent", "change"):
            results = [sides[side][1]["metrics"] for sides in pairs]
            traced[workload][side] = {name: statistics.median(r[name]["value"] for r in results) for name in results[0]}
    doc = {
        "parent_sha": parent_sha,
        "change_sha": change_sha,
        **env,
        "run_seconds": next(iter(lengths)),
        "units": {m["name"]: m["unit"] for m in metrics},
        "workloads": workloads,
        **({"traced": traced} if traced else {}),
    }
    Path(out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    main(*sys.argv[1:])
