"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload runs and passes its checks, that the metrics
match the names and units in BENCHMARK.json, that traced self shares sum to
one, and that a corrupted closed-form reference makes ops fail, so the
checks can fail. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

#: Self shares leave out only the harness code between the clock and the call.
SHARE_TOL = 0.05
SECONDS = 0.2


def tiny(workloads, name: str, out_dir: str):
    seed = 7
    if name == "mc_multistage":
        return workloads.McWorkload(seed, 4, (1.0, 1.0, 1.0), 20_000, 2, fresh_state=False)
    if name == "qkd_intercept":
        return workloads.QkdWorkload(seed, 4, (1.0, 1.0), 20_000, 2)
    if name == "compile_wide":
        return workloads.McWorkload(seed, 6, (1.0, 1.0), 4096, 2, fresh_state=True, units_per_op=36)
    return workloads.SweepWorkload(out_dir, 3, 6, 3, 5, 2)


def _shifted(reference):
    def corrupted(*args):
        return {key: value + 0.05 for key, value in reference(*args).items()}

    return corrupted


def main() -> int:
    run.pin_threads()
    out_dir = run.ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _self_test(str(out_dir))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _self_test(out_dir: str) -> int:
    workloads, _ = run.load_workloads()
    import densecode

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e_units, layer_units = run.metric_units()
    problems = []
    if declared_e2e != e2e_units:
        problems.append(f"end_to_end in BENCHMARK.json {declared_e2e} != emitted {e2e_units}")
    if declared_layer != layer_units:
        problems.append(f"per_layer in BENCHMARK.json {declared_layer} != emitted {layer_units}")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from run.WORKLOADS")

    for name in run.WORKLOADS:
        for trace in (False, True):
            workload = tiny(workloads, name, out_dir)
            tracer = run.LayerTracer(densecode) if trace else None
            record = run.measure(workload, workload.prepare(0)(), SECONDS, tracer)
            if trace:
                values = run.per_layer_metrics(record, tracer, 0.0)
                line = run.result(record, values, layer_units)
                total = sum(values[f"{layer}.self_share"] for layer in run.LAYERS)
                if abs(total - 1.0) > SHARE_TOL:
                    problems.append(f"{name}: traced self shares sum to {total:.4f}")
            else:
                values = run.end_to_end_metrics(workload, record, [1.0])
                line = run.result(record, values, e2e_units)
            if line["failed"] or not line["correct"]:
                problems.append(f"{name} trace={trace}: {line['failed']} failed ops: {record.errors[:2]}")
            if sorted(line["metrics"]) != sorted(values) or any(
                not isinstance(m["value"], float) for m in line["metrics"].values()
            ):
                problems.append(f"{name} trace={trace}: metrics {sorted(values)} not all emitted")
            print(f"{name:15s} trace={int(trace)} ops={line['attempted']} failed={line['failed']}")

    references = ("mc_reference", "qkd_reference", "sweep_reference")
    originals = {ref: getattr(workloads, ref) for ref in references}
    try:
        for ref in references:
            setattr(workloads, ref, _shifted(originals[ref]))
        for name in run.WORKLOADS:
            workload = tiny(workloads, name, out_dir)
            record = run.measure(workload, workload.prepare(0)(), SECONDS)
            ratio = len(record.failed) / record.attempted
            print(f"{name:15s} corrupted reference: fail_ratio={ratio:.3f}")
            if ratio == 0.0:
                problems.append(f"{name}: a corrupted reference did not fail any op")
    finally:
        for ref, original in originals.items():
            setattr(workloads, ref, original)

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
