"""densecode benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload mc_multistage --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Each timed op is bracketed by the fixed
reference kernel (refkernel.py), half right before and half right after,
and gated op times are reported in units of that kernel's time, so host
speed drift cancels. With --trace 1, every other op runs with the layer
tracer installed (tracer.py) and the run reports per-layer metrics instead
of the end-to-end ones. Every op's output is checked against the closed
form outside the timed window.

Standard output ends with two JSON lines: provenance and diagnostics, then
the result {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYERS, LayerTracer

# Set-up time counts from here: before numpy or densecode is imported.
_T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("mc_multistage", "qkd_intercept", "compile_wide", "sweep_analytic")
#: Set-up is timed in this process and in this many fresh interpreters,
#: half before the timed loop and half after it, so the samples span the
#: run's speed drift; `setup_s` is the median of them all.
SETUP_PROBES = 6
#: The tail is the highest percentile with ten samples beyond it.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1

END_TO_END = {
    "setup_s": "s",
    "op_rel.p50": "ref",
    "op_rel.tail": "ref",
    "units_per_ref_s": "units/ref",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {"self_share": "fraction", "calls": "calls/op"}
LAYER_EXTRAS = {
    "tensor_core.dense_mib": "MiB/op",
    "qkd.kept_ratio": "fraction",
    "cli.bytes_written": "B/op",
    "trace.overhead": "fraction",
    "raw.op_s.p50": "s",
    "raw.ref_s.p50": "s",
    "raw.import_s": "s",
}


class SetupError(RuntimeError):
    """The checkout does not hold the program to benchmark."""


def pin_threads() -> None:
    """Single-threaded BLAS and library defaults; call before numpy loads."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["MKL_NUM_THREADS"] = "1"
    os.environ.pop("DENSECODE_THREADS", None)


def load_workloads():
    """Import the workloads module, and with it numpy and densecode from this
    checkout's sources. Returns (module, import seconds)."""
    package = ROOT / "src" / "densecode"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no densecode sources at {package}")
    sys.path.insert(0, str(package.parent))
    start = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - start
    import densecode

    if Path(densecode.__file__).resolve().parent != package.resolve():
        raise SetupError(f"densecode was imported from {densecode.__file__}, not {package}")
    return workloads, import_s


def set_up(name: str, seed: int, out_dir: Path):
    """Import, build the workload and run its untimed warm-up op: all a user
    pays before the first timed op. Returns (workload, warm-up result,
    import seconds)."""
    workloads, import_s = load_workloads()
    workload = workloads.make(name, seed, str(out_dir))
    return workload, workload.prepare(0)(), import_s


def probe_set_up(name: str, seed: int, count: int) -> list:
    """Set-up seconds of `count` fresh interpreters, one after another."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=150,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


class Record:
    """Timings, checks and counters of one run's ops."""

    def __init__(self):
        self.samples = []  # (op seconds, reference seconds, traced)
        self.attempted = 0
        self.failed = set()
        self.errors = []
        self.counters = {}
        self.fingerprints = {}

    def fail(self, index: int, message: str) -> None:
        self.failed.add(index)
        if len(self.errors) < 20:
            self.errors.append(f"op {index}: {message}")

    def check(self, workload, index: int, result) -> None:
        """Closed-form and determinism checks of one op, outside the timing."""
        try:
            outcome = workload.check(index, result)
        except Exception:  # a check that crashes is a failed op, not a dead run
            self.fail(index, traceback.format_exc(limit=3))
            return
        for message in outcome.errors:
            self.fail(index, message)
        key = workload.input_key(index)
        seen = self.fingerprints.setdefault(key, outcome.fingerprint)
        if seen != outcome.fingerprint:
            self.fail(index, "output differs from an earlier op with the same inputs")
        for name, value in outcome.counters.items():
            self.counters.setdefault(name, []).append(value)


def measure(workload, warm_result, seconds: float, tracer=None) -> Record:
    """Closed loop over ops 1, 2, ... for `seconds`. Half the reference
    kernel runs right before each op and half right after, so drift on
    either side of the op shows in its reference time. With a tracer, odd
    ops run traced. The warm-up result (op 0) is checked first, and op 1 is
    repeated once at the end: the same seed must give the same output."""
    from refkernel import reference_kernel

    half = workload.ref_reps // 2
    record = Record()
    record.attempted = 1
    record.check(workload, 0, warm_result)
    deadline = time.perf_counter() + seconds
    index = 1
    while index <= MIN_OPS or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 1
        record.attempted += 1
        op = workload.prepare(index)
        start = time.perf_counter()
        reference_kernel(half)
        ref_s = time.perf_counter() - start
        if traced:
            tracer.install()
        try:
            start = time.perf_counter()
            result = op()
            op_s = time.perf_counter() - start
        except Exception:  # counted as a failed op; the run goes on
            record.fail(index, traceback.format_exc(limit=3))
            index += 1
            continue
        finally:
            if traced:
                tracer.uninstall()
        start = time.perf_counter()
        reference_kernel(half)
        ref_s += time.perf_counter() - start
        record.samples.append((op_s, ref_s, traced))
        record.check(workload, index, result)
        index += 1
    try:
        record.check(workload, 1, workload.prepare(1)())
    except Exception:
        record.fail(1, traceback.format_exc(limit=3))
    return record


def _tail(values: list) -> float:
    ordered = sorted(values)
    return ordered[max(len(ordered) - 1 - TAIL_BEYOND, 0)]


def end_to_end_metrics(workload, record: Record, setup: list) -> dict:
    rel = [op / ref for op, ref, _ in record.samples]
    return {
        "setup_s": statistics.median(setup),
        "op_rel.p50": statistics.median(rel),
        "op_rel.tail": _tail(rel),
        "units_per_ref_s": workload.units_per_op * len(rel) / sum(rel),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def per_layer_metrics(record: Record, tracer, import_s: float) -> dict:
    traced = [(op, ref) for op, ref, t in record.samples if t]
    plain = [(op, ref) for op, ref, t in record.samples if not t]
    wall = sum(op for op, _ in traced)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = tracer.self_s[layer] / wall
        metrics[f"{layer}.calls"] = tracer.calls[layer] / len(traced)
    metrics["tensor_core.dense_mib"] = tracer.dense_bytes / 2**20 / len(traced)
    for name in ("qkd.kept_ratio", "cli.bytes_written"):
        metrics[name] = statistics.fmean(record.counters.get(name, [0.0]))
    traced_rel = statistics.median(op / ref for op, ref in traced)
    metrics["trace.overhead"] = traced_rel / statistics.median(op / ref for op, ref in plain) - 1.0
    metrics["raw.op_s.p50"] = statistics.median(op for op, _ in plain)
    metrics["raw.ref_s.p50"] = statistics.median(ref for _, ref in plain)
    metrics["raw.import_s"] = import_s
    return metrics


def result(record: Record, values: dict, units: dict) -> dict:
    """The result line: every metric named in `units`, with its unit."""
    return {
        "correct": not record.failed,
        "attempted": record.attempted,
        "failed": len(record.failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def metric_units() -> tuple:
    """(end-to-end units, per-layer units) by metric name."""
    per_layer = {f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in LAYER_UNITS.items()}
    per_layer.update(LAYER_EXTRAS)
    return dict(END_TO_END), per_layer


def source_digest() -> str:
    """SHA-256 over the paths and bytes of the measured sources; names the
    code where a checkout has no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "densecode").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, workload) -> dict:
    import densecode
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=ROOT,
            env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "densecode": densecode.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    pin_threads()
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        workload, warm, import_s = set_up(args.workload, args.seed, out_dir)
        setup = [time.perf_counter() - _T0]
        setup += probe_set_up(args.workload, args.seed, SETUP_PROBES // 2)
        tracer = None
        if args.trace:
            import densecode

            tracer = LayerTracer(densecode)
        record = measure(workload, warm, args.seconds, tracer)
        setup += probe_set_up(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
    except (SetupError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()  # only when no other run is using it

    e2e_units, layer_units = metric_units()
    if args.trace:
        values, units = per_layer_metrics(record, tracer, import_s), layer_units
    else:
        values, units = end_to_end_metrics(workload, record, setup), e2e_units
    plain = [(op, ref) for op, ref, t in record.samples if not t]
    diagnostics = {
        "samples": len(record.samples),
        "fail_ratio": len(record.failed) / record.attempted,
        "tail_percentile": 100.0 * (len(record.samples) - TAIL_BEYOND) / len(record.samples),
        "raw.op_s.p50": statistics.median(op for op, _ in plain),
        "raw.ref_s.p50": statistics.median(ref for _, ref in plain),
        "raw.import_s": import_s,
        "setup_samples_s": setup,
        "errors": record.errors,
    }
    print(json.dumps({"provenance": provenance(args, workload), "diagnostics": diagnostics}))
    print(json.dumps(result(record, values, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
