"""Times one set-up in a fresh interpreter and prints it in seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py starts this a few times per run, one after another, so that set-up
time is a median rather than one sample.
"""

import os
import shutil
import sys
import time

import run

_T0 = time.perf_counter()


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    run.pin_threads()
    out_dir = run.ROOT / ".bench_out" / f"probe-{name}-{os.getpid()}"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        run.set_up(name, seed, out_dir)
        print(time.perf_counter() - _T0)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
