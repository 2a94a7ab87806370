"""One set-up of an in-process workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints {"setup_s": ...}: the time to import twoqfa plus the time the
workload's set-up (build or load its machines, validate each once) takes.
Generating the seeded inputs in between is not counted.  numpy and twoqfa
must not be imported before the timed import below.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    start = perf_counter()
    import twoqfa  # noqa: F401  (the import is what is timed)

    imported = perf_counter() - start

    from perfbench.trace import NullTracer
    from perfbench.workloads import WORKLOADS, Checks

    workload = WORKLOADS[name](seed)
    checks = Checks()
    start = perf_counter()
    workload.setup(NullTracer(), checks)
    built = perf_counter() - start
    if checks.failed:
        print("; ".join(checks.problems), file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": imported + built}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
