"""Benchmark entry point.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload long_words --seed 1 --seconds 45 --trace 0

--trace 0 measures the end-to-end metrics.  --trace 1 is a separate run that
gives the per-layer metrics: it times half of --seconds untraced and half
with spans around every call into a layer, then runs the probes that
measure the remaining layers.  Spans are written to
.perfbench_out/<workload>-seed<seed>-spans.json when the run ends.

The line before the last is a record of the run: environment, input digest,
error rate and any failed checks.  The last line is the result:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when a
result was printed, also when some checks failed; it is 2 when the package
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import clicmd  # noqa: E402  (needs the path above)
from perfbench.trace import NullTracer, Tracer  # noqa: E402

#: fresh-process set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: OpenBLAS threads for this process and its children.  On a small shared
#: machine a second BLAS thread makes the timings swing with the neighbours'
#: load, so every run uses one.
BLAS_THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("long_words", "dense_machine"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(loadavg) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(),
        "loadavg_at_start": loadavg,
    }


def setup_once(workload) -> float:
    """Import plus set-up time, as a probe in a fresh process reports it."""
    probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             workload.name, str(workload.seed)]
    code, stdout, _ = clicmd.timed_subprocess(probe, ROOT)
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return json.loads(stdout)["setup_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kilobytes on Linux


def end_to_end(workload, seconds, checks) -> tuple[dict, dict]:
    from perfbench.workloads import run_passes

    # set-ups run between the timed passes, spaced evenly over the run, so
    # that their median samples the machine over the whole run rather than
    # over its first seconds; a first, uncounted set-up warms the file cache
    setup_once(workload)
    setups: list[float] = []
    spacing = seconds / (SETUP_REPEATS + 1)
    next_setup = perf_counter() + spacing

    def set_up_between_passes():
        nonlocal next_setup
        if len(setups) < SETUP_REPEATS and perf_counter() >= next_setup:
            setups.append(setup_once(workload))
            next_setup += spacing

    workload.setup(NullTracer(), checks)
    workload.prepare(NullTracer(), checks)
    ops = workload.ops()
    loop = run_passes(ops, seconds, NullTracer(), checks, between=set_up_between_passes)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_once(workload))
    setup_s = statistics.median(setups)
    latencies = loop.group_latencies(ops)
    return {
        "setup_s": (setup_s, "s"),
        "words_per_s": (loop.words_per_s(), "words/s"),
        "steps_per_s": (loop.steps_per_pass / loop.pass_seconds, "steps/s"),
        "op_s_p50": (statistics.median(latencies), "s"),
        "op_s_max": (max(latencies), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, {"passes": len(loop.pass_s), "pass_s": loop.pass_s}


def per_layer(workload, seconds, checks) -> tuple[dict, dict]:
    from perfbench.workloads import WORK_DIR, run_passes

    probes, looped = Tracer(), Tracer()
    workload.setup(probes, checks)
    workload.prepare(probes, checks)
    ops = workload.ops()
    plain = run_passes(ops, seconds / 2, NullTracer(), checks)
    traced = run_passes(ops, seconds / 2, looped, checks)
    counts = workload.probes(probes, checks, traced)

    loop_self, probe_self = looped.self_times(), probes.self_times()
    passes = len(traced.pass_s)

    def per_pass(name):
        return sum(loop_self.get(name, ())) / passes + sum(probe_self.get(name, ()))

    def median(name):
        return statistics.median(loop_self.get(name) or probe_self[name])

    run_s = per_pass("core.run")
    metrics = {
        "core.run_s": (run_s, "s"),
        "core.steps": (counts["core.steps"], "count"),
        "core.step_us": (run_s / counts["core.steps"] * 1e6, "us"),
        "core.cells": (counts["core.cells"], "count"),
        "core.live": (counts["core.live"], "count"),
        "core.live_ratio": (counts["core.live_ratio"], "ratio"),
        "core.n2n_time_ratio": (counts["core.n2n_time_ratio"], "ratio"),
        "machines.build_s": (per_pass("machines.build"), "s"),
        "machines.states": (workload.states, "count"),
        "machine.validate_s": (per_pass("machine.validate"), "s"),
        "specfile.dumps_s": (per_pass("specfile.dumps"), "s"),
        "specfile.loads_s": (per_pass("specfile.loads"), "s"),
        "specfile.bytes": (workload.spec_bytes, "bytes"),
        "baselines.sweep_s": (per_pass("baselines.sweep_compare"), "s"),
        "baselines.oracle_s": (per_pass("baselines.membership"), "s"),
        "baselines.words": (counts["baselines.words"], "count"),
        "baselines.mismatches": (counts["baselines.mismatches"], "count"),
        "baselines.bound_violations": (counts["baselines.bound_violations"], "count"),
        "cli.validate_s": (median("cli.validate"), "s"),
        "cli.run_s": (median("cli.run"), "s"),
        "cli.sweep_s": (median("cli.sweep"), "s"),
        "cli.error_path_s": (median("cli.error_path"), "s"),
        "trace.overhead_ratio": (traced.words_per_s() / plain.words_per_s(), "ratio"),
    }
    spans = WORK_DIR / f"{workload.name}-seed{workload.seed}-spans.json"
    with open(spans, "w", encoding="utf-8") as handle:
        json.dump({"loop": looped.records(), "probes": probes.records()}, handle)
    return metrics, {
        "passes": passes,
        "untraced_words_per_s": plain.words_per_s(),
        "traced_words_per_s": traced.words_per_s(),
        "spans_file": str(spans.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twoqfa" / "__init__.py").is_file():
        print(f"no twoqfa sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    # imports numpy and twoqfa, so it comes after the check and the setting
    from perfbench.workloads import WORK_DIR, WORKLOADS, Checks

    WORK_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    checks = Checks()
    measure = per_layer if args.trace else end_to_end
    metrics, details = measure(workload, args.seconds, checks)
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": args.trace,
        "input_digest": workload.digest,
        "error_rate": checks.failed / checks.attempted,
        "problems": checks.problems,
        "environment": environment(loadavg),
        **details,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
