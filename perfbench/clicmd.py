"""Running ``python -m twoqfa.cli`` as a subprocess and checking its output.

The package's console script is not assumed to be installed; every command
runs the CLI module with the checkout's ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: key order of the structured records, as the CLI documents it
VALIDATE_KEYS = (
    "machine", "N", "all_ok", "tolerance",
    "unitarity_ok", "unitarity_max_deviation",
    "local_probability_ok", "local_probability_max_deviation",
    "separability1_ok", "separability1_max_deviation",
    "separability2_ok", "separability2_max_deviation",
    "padded_entries",
)
RUN_KEYS = ("machine", "N", "word", "p_accept", "p_reject", "p_residual", "steps", "halted")
RECIPE_KEYS = RUN_KEYS + ("verdict", "descriptor")
SWEEP_KEYS = (
    "language", "machine", "N", "max_len", "total_words", "mismatch_count",
    "mismatches", "bound_checked", "bound_violations",
)

TOLERANCE = 1e-12
COMMAND_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def timed_subprocess(argv: list[str], cwd: Path) -> tuple[int, str, float]:
    """Run argv to completion; returns exit code, stdout and wall seconds."""
    start = perf_counter()
    proc = subprocess.run(
        argv, cwd=cwd, env=child_env(), capture_output=True, text=True,
        timeout=COMMAND_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, perf_counter() - start


def run_cli(args, cwd: Path) -> tuple[int, str, float]:
    return timed_subprocess([sys.executable, "-m", "twoqfa.cli", *args], cwd)


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse one JSON record, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_csv_record(text: str) -> dict:
    """The header and value rows of ``run --format csv`` as one record."""
    header, values = list(csv.reader(io.StringIO(text)))
    record = {}
    for key, value in zip(header, values):
        if key in ("N", "steps"):
            record[key] = int(value)
        elif key == "halted":
            if value not in ("True", "False"):
                raise ValueError(f"halted is {value!r}")
            record[key] = value == "True"
        elif key.startswith("p_"):
            record[key] = float(value)
        else:
            record[key] = value
    return record


def differences(got, want, where: str = "") -> list[str]:
    """Where `got` differs from `want`: key order, types, numbers beyond 1e-12."""
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)):
        if isinstance(got, (int, float)) and abs(got - want) <= TOLERANCE:
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            keys = list(got) if isinstance(got, dict) else got
            return [f"{where}: keys {keys!r} != {list(want)!r}"]
        out = []
        for key in want:
            out += differences(got[key], want[key], f"{where}.{key}")
        return out
    if isinstance(want, (list, tuple)):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        out = []
        for index, (g, w) in enumerate(zip(got, want)):
            out += differences(g, w, f"{where}[{index}]")
        return out
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def check_output(code: int, stdout: str, want_code: int, want,
                 fmt: str = "structured") -> list[str]:
    """Problems with one command's exit code and output; `want` is the record."""
    problems = [] if code == want_code else [f"exit code {code}, expected {want_code}"]
    if want is None or problems:
        return problems
    try:
        got = parse_csv_record(stdout) if fmt == "csv" else strict_json(stdout)
    except ValueError as exc:
        return [f"unparseable output: {exc}"]
    return differences(got, want)
