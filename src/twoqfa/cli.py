"""Command-line interface.

Subcommands: validate, run, sweep, transcribe, qft.  Machines are selected
by built-in name (m1, m2, m3) or by path to a machine text file; the path
adapters (--n-paths, at most 100) apply only to the built-in split machines;
qft takes --n up to 1000, and larger values are usage errors.  End-markers
are never typed by the user; words are wrapped internally.  For the
parenthesis alphabet the aliases "o" and "c" are accepted to ease shell
quoting.

Exit status: 0 on success, 1 when validation fails, 2 on usage errors
(including bad words, malformed machine files and malformed recipes) and
when ``run`` or ``sweep`` runs out of memory, with a one-line message that
names the machine's states and the tape cells.
Structured output is one JSON record per line with a fixed key order, so
parsing a record and re-emitting it is byte-identical.  A float that is not
finite (a probability or deviation overflowed by a machine far from
unitary) is written as null, so every record is strict JSON.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import click

from .baselines import LanguageId, sweep_compare
from .chem import Recipe, parse_recipe, signature, transcribe
from .core import DEFAULT_HALT_THRESHOLD, RunResult, run
from .errors import RecipeError, SpecFormatError
from .machine import TwoWayQfaSpec, validate
from .machines import BUILT_IN, MAX_N_PATHS, MAX_QFT_N, build, qft_matrix
from .specfile import load_spec, save_spec

_FORMATS = click.Choice(["human", "structured", "csv"])
_REPORT_FORMATS = click.Choice(["human", "structured"])

#: (human label, WellFormednessReport field prefix) of each well-formedness check
_CHECKS = (
    ("per-symbol unitarity", "unitarity"),
    ("local probability", "local_probability"),
    ("separability (shifted overlap)", "separability1"),
    ("separability (double shift)", "separability2"),
)


def _load_machine(machine: str, n_paths: int | None) -> TwoWayQfaSpec:
    if machine in BUILT_IN:
        try:
            return build(machine, n_paths)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
    path = Path(machine)
    if not path.is_file():
        raise click.UsageError(
            f"machine {machine!r} is neither a built-in name "
            f"({', '.join(BUILT_IN)}) nor a file"
        )
    if n_paths is not None:
        raise click.UsageError("--n-paths is not allowed with a machine file")
    try:
        return load_spec(str(path))
    except (SpecFormatError, OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"bad machine file {machine}: {exc}") from exc


def _apply_aliases(spec: TwoWayQfaSpec, word: str) -> str:
    if "(" in spec.input_alphabet:
        return word.replace("o", "(").replace("c", ")")
    return word


def _run_record(spec: TwoWayQfaSpec, word: str, result: RunResult) -> dict:
    return {
        "machine": spec.name or "custom",
        "N": spec.n_paths,
        "word": word,
        "p_accept": result.p_accept,
        "p_reject": result.p_reject,
        "p_residual": result.p_residual,
        "steps": result.steps,
        "halted": result.halted,
    }


def _finite(value):
    """`value` with every float that is not finite replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite(item) for item in value]
    return value


def _emit_json(record: dict) -> None:
    click.echo(json.dumps(_finite(record), allow_nan=False))


def _emit_csv(header, rows) -> None:
    """A header line and one line per row; floats are written with repr."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
    click.echo(buffer.getvalue(), nl=False)


def _out_of_memory(spec: TwoWayQfaSpec, cells: str) -> click.ClickException:
    """The exit-2 error for a run of `spec` on `cells` that ran out of memory."""
    error = click.ClickException(f"out of memory: {len(spec.states)} states on {cells}")
    error.exit_code = 2
    return error


def _read_recipe(path: str) -> tuple[Recipe, str]:
    """The recipe in the file at `path` and its transcribed word."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"cannot read recipe {path}: {exc}") from exc
    try:
        recipe = parse_recipe(text)
        return recipe, transcribe(recipe)
    except RecipeError as exc:
        raise click.UsageError(str(exc)) from exc


@click.group()
def main() -> None:
    """Simulate two-way quantum finite automata."""


@main.command(name="validate")
@click.option("--machine", required=True, help="m1, m2, m3 or a machine file path.")
@click.option("--n-paths", type=int, default=None, help=f"Path count for m2/m3, 2 to {MAX_N_PATHS}.")
@click.option("--format", "fmt", type=_REPORT_FORMATS, default="human")
@click.option(
    "--export-spec", "export_path", type=click.Path(dir_okay=False), default=None,
    help="Also write the machine to this file in the machine text format.",
)
@click.pass_context
def validate_cmd(ctx, machine, n_paths, fmt, export_path) -> None:
    """Check per-symbol unitarity and the well-formedness conditions."""
    spec = _load_machine(machine, n_paths)
    report = validate(spec)
    if export_path is not None:
        try:
            save_spec(spec, export_path)
        except OSError as exc:
            raise click.UsageError(f"cannot write machine file {export_path}: {exc}") from exc
    if fmt == "structured":
        record = {
            "machine": spec.name or "custom",
            "N": spec.n_paths,
            "all_ok": report.all_ok,
            "tolerance": report.tolerance,
        }
        for _, prefix in _CHECKS:
            for key in (f"{prefix}_ok", f"{prefix}_max_deviation"):
                record[key] = getattr(report, key)
        record["padded_entries"] = [list(entry) for entry in report.padded_entries]
        _emit_json(record)
    else:
        click.echo(f"machine {spec.name or 'custom'} (N={spec.n_paths}, "
                   f"{len(spec.states)} states)")
        for label, prefix in _CHECKS:
            status = "pass" if getattr(report, f"{prefix}_ok") else "FAIL"
            deviation = getattr(report, f"{prefix}_max_deviation")
            click.echo(f"  {label:32s} {status}  (max deviation {deviation:.3e})")
        if report.padded_entries:
            pads = ", ".join(f"{sym}:{state}" for sym, state in report.padded_entries)
            click.echo(f"  padded entries: {pads}")
        click.echo(f"overall: {'pass' if report.all_ok else 'FAIL'} "
                   f"(tolerance {report.tolerance:g})")
    if not report.all_ok:
        ctx.exit(1)


@main.command(name="run")
@click.option("--machine", required=True, help="m1, m2, m3 or a machine file path.")
@click.option("--n-paths", type=int, default=None, help=f"Path count for m2/m3, 2 to {MAX_N_PATHS}.")
@click.option("--word", default=None, help="Input word (end-markers added internally).")
@click.option(
    "--recipe", "recipe_path", type=click.Path(dir_okay=False), default=None,
    help="Recipe file to transcribe and run instead of --word.",
)
@click.option("--format", "fmt", type=_FORMATS, default="human")
@click.option("--max-steps", type=int, default=None)
@click.option("--halt-threshold", type=float, default=DEFAULT_HALT_THRESHOLD)
@click.option("--trace", is_flag=True, help="Print per-step probabilities (human only).")
def run_cmd(machine, n_paths, word, recipe_path, fmt, max_steps, halt_threshold, trace):
    """Run one word (or one transcribed recipe) and report probabilities."""
    if (word is None) == (recipe_path is None):
        raise click.UsageError("exactly one of --word and --recipe is required")
    if trace and fmt != "human":
        raise click.UsageError("--trace is only available with --format human")
    spec = _load_machine(machine, n_paths)
    recipe = None
    if recipe_path is not None:
        recipe, word = _read_recipe(recipe_path)
    else:
        word = _apply_aliases(spec, word)
    try:
        result = run(
            spec, word,
            max_steps=max_steps, halt_threshold=halt_threshold, trace=trace,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    except MemoryError:
        raise _out_of_memory(spec, f"a tape of {len(word) + 2} cells") from None

    record = _run_record(spec, word, result)
    sig = signature(recipe.system, result) if recipe is not None else None
    if sig is not None:
        record["verdict"] = sig.verdict
        record["descriptor"] = sig.descriptor

    if fmt == "structured":
        _emit_json(record)
    elif fmt == "csv":
        _emit_csv(record.keys(), [record.values()])
    else:
        click.echo(f"machine {record['machine']} (N={record['N']}) "
                   f"on word {word!r}")
        if trace and result.trace is not None:
            for index, (acc, rej, residual) in enumerate(result.trace, start=1):
                click.echo(f"  step {index:4d}: p_accept={acc:.9f} "
                           f"p_reject={rej:.9f} residual={residual:.9f}")
        click.echo(f"  p_accept   = {result.p_accept:.9f}")
        click.echo(f"  p_reject   = {result.p_reject:.9f}")
        click.echo(f"  p_residual = {result.p_residual:.3g}")
        click.echo(f"  steps      = {result.steps}")
        click.echo(f"  halted     = {'yes' if result.halted else 'no'}")
        if sig is not None:
            click.echo(f"  signature  = {sig.verdict}: {sig.descriptor}")


@main.command(name="sweep")
@click.option("--machine", required=True, help="m1, m2, m3 or a machine file path.")
@click.option("--n-paths", type=int, default=None, help=f"Path count for m2/m3, 2 to {MAX_N_PATHS}.")
@click.option(
    "--lang", required=True,
    type=click.Choice([lang.value for lang in LanguageId], case_sensitive=False),
)
@click.option("--max-len", type=int, default=6, show_default=True)
@click.option("--format", "fmt", type=_FORMATS, default="human")
def sweep_cmd(machine, n_paths, lang, max_len, fmt) -> None:
    """Compare machine verdicts against a classical oracle, exhaustively."""
    spec = _load_machine(machine, n_paths)
    language = LanguageId(lang.upper())
    try:
        report = sweep_compare(spec, language, max_len)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    except MemoryError:
        raise _out_of_memory(spec, f"tapes of up to {max_len + 2} cells") from None
    if fmt == "structured":
        _emit_json(report.to_json_obj())
    elif fmt == "csv":
        _emit_csv(
            ["word", "machine_accepts", "oracle_accepts", "p_accept", "p_reject"],
            ([m.word, m.machine_accepts, m.oracle_accepts, m.p_accept, m.p_reject]
             for m in report.mismatches),
        )
    else:
        click.echo(f"machine {report.machine} (N={report.n_paths}) vs "
                   f"{report.language}, words up to length {report.max_len}")
        click.echo(f"  words checked : {report.total_words}")
        click.echo(f"  mismatches    : {len(report.mismatches)}")
        for m in report.mismatches[:20]:
            click.echo(f"    {m.word!r}: machine "
                       f"{'accepts' if m.machine_accepts else 'rejects'} "
                       f"(p_accept={m.p_accept:.6f}), oracle "
                       f"{'accepts' if m.oracle_accepts else 'rejects'}")
        if len(report.mismatches) > 20:
            click.echo(f"    ... and {len(report.mismatches) - 20} more")
        if report.bound_checked:
            click.echo(f"  bound violations: {len(report.bound_violations)}")
            for v in report.bound_violations[:20]:
                click.echo(f"    {v.word!r}: wanted {v.requirement}, got "
                           f"p_accept={v.p_accept:.6f} p_reject={v.p_reject:.6f}")


@main.command(name="transcribe")
@click.option(
    "--recipe", "recipe_path", required=True, type=click.Path(dir_okay=False)
)
@click.option("--format", "fmt", type=_REPORT_FORMATS, default="human")
def transcribe_cmd(recipe_path, fmt) -> None:
    """Transcribe a recipe file into an input word."""
    recipe, word = _read_recipe(recipe_path)
    if fmt == "structured":
        record = {
            "system": recipe.system.value,
            "aliquots": len(recipe.aliquots),
            "word": word,
        }
        _emit_json(record)
    else:
        click.echo(f"system {recipe.system.value}: {len(recipe.aliquots)} aliquots "
                   f"-> word {word!r}")


@main.command(name="qft")
@click.option("--n", "n_paths", type=int, required=True, help=f"Path count N, 1 to {MAX_QFT_N}.")
@click.option("--format", "fmt", type=_REPORT_FORMATS, default="human")
def qft_cmd(n_paths, fmt) -> None:
    """Print the N-path Fourier acceptance matrix."""
    try:
        matrix = qft_matrix(n_paths)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if fmt == "structured":
        record = {
            "n": n_paths,
            "matrix": [
                [[value.real, value.imag] for value in row] for row in matrix
            ],
        }
        _emit_json(record)
    else:
        click.echo(f"Fourier acceptance matrix for N={n_paths}:")
        for row in matrix:
            cells = "  ".join(
                f"{value.real:+.6f}{value.imag:+.6f}i" for value in row
            )
            click.echo(f"  {cells}")


if __name__ == "__main__":
    main()
