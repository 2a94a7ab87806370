"""End-to-end checks of the command line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import twoqfa
from twoqfa.cli import main
from twoqfa.machine import TwoWayQfaSpec
from twoqfa.machines import build_m1
from twoqfa.specfile import save_spec


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_validate_human_passes(runner):
    result = invoke(runner, "validate", "--machine", "m1")
    assert result.exit_code == 0
    assert "overall: pass" in result.output


def test_validate_structured_reports_all_sections(runner):
    result = invoke(
        runner, "validate", "--machine", "m2", "--n-paths", "5",
        "--format", "structured",
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert list(payload) == [
        "machine",
        "N",
        "all_ok",
        "tolerance",
        "unitarity_ok",
        "unitarity_max_deviation",
        "local_probability_ok",
        "local_probability_max_deviation",
        "separability1_ok",
        "separability1_max_deviation",
        "separability2_ok",
        "separability2_max_deviation",
        "padded_entries",
    ]
    assert payload["all_ok"] is True
    assert payload["N"] == 5


def _broken_machine_file(path, scale=1.05):
    base = build_m1()
    unitaries = {s: np.array(m) for s, m in base.symbol_unitaries.items()}
    unitaries["a"] = unitaries["a"] * scale
    broken = TwoWayQfaSpec(
        states=base.states,
        input_alphabet=base.input_alphabet,
        initial_state=base.initial_state,
        accept_states=base.accept_states,
        reject_states=base.reject_states,
        symbol_unitaries=unitaries,
        head_fn=dict(base.head_fn),
        name="wonky",
        n_paths=1,
    )
    save_spec(broken, path)
    return path


def test_validate_exits_nonzero_on_a_broken_machine(runner, tmp_path):
    path = _broken_machine_file(tmp_path / "wonky.2qfa")
    result = invoke(runner, "validate", "--machine", str(path))
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_validate_export_spec_round_trips(runner, tmp_path):
    out = tmp_path / "m1.2qfa"
    result = invoke(runner, "validate", "--machine", "m1", "--export-spec", str(out))
    assert result.exit_code == 0
    reloaded = invoke(runner, "validate", "--machine", str(out))
    assert reloaded.exit_code == 0
    assert "overall: pass" in reloaded.output


def test_run_structured_round_trips_byte_identically(runner):
    result = invoke(
        runner, "run", "--machine", "m2", "--n-paths", "5",
        "--word", "()", "--format", "structured",
    )
    assert result.exit_code == 0
    line = result.output.strip()
    payload = json.loads(line)
    assert list(payload) == [
        "machine", "N", "word", "p_accept", "p_reject",
        "p_residual", "steps", "halted",
    ]
    assert json.dumps(payload) == line
    assert payload["word"] == "()"
    assert payload["p_accept"] >= 1 - 1e-6


def test_run_csv_has_the_fixed_header(runner):
    result = invoke(
        runner, "run", "--machine", "m1", "--word", "ba", "--format", "csv",
    )
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == "machine,N,word,p_accept,p_reject,p_residual,steps,halted"
    assert lines[1].startswith("m1,1,ba,")


def test_run_accepts_letter_aliases_for_brackets(runner):
    plain = invoke(
        runner, "run", "--machine", "m2", "--n-paths", "2",
        "--word", "(())", "--format", "structured",
    )
    aliased = invoke(
        runner, "run", "--machine", "m2", "--n-paths", "2",
        "--word", "oocc", "--format", "structured",
    )
    plain_payload = json.loads(plain.output)
    aliased_payload = json.loads(aliased.output)
    assert aliased_payload["word"] == "(())"
    assert aliased_payload == plain_payload


def test_run_trace_prints_one_line_per_step(runner):
    result = invoke(
        runner, "run", "--machine", "m1", "--word", "ba", "--trace",
    )
    assert result.exit_code == 0
    trace_lines = [l for l in result.output.splitlines() if l.lstrip().startswith("step")]
    assert trace_lines


def test_run_recipe_appends_the_signature(runner, tmp_path):
    recipe = tmp_path / "batch.recipe"
    recipe.write_text("BZ\nbromate\nMA\nNaOH\n")
    human = invoke(
        runner, "run", "--machine", "m3", "--n-paths", "5",
        "--recipe", str(recipe),
    )
    assert human.exit_code == 0
    assert "signature  = accept: sustained color oscillations" in human.output

    structured = invoke(
        runner, "run", "--machine", "m3", "--n-paths", "5",
        "--recipe", str(recipe), "--format", "structured",
    )
    payload = json.loads(structured.output)
    assert payload["word"] == "abc"
    assert payload["verdict"] == "accept"
    assert payload["descriptor"] == "sustained color oscillations"


def test_transcribe_formats(runner, tmp_path):
    recipe = tmp_path / "batch.recipe"
    recipe.write_text("system: precipitation\nKIO3\nAgNO3\n")
    human = invoke(runner, "transcribe", "--recipe", str(recipe))
    assert human.exit_code == 0
    assert "ab" in human.output

    structured = invoke(
        runner, "transcribe", "--recipe", str(recipe), "--format", "structured",
    )
    payload = json.loads(structured.output)
    assert list(payload) == ["system", "aliquots", "word"]
    assert payload == {
        "system": "PRECIPITATION",
        "aliquots": 2,
        "word": "ab",
    }


def test_sweep_structured_matches_the_library_report(runner):
    result = invoke(
        runner, "sweep", "--machine", "m3", "--n-paths", "5",
        "--lang", "l3", "--max-len", "4", "--format", "structured",
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["language"] == "L3"
    assert payload["machine"] == "m3"
    assert payload["total_words"] == 121
    assert payload["mismatch_count"] == 0
    assert payload["bound_violations"] == []


def test_sweep_csv_lists_one_row_per_mismatch(runner):
    result = invoke(
        runner, "sweep", "--machine", "m2", "--n-paths", "2",
        "--lang", "l2_count", "--max-len", "0", "--format", "csv",
    )
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0].startswith("word,")
    assert len(lines) == 2


def test_qft_structured_payload(runner):
    result = invoke(runner, "qft", "--n", "2", "--format", "structured")
    payload = json.loads(result.output)
    assert payload["n"] == 2
    matrix = payload["matrix"]
    value = 1 / 2**0.5
    assert matrix[0][0] == pytest.approx([-value, 0.0], abs=1e-12)
    assert matrix[1][1] == pytest.approx([value, 0.0], abs=1e-12)


def test_run_on_a_machine_file(runner, tmp_path):
    path = tmp_path / "m1.2qfa"
    save_spec(build_m1(), path)
    result = invoke(
        runner, "run", "--machine", str(path), "--word", "ba",
        "--format", "structured",
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["machine"] == "m1"
    assert payload["p_accept"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "args",
    [
        ("run", "--machine", "m1", "--n-paths", "3", "--word", "a"),
        ("run", "--machine", "m2", "--word", "()"),
        ("run", "--machine", "m1"),
        ("run", "--machine", "m1", "--word", "a", "--recipe", "nowhere.recipe"),
        ("run", "--machine", "m1", "--word", "xz"),
        ("run", "--machine", "m1", "--word", "ba", "--trace", "--format", "structured"),
        ("run", "--machine", "missing.2qfa", "--word", "a"),
        ("qft", "--n", "0"),
        ("sweep", "--machine", "m1", "--lang", "l3"),
        ("sweep", "--machine", "m1", "--lang", "l1_regex", "--max-len", "15"),
        ("transcribe", "--recipe", "nowhere.recipe"),
        ("run", "--machine", "m1", "--word", "ab", "--max-steps", "0"),
        ("run", "--machine", "m1", "--word", "ab", "--max-steps", "-3"),
        ("run", "--machine", "m1", "--word", "ab", "--halt-threshold", "2"),
        ("run", "--machine", "m1", "--word", "ab", "--halt-threshold", "0"),
        ("validate", "--machine", "m1", "--export-spec", "no-such-directory/m1.2qfa"),
        ("sweep", "--machine", "m1", "--lang", "l1_regex", "--max-len", "-1"),
    ],
)
def test_usage_errors_exit_with_code_two(runner, args):
    result = runner.invoke(main, list(args))
    assert result.exit_code == 2


def test_bad_recipe_content_is_a_usage_error(runner, tmp_path):
    recipe = tmp_path / "bad.recipe"
    recipe.write_text("BZ\nvinegar\n")
    result = runner.invoke(
        main, ["transcribe", "--recipe", str(recipe)],
    )
    assert result.exit_code == 2
    assert "vinegar" in result.output


def test_machine_file_with_n_paths_is_a_usage_error(runner, tmp_path):
    path = tmp_path / "m1.2qfa"
    save_spec(build_m1(), path)
    result = runner.invoke(
        main, ["run", "--machine", str(path), "--n-paths", "4", "--word", "a"],
    )
    assert result.exit_code == 2


def _strict_json(line):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(line, parse_constant=refuse)


def test_machine_file_with_a_nan_entry_is_a_usage_error(runner, tmp_path):
    path = tmp_path / "nan.2qfa"
    save_spec(build_m1(), path)
    path.write_text(path.read_text().replace("row q0 q0 1.0 0.0", "row q0 q0 nan 0.0", 1))
    for args in (("validate",), ("run", "--word", "ab", "--format", "structured")):
        result = runner.invoke(main, [*args, "--machine", str(path)])
        assert result.exit_code == 2
        assert "non-finite" in result.output


@pytest.mark.parametrize(
    "padded", ["padded zz nosuchstate", "padded # q0\npadded # q0"], ids=["unknown", "repeated"]
)
def test_machine_file_with_a_bad_padded_entry_is_a_usage_error(runner, tmp_path, padded):
    path = tmp_path / "padded.2qfa"
    save_spec(build_m1(), path)
    path.write_text(path.read_text().replace("\nmatrix #\n", f"\n{padded}\nmatrix #\n"))
    for args in (("validate",), ("run", "--word", "ab")):
        result = runner.invoke(main, [*args, "--machine", str(path)])
        assert result.exit_code == 2
        assert "padded" in result.output


def test_overflowing_machine_still_writes_strict_json(runner, tmp_path):
    path = _broken_machine_file(tmp_path / "huge.2qfa", scale=1e200)
    validated = invoke(runner, "validate", "--machine", str(path), "--format", "structured")
    assert validated.exit_code == 1
    report = _strict_json(validated.output)
    assert report["unitarity_ok"] is False
    assert report["unitarity_max_deviation"] is None

    ran = invoke(
        runner, "run", "--machine", str(path), "--word", "aa", "--format", "structured",
    )
    assert ran.exit_code == 0
    record = _strict_json(ran.output)
    assert record["p_residual"] is None
    assert record["halted"] is False
    assert record["steps"] == 2


def test_the_package_and_its_cli_load_without_scipy():
    """numpy is the only numeric dependency; scipy may be installed but is never imported."""
    code = ("import sys, twoqfa, twoqfa.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(twoqfa.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
