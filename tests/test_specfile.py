"""Text round-trips for machine definitions."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoqfa.errors import SpecFormatError
from twoqfa.machines import build_m1, build_m2, build_m3
from twoqfa.specfile import dumps_spec, load_spec, loads_spec, save_spec


@pytest.mark.parametrize("spec", [build_m1(), build_m2(2), build_m3(2)])
def test_loads_inverts_dumps(spec):
    assert loads_spec(dumps_spec(spec)) == spec


def test_dumps_is_stable_across_one_round_trip():
    text = dumps_spec(build_m2(3))
    assert dumps_spec(loads_spec(text)) == text


def test_save_and_load_through_a_file(tmp_path):
    path = tmp_path / "machine.2qfa"
    spec = build_m3(2)
    save_spec(spec, path)
    assert load_spec(path) == spec


def test_padded_entries_survive_the_round_trip():
    spec = build_m1()
    assert spec.padded_entries
    assert loads_spec(dumps_spec(spec)).padded_entries == spec.padded_entries


def _minimal_text() -> str:
    return dumps_spec(build_m1())


@pytest.mark.parametrize(
    "mangle, hint",
    [
        (lambda t: t.replace("twoqfa-machine 1", "something-else 1"), "header"),
        (lambda t: t.replace("\nend\n", "\n"), "end"),
        (lambda t: t.replace("\nend\n", "\nwibble 3\nend\n"), "directive"),
        (lambda t: t.replace("initial q0", "initial zz"), "initial"),
        (lambda t: t.replace("\nhead q0 ", "\nhead q0 sideways "), "head"),
        (lambda t: t.replace("\npaths 1\n", "\npaths x\n"), "number"),
        (lambda t: t.replace("\nrow q0 q0 1.0 ", "\nrow q0 q0 one ", 1), "number"),
        (lambda t: t.replace("\nrow q0 q0 1.0 0.0", "\nrow q0 q0 1.0 0x1", 1), "number"),
        (lambda t: t.replace("\nrow q0 q0 1.0 ", "\nrow q0 q0 nan ", 1), "non-finite"),
        (lambda t: t.replace("\nrow q0 q0 1.0 ", "\nrow q0 q0 1e400 ", 1), "non-finite"),
        (lambda t: t.replace("\nmatrix #\n", "\npadded zz nosuchstate\nmatrix #\n"), "padded"),
        (lambda t: t.replace("\nmatrix #\n", "\npadded # q0\npadded # q0\nmatrix #\n"), "padded"),
    ],
)
def test_malformed_text_is_rejected(mangle, hint):
    with pytest.raises(SpecFormatError) as exc:
        loads_spec(mangle(_minimal_text()))
    assert hint in str(exc.value).lower() or hint == "initial"


def test_row_with_unknown_state_is_rejected():
    text = _minimal_text().replace("row q0 ", "row q9 ", 1)
    with pytest.raises(SpecFormatError):
        loads_spec(text)


def test_duplicate_matrix_block_is_rejected():
    text = _minimal_text()
    block_start = text.index("matrix a")
    block_end = text.index("matrix b")
    duplicated = text[:block_end] + text[block_start:block_end] + text[block_end:]
    with pytest.raises(SpecFormatError):
        loads_spec(duplicated)


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_spec(tmp_path / "absent.2qfa")


_TOKENS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        ["nan", "-inf", "1e400", "x", "-1", "0", "+1", "2", "q0", "q9", "#", "$", "a",
         "states", "matrix", "row", "head", "paths", "accept", "reject", "end"]
    ),
)


@st.composite
def _mangled_texts(draw):
    """The m1 file with a few lines dropped, copied, edited or inserted."""
    lines = _minimal_text().splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["drop", "copy", "edit", "insert"]))
        if action == "drop":
            del lines[i]
        elif action == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif action == "edit":
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_TOKENS)
            lines[i] = " ".join(tokens)
        else:
            lines.insert(i, " ".join(draw(st.lists(_TOKENS, max_size=5))))
    return "\n".join(lines) + "\n"


_STATES_GROW_MID_FILE = _minimal_text().replace(
    "matrix a\n", "matrix a\nstates q0 q1 q2 q3 q4 q5 q6 q7 q_a1 q_a2 q_r1 q_r2 zz\nrow zz zz 1 0\n"
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _mangled_texts()))
@example(_STATES_GROW_MID_FILE)
def test_any_text_loads_or_raises_spec_format_error(text):
    try:
        loads_spec(text)
    except SpecFormatError:
        pass
