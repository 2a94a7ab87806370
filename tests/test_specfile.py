"""Text round-trips for machine definitions."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoqfa.errors import SpecFormatError
from twoqfa.machine import TwoWayQfaSpec
from twoqfa.machines import build, build_m1, build_m2, build_m3
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


def test_zero_rows_are_not_stored():
    """A row of 0.0 or -0.0 sets an entry that is zero anyway: the machine and its bytes stay."""
    spec = build_m1()
    text = dumps_spec(spec)
    padded = text.replace("matrix #\n", "matrix #\nrow q0 q1 0.0 0.0\nrow q1 q1 -0.0 0.0\n")
    assert padded != text
    assert loads_spec(padded) == spec
    assert dumps_spec(loads_spec(padded)) == text


def test_padded_entries_survive_the_round_trip():
    spec = build_m1()
    assert spec.padded_entries
    assert loads_spec(dumps_spec(spec)).padded_entries == spec.padded_entries


@pytest.mark.parametrize(
    "name, n_paths, sha256",
    [
        ("m1", None, "9ae89907fb8fe20ca27864577995c47b5bcccbd92034b695ba9d33eef60e588a"),
        ("m2", 2, "006db827a8cd40b7289532859aa452e1683ad6881d41026b5d9cde4db36b0886"),
        ("m2", 5, "daf8fdb4ed818a33bbbade7cd4763d9c3c811377f012294257e20f13c4bb4914"),
        ("m2", 10, "8eb85587a07b98a217913064a7cd7d8d3cd0502c2ed517d5f4a3455b3097a9b3"),
        ("m2", 20, "397ca91b655168416c7ac7b4309bb1f974d717e9756ae97020d18b212015505f"),
        ("m3", 2, "fda146e2c496cc29fdaa380b09a3a717cb1345836fb99fe5db307f13ed376fa7"),
        ("m3", 5, "96fc2d7814b358b346844b8e7b50753b2309964272ac75c077588c35a0b69215"),
        ("m3", 20, "a03d6aaf6678265cbd7ac3e7d1fd2efd233a03d433beeaf89b5db791978f057f"),
    ],
)
def test_bundled_machines_keep_their_exact_bytes(name, n_paths, sha256):
    """Any change to a bundled machine's states, order, amplitudes or padding shows here."""
    text = dumps_spec(build(name, n_paths))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


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
        (lambda t: t.replace("\npaths 1\n", "\nname m1\npaths 1\n"), "twice"),
        (lambda t: t.replace("\npaths 1\n", "\npaths 1\npaths 2\n"), "twice"),
        (lambda t: t.replace("\ninitial q0\n", "\ninitial q0\ninitial q1\n"), "twice"),
        (lambda t: t.replace("\naccept ", "\naccept q1\naccept "), "twice"),
        (lambda t: t.replace("\nreject ", "\nreject q1\nreject "), "twice"),
        (lambda t: t.replace("\nalphabet a b\n", "\nalphabet a b\nalphabet a b\n"), "twice"),
        (lambda t: t.replace("\nalphabet a b\n", "\nalphabet a b ab\n"), "one character"),
        (lambda t: t.replace("\nhead q0 +1\n", "\nhead q0 +1\nhead q0 -1\n"), "twice"),
        (lambda t: t.replace("\nrow q0 q0 1.0 0.0\n", "\nrow q0 q0 0.0 0.0\nrow q0 q0 1.0 0.0\n", 1), "twice"),
        (lambda t: t.replace("\nmatrix #\n", "\npadded # q0 q1\nmatrix #\n"), "bad padded line"),
        (lambda t: t.replace("\nmatrix #\n", "\npadded #\nmatrix #\n"), "bad padded line"),
        (lambda t: t.split("\nstates ")[0] + "\nend\n", "are required"),
        (lambda t: t.replace("\ninitial q0\n", "\n"), "are required"),
        (lambda t: t.replace("\nalphabet a b\n", "\n"), "are required"),
    ],
)
def test_malformed_text_is_rejected(mangle, hint):
    with pytest.raises(SpecFormatError) as exc:
        loads_spec(mangle(_minimal_text()))
    assert hint in str(exc.value).lower() or hint == "initial"


@pytest.mark.parametrize(
    "change, message",
    [
        ({"name": "m 1"}, "name 'm 1' cannot be written"),
        ({"states": ("q0", "q\t1")}, r"state 'q\\t1' cannot be written"),
        ({"input_alphabet": ("a", " ")}, "symbol ' ' cannot be written"),
    ],
    ids=["name", "state", "symbol"],
)
def test_a_token_with_whitespace_cannot_be_written(change, message):
    """The text format splits lines on whitespace, so no name, state or symbol may hold any."""
    states = change.get("states", ("q0", "q1"))
    alphabet = change.get("input_alphabet", ("a",))
    spec = TwoWayQfaSpec(
        states=states,
        input_alphabet=alphabet,
        initial_state=states[0],
        accept_states=frozenset(),
        reject_states=frozenset({states[1]}),
        symbol_unitaries={s: np.eye(2) for s in ("#", *alphabet, "$")},
        head_fn={state: 0 for state in states},
        name=change.get("name", ""),
    )
    with pytest.raises(SpecFormatError, match=message):
        dumps_spec(spec)


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


def test_loading_holds_one_matrix_section_at_a_time():
    """Each matrix section becomes columns when the next one or the end line starts.

    A 48-state machine with four dense matrices is 9,216 row lines.  Loading
    it peaked at 2.17 MB traced when every section's rows were kept until
    the end of the file, and at 1.56 MB with one section's rows at a time.
    """
    rng = np.random.default_rng(0)
    n = 48
    states = tuple(f"s{i}" for i in range(n))
    matrices = {}
    for symbol in ("#", "a", "b", "$"):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        matrices[symbol] = np.linalg.qr(z)[0]
    spec = TwoWayQfaSpec(
        states=states,
        input_alphabet=("a", "b"),
        initial_state=states[0],
        accept_states=frozenset(states[-4:-2]),
        reject_states=frozenset(states[-2:]),
        symbol_unitaries=matrices,
        head_fn={s: i % 3 - 1 for i, s in enumerate(states)},
    )
    text = dumps_spec(spec)
    tracemalloc.start()
    try:
        loaded = loads_spec(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == spec
    assert peak < 1.85e6, peak


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
