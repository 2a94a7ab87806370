"""Spec data model, amplitude lookups, table completion and validation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoqfa.errors import TableCompletionError
from twoqfa.machine import (
    PartialTable,
    TwoWayQfaSpec,
    amplitude_of,
    complete_partial_table,
    validate,
)
from twoqfa.machines import build_m1


def test_amplitude_follows_the_head_direction(m1):
    assert amplitude_of(m1, "q0", "#", "q0", +1) == 1
    assert amplitude_of(m1, "q0", "#", "q0", -1) == 0
    assert amplitude_of(m1, "q0", "#", "q0", 0) == 0


def test_split_amplitudes_are_uniform(m2_5):
    for i in range(1, 6):
        value = amplitude_of(m2_5, "q2", "#", f"q_{i}_0", +1)
        assert value == pytest.approx(1 / math.sqrt(5))


def test_amplitudes_reconstruct_the_stored_matrices(m1):
    for symbol in m1.tape_alphabet:
        matrix = m1.symbol_unitaries[symbol]
        for si, source in enumerate(m1.states):
            for ti, target in enumerate(m1.states):
                direction = m1.head_fn[target]
                assert amplitude_of(m1, source, symbol, target, direction) == matrix[ti, si]


def test_validator_passes_the_bundled_machines(m1, m2_2, m2_5):
    for spec in (m1, m2_2, m2_5):
        report = validate(spec)
        assert report.all_ok
        assert report.unitarity_max_deviation < 1e-9
        assert report.local_probability_max_deviation < 1e-9
        assert report.separability1_max_deviation < 1e-9
        assert report.separability2_max_deviation < 1e-9


def test_validator_flags_a_scaled_entry():
    spec = build_m1()
    matrix = spec.symbol_unitaries["a"].copy()
    row = spec.state_index("q0")
    assert matrix[row, row] == 1
    matrix[row, row] = 1.1
    broken = TwoWayQfaSpec(
        states=spec.states,
        input_alphabet=spec.input_alphabet,
        initial_state=spec.initial_state,
        accept_states=spec.accept_states,
        reject_states=spec.reject_states,
        symbol_unitaries={**spec.symbol_unitaries, "a": matrix},
        head_fn=spec.head_fn,
    )
    report = validate(broken)
    assert not report.unitarity_ok
    assert not report.local_probability_ok
    assert report.unitarity_max_deviation == pytest.approx(0.21, abs=1e-12)
    assert report.local_probability_max_deviation == pytest.approx(0.21, abs=1e-12)
    assert not report.all_ok


def _tiny_table(rows, states=("u0", "u1"), alphabet=("x",), heads=None):
    return PartialTable(
        states=states,
        input_alphabet=alphabet,
        initial_state=states[0],
        accept_states=frozenset(),
        reject_states=frozenset(),
        head_fn=heads or {s: 0 for s in states},
        rows=rows,
    )


def test_full_permutation_table_needs_no_padding():
    rows = []
    for symbol in ("#", "x", "$"):
        rows += [("u0", symbol, "u1", 1), ("u1", symbol, "u0", 1)]
    spec = complete_partial_table(_tiny_table(rows))
    assert spec.padded_entries == ()
    for symbol in ("#", "x", "$"):
        assert np.array_equal(
            spec.symbol_unitaries[symbol], np.array([[0, 1], [1, 0]], dtype=complex)
        )


def test_conflicting_unit_columns_are_rejected():
    rows = [
        ("q1", "a", "q3", 1),
        ("q2", "a", "q3", 1),
    ]
    table = _tiny_table(rows, states=("q1", "q2", "q3"), alphabet=("a",))
    with pytest.raises(TableCompletionError) as info:
        complete_partial_table(table)
    message = str(info.value)
    assert "'a'" in message
    assert "'q1'" in message and "'q2'" in message


def test_non_unit_column_is_rejected():
    table = _tiny_table([("u0", "x", "u1", 0.5)])
    with pytest.raises(TableCompletionError) as info:
        complete_partial_table(table)
    assert "'x'" in str(info.value)


def test_nan_column_is_rejected():
    table = _tiny_table([("u0", "x", "u1", math.nan)])
    with pytest.raises(TableCompletionError) as info:
        complete_partial_table(table)
    assert "'x'" in str(info.value)


def test_row_under_a_symbol_outside_the_tape_is_rejected():
    table = _tiny_table([("u0", "y", "u1", 1)])
    with pytest.raises(TableCompletionError) as info:
        complete_partial_table(table)
    assert "'y'" in str(info.value)


def test_right_marker_only_table_pads_the_other_eight_states():
    # the four right-marker images of the 12-state scanner, nothing else
    scanner = build_m1()
    rows = [
        ("q0", "$", "q7", 1),
        ("q2", "$", "q5", 1),
        ("q4", "$", "q_a1", 1),
        ("q7", "$", "q_r2", 1),
    ]
    table = PartialTable(
        states=scanner.states,
        input_alphabet=scanner.input_alphabet,
        initial_state=scanner.initial_state,
        accept_states=scanner.accept_states,
        reject_states=scanner.reject_states,
        head_fn=scanner.head_fn,
        rows=rows,
    )
    spec = complete_partial_table(table)
    padded_for_marker = [state for symbol, state in spec.padded_entries if symbol == "$"]
    assert len(padded_for_marker) == 8
    assert set(padded_for_marker) == set(scanner.states) - {"q0", "q2", "q4", "q7"}
    assert validate(spec).all_ok


def test_superposition_column_completes_by_orthonormal_extension():
    value = 1 / math.sqrt(2)
    rows = [
        ("u0", "x", "u0", value),
        ("u0", "x", "u1", value),
    ]
    spec = complete_partial_table(_tiny_table(rows))
    assert ("x", "u1") in spec.padded_entries
    matrix = spec.symbol_unitaries["x"]
    assert np.max(np.abs(matrix.conj().T @ matrix - np.eye(2))) < 1e-12
    assert matrix[0, 0] == pytest.approx(value)
    assert matrix[1, 0] == pytest.approx(value)


def test_spec_constructor_rejects_malformed_machines(m1):
    good = dict(
        states=("u0", "u1"),
        input_alphabet=("x",),
        initial_state="u0",
        accept_states=frozenset(),
        reject_states=frozenset(),
        symbol_unitaries={
            s: np.eye(2, dtype=complex) for s in ("#", "x", "$")
        },
        head_fn={"u0": 0, "u1": 0},
    )
    TwoWayQfaSpec(**good)

    for bad in (
        {"states": ("u0", "u0")},
        {"initial_state": "zz"},
        {"accept_states": frozenset({"u0"}), "reject_states": frozenset({"u0"})},
        {"head_fn": {"u0": 0}},
        {"head_fn": {"u0": 2, "u1": 0}},
        {"input_alphabet": ("#",)},
        {"n_paths": 0},
        {"symbol_unitaries": {s: np.eye(3, dtype=complex) for s in ("#", "x", "$")}},
        {"symbol_unitaries": {"#": np.eye(2, dtype=complex)}},
        {"symbol_unitaries": {**good["symbol_unitaries"], "x": np.full((2, 2), np.nan)}},
        {"symbol_unitaries": {**good["symbol_unitaries"], "$": np.full((2, 2), np.inf)}},
        {"padded_entries": (("y", "u0"),)},
        {"padded_entries": (("x", "u9"),)},
        {"padded_entries": (("x", "u0"), ("x", "u0"))},
    ):
        with pytest.raises(ValueError):
            TwoWayQfaSpec(**{**good, **bad})


def test_padded_entries_cover_exactly_the_unspecified_columns(m1):
    specified = {("#", s) for s in ("q0", "q1", "q5", "q7")}
    padded_hash_marker = {s for sym, s in m1.padded_entries if sym == "#"}
    assert padded_hash_marker == set(m1.states) - {s for _, s in specified}


@pytest.mark.parametrize("entry", [np.nan, 1e200 + 1e200j])
def test_validator_fails_a_machine_whose_checks_are_not_finite(entry):
    # a NaN written into a built machine, or entries whose products overflow
    spec = build_m1()
    spec.symbol_unitaries["a"][0, :] = entry
    report = validate(spec)
    assert report.unitarity_max_deviation == math.inf
    assert not report.unitarity_ok
    assert not report.all_ok


def _touched_rows(spec: TwoWayQfaSpec, symbol: str) -> np.ndarray:
    """The rows that the given (not padded) columns of `symbol` touch."""
    padded = {spec.state_index(s) for sym, s in spec.padded_entries if sym == symbol}
    given = [j for j in range(len(spec.states)) if j not in padded]
    return np.flatnonzero(spec.symbol_unitaries[symbol][:, given].any(axis=1))


def _assert_padding_is_basis_off_the_touched_rows(spec: TwoWayQfaSpec) -> None:
    """Each padded column is a single 1.0 off the touched rows, or lives on them."""
    for symbol, state in spec.padded_entries:
        column = spec.symbol_unitaries[symbol][:, spec.state_index(state)]
        off = np.ones(len(column), dtype=bool)
        off[_touched_rows(spec, symbol)] = False
        if column[off].any():
            assert np.count_nonzero(column) == 1, (symbol, state)
            assert column[np.flatnonzero(column)[0]] == 1.0, (symbol, state)


@pytest.mark.parametrize("machine", ["m1", "m2_5", "m3_5", "m2_20", "m3_20"])
def test_bundled_padding_is_basis_off_the_touched_rows(machine, request):
    _assert_padding_is_basis_off_the_touched_rows(request.getfixturevalue(machine))


@st.composite
def _partial_tables(draw):
    """A random table: per symbol, basis and superposition columns on random rows.

    Each symbol puts some columns of a random unitary on part of a random
    row set and unit basis vectors on the rest, and gives these columns to
    random source states.
    """
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = tuple(f"u{i}" for i in range(n))
    roles = draw(st.lists(st.sampled_from("nar"), min_size=n - 1, max_size=n - 1))
    rows = []
    for symbol in ("#", "x", "$"):
        targets = rng.permutation(n)[: draw(st.integers(0, n))]
        split = draw(st.integers(0, len(targets)))
        mixed, basis = targets[:split], targets[split:]
        columns = [np.eye(n)[:, r] for r in basis]
        if mixed.size:
            z = rng.standard_normal((mixed.size,) * 2) + 1j * rng.standard_normal((mixed.size,) * 2)
            unitary = np.linalg.qr(z)[0]
            for k in range(draw(st.integers(0, mixed.size))):
                column = np.zeros(n, dtype=complex)
                column[mixed] = unitary[:, k]
                columns.append(column)
        sources = rng.permutation(n)[: len(columns)]
        for source, column in zip(sources, columns):
            rows += [
                (states[source], symbol, states[t], complex(column[t]))
                for t in np.flatnonzero(column)
            ]
    return PartialTable(
        states=states,
        input_alphabet=("x",),
        initial_state=states[0],
        accept_states=frozenset(s for s, r in zip(states[1:], roles) if r == "a"),
        reject_states=frozenset(s for s, r in zip(states[1:], roles) if r == "r"),
        head_fn={s: 0 for s in states},
        rows=rows,
    )


@settings(max_examples=200, deadline=None)
@given(_partial_tables())
def test_completion_keeps_given_columns_and_pads_by_one_rule(table):
    spec = complete_partial_table(table)
    given_columns: dict[tuple[str, str], np.ndarray] = {}
    for source, symbol, target, amplitude in table.rows:
        column = given_columns.setdefault((symbol, source), np.zeros(len(spec.states), complex))
        column[spec.state_index(target)] = amplitude
    assert spec.padded_entries == tuple(
        (symbol, s)
        for symbol in spec.tape_alphabet
        for s in spec.states
        if (symbol, s) not in given_columns
    )
    for (symbol, source), column in given_columns.items():
        assert np.array_equal(spec.symbol_unitaries[symbol][:, spec.state_index(source)], column)
    _assert_padding_is_basis_off_the_touched_rows(spec)
    halting = spec.accept_states | spec.reject_states
    for symbol in spec.tape_alphabet:
        matrix = spec.symbol_unitaries[symbol]
        assert np.abs(matrix.conj().T @ matrix - np.eye(len(spec.states))).max() < 1e-12
        # non-halting padded sources take the untouched rejecting rows first
        touched = set(_touched_rows(spec, symbol).tolist())
        free = [
            i for i, s in enumerate(spec.states) if s in spec.reject_states and i not in touched
        ]
        runners = [s for sym, s in spec.padded_entries if sym == symbol and s not in halting]
        for source, row in zip(runners, free):
            assert matrix[row, spec.state_index(source)] == 1.0
