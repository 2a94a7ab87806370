"""Spec data model, amplitude lookups, table completion and validation."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoqfa.core import run
from twoqfa.errors import TableCompletionError
from twoqfa.machine import (
    Columns,
    PartialTable,
    TwoWayQfaSpec,
    _blocks,
    _deviation,
    _unitarity_deviation,
    amplitude_of,
    complete_partial_table,
    validate,
)
from twoqfa.machines import build_m1, build_m2, build_m3


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


def test_repeated_row_is_rejected():
    table = _tiny_table([("u0", "x", "u1", 1), ("u1", "x", "u0", 1), ("u0", "x", "u1", 1)])
    with pytest.raises(TableCompletionError) as info:
        complete_partial_table(table)
    assert "conflicting rows" in str(info.value) and "'x'" in str(info.value)


def test_row_naming_an_unknown_state_is_rejected():
    for row in (("u9", "x", "u1", 1), ("u0", "x", "u9", 1)):
        table = _tiny_table([row])
        with pytest.raises(TableCompletionError, match="unknown state: '.*' -> '.*'"):
            complete_partial_table(table)


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


def test_a_complement_column_keyed_past_two_to_the_31_completes():
    """The orthonormal complement lands on the last of 50,000 states.

    Its entries are keyed source * n + row = 49,999 * 50,000 + row, beyond
    the int32 range of the block's rows.  The table gives one column, so
    the completion is a permutation elsewhere and nothing dense is built.
    """
    n = 50_000
    value = 1 / math.sqrt(2)
    rows = [("u0", "x", "u0", value), ("u0", "x", "u1", value)]
    spec = complete_partial_table(_tiny_table(rows, states=tuple(f"u{i}" for i in range(n))))
    matrix = spec._columns["x"]
    last = slice(matrix.indptr[n - 1], matrix.indptr[n])
    assert matrix.indices[last].tolist() == [0, 1]
    assert abs(np.vdot(matrix.values[last], [value, value])) < 1e-15
    assert np.linalg.norm(matrix.values[last]) == pytest.approx(1, abs=1e-15)


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

    for bad, message in (
        ({"states": ()}, "state list is empty"),
        ({"states": ("u0", "u0")}, "duplicate state names"),
        ({"initial_state": "zz"}, "initial state 'zz' not a state"),
        ({"accept_states": frozenset({"zz"})}, "accept/reject states must be states"),
        ({"reject_states": frozenset({"u1", "zz"})}, "accept/reject states must be states"),
        ({"accept_states": frozenset({"u0"}), "reject_states": frozenset({"u0"})}, "overlap"),
        ({"head_fn": {"u0": 0}}, "total over the states"),
        ({"head_fn": {"u0": 2, "u1": 0}}, "must be -1, 0 or \\+1"),
        ({"input_alphabet": ("#",)}, "may not contain the marker '#'"),
        ({"input_alphabet": ("x", "x")}, "duplicate input symbols"),
        ({"input_alphabet": ("x", "xy")}, "'xy' is not exactly one character"),
        ({"input_alphabet": ("",)}, "'' is not exactly one character"),
        ({"n_paths": 0}, "n_paths must be at least 1"),
        ({"symbol_unitaries": {s: np.eye(3, dtype=complex) for s in ("#", "x", "$")}},
         "matrix for '#' is not 2x2"),
        ({"symbol_unitaries": {"#": np.eye(2, dtype=complex)}}, "one matrix per tape symbol"),
        ({"symbol_unitaries": {**good["symbol_unitaries"], "x": np.full((2, 2), np.nan)}},
         "matrix for 'x' has a non-finite entry"),
        ({"symbol_unitaries": {**good["symbol_unitaries"], "$": np.full((2, 2), np.inf)}},
         "matrix for '\\$' has a non-finite entry"),
        ({"padded_entries": (("y", "u0"),)}, "is not a symbol and state"),
        ({"padded_entries": (("x", "u9"),)}, "is not a symbol and state"),
        ({"padded_entries": (("x", "u0"), ("x", "u0"))}, "listed twice"),
    ):
        with pytest.raises(ValueError, match=message):
            TwoWayQfaSpec(**{**good, **bad})


def test_spec_keeps_its_own_copy_of_the_matrices():
    """The caller's dict and arrays are neither kept nor written, and later edits reach nothing."""
    matrices = {s: np.eye(2, dtype=int) for s in ("#", "x", "$")}
    arrays = dict(matrices)
    spec = TwoWayQfaSpec(
        states=("u0", "u1"),
        input_alphabet=("x",),
        initial_state="u0",
        accept_states=frozenset(),
        reject_states=frozenset({"u1"}),
        symbol_unitaries=matrices,
        head_fn={"u0": 1, "u1": 0},
    )
    assert spec.symbol_unitaries is not matrices
    assert all(matrices[s] is arrays[s] and matrices[s].dtype == int for s in matrices)
    assert all(np.array_equal(matrices[s], np.eye(2)) for s in matrices)
    before = run(spec, "xx", max_steps=10, trace=True)
    matrices["x"][0, 0] = 5
    matrices["$"] = np.zeros((2, 2))
    assert validate(spec).unitarity_max_deviation == 0.0
    assert run(spec, "xx", max_steps=10, trace=True) == before
    assert np.array_equal(spec.symbol_unitaries["x"], np.eye(2))
    # the view builds a new read-only array on each lookup
    view = spec.symbol_unitaries["x"]
    assert view is not spec.symbol_unitaries["x"]
    with pytest.raises(ValueError):
        view[0, 0] = 5
    with pytest.raises(TypeError):
        spec.symbol_unitaries["x"] = np.eye(2)


def test_replace_copies_a_spec_without_dense_matrices(m3_20):
    """``dataclasses.replace`` passes a spec's own view, whose columns the copy takes as they are.

    Looking the matrices up would build every S x S array; with 708 states
    each is 8 MB, and at N = 100 it would be 3.8 GB.
    """
    states = len(m3_20.states)
    tracemalloc.start()
    try:
        renamed = replace(m3_20, name="x")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < states * states * 16 / 4
    assert renamed.name == "x" and renamed != m3_20
    assert replace(renamed, name=m3_20.name) == m3_20
    assert all(renamed._columns[s] is m3_20._columns[s] for s in m3_20.tape_alphabet)


def test_columns_keep_each_nonzero_once_in_row_order():
    # keys are column * 3 + row: (2, 2), (0, 1), (0, 0) and an explicit zero at (1, 0)
    matrix = Columns.from_entries(3, [8, 1, 0, 3], [3j, 2, 0.5, 0])
    assert matrix.indptr.tolist() == [0, 2, 2, 3]
    assert matrix.indices.tolist() == [0, 1, 2] and matrix.indices.dtype == np.int32
    assert matrix.values.tolist() == [0.5, 2, 3j]
    assert matrix.owners().tolist() == [0, 0, 2]
    assert np.array_equal(matrix.dense(), [[0.5, 0, 0], [2, 0, 0], [0, 0, 3j]])


def test_blocks_follow_chains_of_shared_rows():
    """A chain of columns linked row by row is one block.

    A pure relabel is left out, and empty columns come last as blocks without rows.
    """
    keys, values = [], []
    for j in range(150):  # column j on rows j and j + 1
        keys += [j * 200 + j, j * 200 + j + 1]
        values += [0.6, 0.8]
    keys += [150 * 200 + 199, 151 * 200 + 190]  # a pure relabel, and a single -1 that is a block
    values += [1.0, -1.0]
    matrix = Columns.from_entries(200, keys, values)
    blocks = _blocks(matrix, range(200))
    assert [[int(c) for c in block[1]] for block in blocks] == [
        list(range(150)), [151], *([c] for c in range(152, 200))
    ]
    rows, columns, block = blocks[0]
    assert rows.tolist() == list(range(151))
    assert np.array_equal(block, matrix.dense()[:151, :150])
    # the 48 empty columns deviate by 1, the chain's linked pairs by 0.48
    assert _unitarity_deviation(matrix) == 1.0
    chain = _deviation(blocks[:1])
    assert chain[0] == pytest.approx(0.48) and chain[2] == chain[1] + 1


def test_padded_entries_cover_exactly_the_unspecified_columns(m1):
    specified = {("#", s) for s in ("q0", "q1", "q5", "q7")}
    padded_hash_marker = {s for sym, s in m1.padded_entries if sym == "#"}
    assert padded_hash_marker == set(m1.states) - {s for _, s in specified}


@pytest.mark.parametrize("entry", [np.nan, 1e200 + 1e200j])
def test_validator_fails_a_machine_whose_checks_are_not_finite(entry):
    # a NaN written into a built machine, or entries whose products overflow,
    # on m1 (one dense Gram) and on m2 N=10 (135 states, a Gram per block);
    # the stored column values are the one place a machine lives
    for spec, symbol in ((build_m1(), "a"), (build_m2(10), "(")):
        spec._columns[symbol].values[0] = entry
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


@pytest.mark.parametrize("n", [3, 5, 20])
@pytest.mark.parametrize("build", [build_m2, build_m3], ids=["m2", "m3"])
def test_completion_leaves_no_round_off_outside_a_linked_row_group(build, n):
    """Rows linked by given columns are completed group by group, so no entry is a stray 1e-16."""
    spec = build(n)
    for symbol, matrix in spec.symbol_unitaries.items():
        assert np.count_nonzero((np.abs(matrix) < 1e-14) & (matrix != 0)) == 0, symbol


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
