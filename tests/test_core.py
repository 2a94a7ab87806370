"""Evolution, measurement and run-loop behaviour."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoqfa import core
from twoqfa.core import AmplitudeVector, Configuration, initial_vector, measure, run, step
from twoqfa.errors import AlphabetError
from twoqfa.machines import build_m2


def test_initial_vector_is_unit_basis_at_left_marker(m1):
    v = initial_vector(m1, "aa")
    assert v.tape_length == 4
    assert v.entries() == {Configuration("q0", 0): 1.0 + 0j}
    assert v.norm_squared() == pytest.approx(1.0)


def test_initial_vector_same_construction_for_m2(m2_5):
    v = initial_vector(m2_5, "()")
    assert v.entries() == {Configuration("q0", 0): 1.0 + 0j}


def test_initial_vector_rejects_foreign_symbol(m1):
    with pytest.raises(AlphabetError) as info:
        initial_vector(m1, "ax")
    assert info.value.symbol == "x"
    assert info.value.position == 1
    assert "'x'" in str(info.value)


def test_run_and_step_name_the_first_foreign_symbol(m1, m2_5):
    """The frontier maps the word to its table rows itself, and its error keeps the position."""
    for spec, word, position in ((m1, "abxa", 2), (m2_5, "()(x)y", 3)):
        vector = AmplitudeVector(spec, len(word) + 2)
        for call in (lambda: run(spec, word), lambda: step(spec, word, vector)):
            with pytest.raises(AlphabetError) as info:
                call()
            assert (info.value.symbol, info.value.position) == (word[position], position)


def test_step_moves_right_from_left_marker(m1):
    v = initial_vector(m1, "aa")
    moved = step(m1, "aa", v)
    assert moved.entries() == {Configuration("q0", 1): 1.0 + 0j}


def test_step_moves_right_over_first_letter(m1):
    v = initial_vector(m1, "aa")
    moved = step(m1, "aa", step(m1, "aa", v))
    assert moved.entries() == {Configuration("q0", 2): 1.0 + 0j}


def test_step_splits_into_four_equal_paths():
    spec = build_m2(4)
    v = initial_vector(spec, "()")
    v.data[:] = 0
    v.data[spec.state_index("q2"), 0] = 1.0
    moved = step(spec, "()", v)
    expected = {Configuration(f"q_{i}_0", 1): 0.5 + 0j for i in range(1, 5)}
    got = moved.entries()
    assert set(got) == set(expected)
    for key, amplitude in expected.items():
        assert got[key] == pytest.approx(amplitude)


@pytest.mark.parametrize(
    "machine, word, vector_machine, vector_word",
    [("m1", "aaa", "m1", "aa"), ("m1", "ab", "m2_5", "()"), ("m2_5", "()", "m1", "ab")],
    ids=["tape", "more_states", "fewer_states"],
)
def test_step_rejects_vector_of_wrong_length(request, machine, word, vector_machine, vector_word):
    v = initial_vector(request.getfixturevalue(vector_machine), vector_word)
    # numpy's own broadcast error is a ValueError too, so the message is pinned
    with pytest.raises(ValueError, match="does not match"):
        step(request.getfixturevalue(machine), word, v)


@pytest.mark.parametrize(
    "machine, vector_machine, vector_word",
    [("m1", "m2_5", "()"), ("m2_5", "m1", "ab")],
    ids=["more_states", "fewer_states"],
)
def test_measure_rejects_vector_of_another_machine(request, machine, vector_machine, vector_word):
    v = initial_vector(request.getfixturevalue(vector_machine), vector_word)
    with pytest.raises(ValueError, match="does not match"):
        measure(request.getfixturevalue(machine), v)


def test_measure_collects_fully_accepting_vector(m1):
    v = initial_vector(m1, "aaa")
    v.data[:] = 0
    v.data[m1.state_index("q_a1"), 3] = 1.0
    gain_accept, gain_reject, residual = measure(m1, v)
    assert gain_accept == pytest.approx(1.0)
    assert gain_reject == 0.0
    assert residual.norm_squared() == 0.0


def test_measure_projects_halting_half(m1):
    v = initial_vector(m1, "aaa")
    v.data[:] = 0
    v.data[m1.state_index("q_a1"), 3] = 1 / math.sqrt(2)
    v.data[m1.state_index("q5"), 2] = 1 / math.sqrt(2)
    gain_accept, gain_reject, residual = measure(m1, v)
    assert gain_accept == pytest.approx(0.5)
    assert gain_reject == 0.0
    assert residual.norm_squared() == pytest.approx(0.5)
    assert residual.amplitude(Configuration("q_a1", 3)) == 0
    assert residual.amplitude(Configuration("q5", 2)) == pytest.approx(1 / math.sqrt(2))


def test_measure_leaves_non_halting_vector_alone(m1):
    v = initial_vector(m1, "ab")
    gain_accept, gain_reject, residual = measure(m1, v)
    assert gain_accept == 0.0
    assert gain_reject == 0.0
    assert np.array_equal(residual.data, v.data)


def test_run_rejects_aa_with_certainty(m1):
    result = run(m1, "aa")
    assert result.p_reject == pytest.approx(1.0, abs=1e-9)
    assert result.p_accept == pytest.approx(0.0, abs=1e-9)
    assert result.halted


def test_run_accepts_balanced_pair(m2_5):
    result = run(m2_5, "()")
    assert result.p_accept >= 1 - 1e-6
    assert result.halted


def test_run_rejects_unbalanced_block_word(m3_5):
    result = run(m3_5, "aabbc")
    assert result.p_reject >= 0.8 - 1e-6


def test_run_rejects_out_of_order_word_with_certainty(m3_5):
    result = run(m3_5, "ba")
    assert result.p_reject == pytest.approx(1.0, abs=1e-9)


def test_run_reports_budget_exhaustion_without_raising(m2_2):
    result = run(m2_2, "(", max_steps=1)
    assert not result.halted
    assert result.steps == 1
    assert result.p_residual > 0


def test_run_guards_step_budget_and_threshold(m1, fourier5):
    """On either engine the budget is an integer of at least 1, of any int type, and nothing else.

    A float such as 2.5 or 1e9 raises ValueError, neither rounded up by one
    engine nor a raw TypeError from the other.
    """
    for spec in (m1, fourier5):
        assert core._machine(spec).sparse is (spec is m1)
        word = spec.input_alphabet[0] * 2
        for budget in (0, -3, 2.5, 3.0, 1e9, "3", [3]):
            with pytest.raises(ValueError, match="max_steps must be"):
                run(spec, word, max_steps=budget)
        assert run(spec, word, max_steps=np.int64(3)) == run(spec, word, max_steps=3)
        with pytest.raises(ValueError):
            run(spec, word, halt_threshold=0.0)
        with pytest.raises(ValueError):
            run(spec, word, halt_threshold=1.5)


def test_trace_is_off_by_default(m1):
    assert run(m1, "ab").trace is None


class _Allocated(Exception):
    """Raised in place of an array: the call got past the cap."""


def _refuse(*args, **kwargs):
    raise _Allocated


def test_an_array_above_the_cell_cap_is_refused_before_it_is_allocated(fourier5, monkeypatch):
    """Five states on a tape of cap / 5 cells pass, and one cell more is cap + 1 cells.

    Above the cap, ``run``, ``step`` and ``initial_vector`` raise ValueError
    before any array of the tape's size exists: np.zeros and np.empty raise,
    and the traced peak stays below 1 MB, where one such array takes 67 MB.
    At the cap, each call gets as far as its first array.
    """
    assert not core._machine(fourier5).sparse
    cap = core.MAX_DENSE_CELLS
    assert (cap + 1) % 5 == 0
    over, within = "a" * ((cap + 1) // 5 - 2), "a" * (cap // 5 - 2)
    # a vector of the right shape that holds one amplitude in memory
    vectors = {word: AmplitudeVector(fourier5, len(word) + 2,
                                     np.broadcast_to(np.zeros((1, 1), complex), (5, len(word) + 2)))
               for word in (over, within)}
    calls = {
        "run": lambda word: run(fourier5, word),
        "step": lambda word: step(fourier5, word, vectors[word]),
        "initial_vector": lambda word: initial_vector(fourier5, word),
    }
    monkeypatch.setattr(np, "zeros", _refuse)
    monkeypatch.setattr(np, "empty", _refuse)
    for name, call in calls.items():
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{cap + 1:,} amplitudes, more than the {cap:,}"):
                call(over)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, name
        with pytest.raises(_Allocated):
            call(within)


def test_a_frontier_run_is_not_capped(m2_10):
    """The frontier keeps no amplitude array, so a sparse run on more cells than the cap runs."""
    word = "()" * (core.MAX_DENSE_CELLS // len(m2_10.states) // 2)
    assert len(m2_10.states) * (len(word) + 2) > core.MAX_DENSE_CELLS
    result = run(m2_10, word)
    assert result.halted and result.p_accept > 1 - 1e-12
    with pytest.raises(ValueError, match="an array may hold"):
        initial_vector(m2_10, word)


def _machine_words():
    # (builder key, word) pairs across all three machines
    return st.one_of(
        st.text(alphabet="ab", max_size=10).map(lambda w: ("m1", w)),
        st.text(alphabet="()", max_size=10).map(lambda w: ("m2", w)),
        st.text(alphabet="abc", max_size=10).map(lambda w: ("m3", w)),
    )


@settings(max_examples=60, deadline=None)
@given(_machine_words())
def test_norm_is_conserved_at_every_step(machine_word):
    kind, word = machine_word
    spec = _SPECS[kind]
    result = run(spec, word, trace=True)
    for p_accept, p_reject, residual in result.trace:
        assert p_accept + p_reject + residual == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(_machine_words())
def test_halting_probabilities_grow_monotonically(machine_word):
    kind, word = machine_word
    result = run(_SPECS[kind], word, trace=True)
    last_accept, last_reject = 0.0, 0.0
    for p_accept, p_reject, _ in result.trace:
        assert p_accept >= last_accept - 1e-15
        assert p_reject >= last_reject - 1e-15
        last_accept, last_reject = p_accept, p_reject


@settings(max_examples=30, deadline=None)
@given(_machine_words())
def test_runs_are_bit_identical(machine_word):
    kind, word = machine_word
    first = run(_SPECS[kind], word)
    second = run(_SPECS[kind], word)
    assert first == second


_SPECS = {}


def _build_specs():
    from twoqfa.machines import build_m1, build_m3

    _SPECS["m1"] = build_m1()
    _SPECS["m2"] = build_m2(2)
    _SPECS["m3"] = build_m3(2)


_build_specs()
