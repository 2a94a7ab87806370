"""Acceptance gate: one test per shipped guarantee, with runtime budgets.

Each test prints as a single pass/fail line under pytest -v.  Budgets are
wall-clock ceilings; the measured times on the reference container are an
order of magnitude below them.
"""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_outcomes import m2_accept, m2_steps, m3_accept, m3_steps

from twoqfa.baselines import LanguageId, dyck_pda, l3_pda, membership, run_pda, sweep_compare, words_up_to
from twoqfa.core import run
from twoqfa.machine import validate
from twoqfa.machines import build_m2, build_m3, qft_matrix

pytestmark = pytest.mark.acceptance


def _elapsed_under(start: float, budget: float) -> bool:
    return time.monotonic() - start < budget


def test_bundled_machines_are_well_formed_within_1e_9(
    m1, m2_2, m2_5, m2_10, m2_20, m2_50, m2_100, m3_5, m3_20, m3_50, m3_100
):
    start = time.monotonic()
    for spec in (m1, m2_2, m2_5, m2_10, m2_20, m2_50, m2_100, m3_5, m3_20, m3_50, m3_100):
        report = validate(spec)
        assert report.all_ok, (spec.name, spec.n_paths)
        assert report.unitarity_max_deviation < 1e-9
        assert report.local_probability_max_deviation < 1e-9
        assert report.separability1_max_deviation < 1e-9
        assert report.separability2_max_deviation < 1e-9
    assert _elapsed_under(start, 5.0)


def test_large_machines_build_and_validate_without_a_states_by_states_array():
    """build_m3(40) holds 2,608 states; one dense matrix of them alone is 109 MB."""
    start = time.monotonic()
    tracemalloc.start()
    try:
        report = validate(build_m3(40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_ok
    assert peak < 100 * 2**20, peak
    assert _elapsed_under(start, 30.0)


def test_probability_mass_is_conserved_stepwise_on_200_random_words(m1, m2_5, m3_5):
    start = time.monotonic()
    rng = random.Random(20260814)
    plan = [(m1, 67), (m2_5, 67), (m3_5, 66)]
    for spec, count in plan:
        alphabet = spec.input_alphabet
        for _ in range(count):
            length = rng.randrange(0, 17)
            word = "".join(rng.choice(alphabet) for _ in range(length))
            result = run(spec, word, trace=True)
            for p_accept, p_reject, p_residual in result.trace:
                assert abs(p_accept + p_reject + p_residual - 1.0) < 1e-9
    assert _elapsed_under(start, 30.0)


def test_single_path_machine_gives_deterministic_verdicts_up_to_length_12(m1):
    start = time.monotonic()
    checked = 0
    for length in range(1, 13):
        for letters in itertools.product("ab", repeat=length):
            word = "".join(letters)
            result = run(m1, word)
            assert result.halted
            assert min(result.p_accept, 1.0 - result.p_accept) < 1e-9
            assert result.steps <= 64 * (length + 2)
            checked += 1
    assert checked == 8190
    assert _elapsed_under(start, 60.0)


@pytest.mark.parametrize("n_paths", [2, 5, 10, 20, 50, 100])
def test_bracket_machine_meets_its_error_bound(n_paths):
    start = time.monotonic()
    spec = build_m2(n_paths)
    floor = 1.0 - 1.0 / n_paths - 1e-6
    for word in words_up_to(("(", ")"), 10):
        if word.count("(") != word.count(")"):
            assert run(spec, word).p_reject >= floor, word
    for depth in range(1, 7):
        word = "(" * depth + ")" * depth
        assert run(spec, word).p_accept >= 1 - 1e-6, word
    assert _elapsed_under(start, 180.0)


def test_triple_block_machine_meets_its_error_bound(m3_5):
    start = time.monotonic()
    floor = 1.0 - 1.0 / 5 - 1e-6
    members = 0
    for word in words_up_to(("a", "b", "c"), 9):
        result = run(m3_5, word)
        assert result.halted, word
        if membership(LanguageId.L3, word):
            assert result.p_accept >= 1 - 1e-6, word
            members += 1
        elif _is_block_shaped(word):
            assert result.p_reject >= floor, word
        else:
            assert result.p_reject >= 1 - 1e-9, word
    assert members == 3
    assert _elapsed_under(start, 180.0)


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """`total` as a sum of `parts` positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _long_bracket_words(rng: random.Random, n: int) -> list[str]:
    """Block-shaped words: equal counts, unequal counts, and random blocks."""
    blocks = rng.randint(1, 8)
    opens = [n // 2, n // 2 + rng.choice((-1, 1)) * rng.randint(1, n // 8)]
    words = [
        "".join("(" * a + ")" * b for a, b in zip(_split(rng, o, blocks), _split(rng, n - o, blocks)))
        for o in opens
    ]
    return words + ["(" + "".join(rng.choice("()") for _ in range(n - 2)) + ")"]


def _long_triple_words(rng: random.Random, n: int) -> list[str]:
    """aˣbʸcᶻ with all, two and no counts equal, and a random word."""
    x = n // 3
    y = rng.randint(1, x - 1)
    counts = [(x, x, x), (x, x + y, x), (x, y, n - x - y)]
    words = ["a" * a + "b" * b + "c" * c for a, b, c in counts]
    return words + ["".join(rng.choice("abc") for _ in range(n))]


def _assert_closed_form(spec, word, p_accept):
    result = run(spec, word)
    assert result.halted, word
    assert abs(result.p_accept - p_accept) <= 1e-12, word
    assert abs(result.p_reject - (1.0 - p_accept)) <= 1e-12, word


@pytest.mark.parametrize("n_paths", [2, 5, 10, 20, 50, 100])
def test_bracket_and_triple_block_machines_match_their_closed_forms(n_paths, request):
    """Every N runs the long bracket words (up to 4,096 letters) and triple words (up to 192).

    A run's table holds one row reference a tape cell, so a long word costs
    no S entries a cell at 2,000 to 15,500 states.  m3's second stage keeps
    N^2 branch pairs live, so from N = 50 on the short triple words stop at
    length 5.
    """
    start = time.monotonic()
    rng = random.Random(20261018 + n_paths)
    large = n_paths >= 50
    m2, m3 = (request.getfixturevalue(f"{name}_{n_paths}") for name in ("m2", "m3"))
    brackets = list(words_up_to(("(", ")"), 10))
    brackets.append("(" * 6 + ")" * 6)  # the deepest word of the bound test
    for n in (64, 512, 4096):
        brackets += _long_bracket_words(rng, n)
    for word in brackets:
        _assert_closed_form(m2, word, m2_accept(word, n_paths))
    triples = list(words_up_to(("a", "b", "c"), 5 if large else 9 if n_paths == 5 else 7))
    for n in (48, 96, 192):
        triples += _long_triple_words(rng, n)
    for word in triples:
        _assert_closed_form(m3, word, m3_accept(word, n_paths))
    assert _elapsed_under(start, 120.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=4),
    st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
)
def test_random_block_words_match_the_closed_forms(m2_5, m3_5, brackets, triple):
    word = "".join("(" * a + ")" * b for a, b in brackets)
    _assert_closed_form(m2_5, word, m2_accept(word, 5))
    word = "a" * triple[0] + "b" * triple[1] + "c" * triple[2]
    _assert_closed_form(m3_5, word, m3_accept(word, 5))


@pytest.mark.parametrize("n_paths", [2, 3, 5, 7, 10, 50, 100])
def test_one_block_words_halt_after_their_exact_step_counts(n_paths):
    """The linear-time halting as a formula: a skipped or repeated step fails it."""
    start = time.monotonic()
    m2 = build_m2(n_paths)
    for opens, closes in itertools.product(range(1, 9), repeat=2):
        result = run(m2, "(" * opens + ")" * closes)
        assert result.halted, (opens, closes)
        assert result.steps == m2_steps(opens, closes, n_paths), (opens, closes)
    if n_paths in (2, 5, 50, 100):
        m3 = build_m3(n_paths)
        for k in range(1, 8):
            result = run(m3, "a" * k + "b" * k + "c" * k)
            assert result.halted, k
            assert result.steps == m3_steps(k, n_paths), k
    assert _elapsed_under(start, 60.0)


def _is_block_shaped(word: str) -> bool:
    trimmed = word.lstrip("a")
    trimmed = trimmed.lstrip("b")
    trimmed = trimmed.lstrip("c")
    return (
        trimmed == ""
        and "a" in word
        and "b" in word
        and "c" in word
    )


@pytest.mark.parametrize("name", ["m2", "m3"])
def test_runtime_grows_linearly_under_input_doubling(name):
    start = time.monotonic()
    spec = build_m2(5) if name == "m2" else build_m3(5)
    steps = {}
    for n in (8, 16, 32, 64):
        if name == "m2":
            word = "(" * (n // 2) + ")" * (n // 2)
        else:
            third = -(-n // 3)
            word = "a" * third + "b" * third + "c" * (n - 2 * third)
        result = run(spec, word)
        assert result.halted
        steps[n] = result.steps
    for n in (8, 16, 32):
        assert steps[2 * n] / steps[n] <= 2.2, (name, n, steps)
    assert _elapsed_under(start, 60.0)


def test_classical_oracles_agree_and_the_fourier_matrix_is_unitary():
    start = time.monotonic()
    dyck = dyck_pda()
    for word in words_up_to(("(", ")"), 12):
        assert run_pda(dyck, word) is membership(LanguageId.L2_DYCK, word), word
    triple = l3_pda()
    for word in words_up_to(("a", "b", "c"), 12):
        assert run_pda(triple, word) is membership(LanguageId.L3, word), word
    for n in range(1, 17):
        matrix = qft_matrix(n)
        deviation = np.max(np.abs(matrix.conj().T @ matrix - np.eye(n)))
        assert deviation < 1e-12, n
    assert _elapsed_under(start, 60.0)


def test_differential_sweep_produces_a_complete_report(m1):
    start = time.monotonic()
    report = sweep_compare(m1, LanguageId.L1_REGEX, max_len=10)
    assert report.total_words == 2047
    assert report.max_len == 10
    assert not report.bound_checked
    for row in report.mismatches:
        assert isinstance(row.word, str)
        assert isinstance(row.oracle_accepts, bool)
        assert isinstance(row.machine_accepts, bool)
        assert row.oracle_accepts != row.machine_accepts
    obj = report.to_json_obj()
    assert obj["total_words"] == 2047
    assert obj["mismatch_count"] == len(report.mismatches)
    assert _elapsed_under(start, 60.0)
