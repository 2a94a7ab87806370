"""The bundled machines and the Fourier acceptance matrix."""

from __future__ import annotations

import math

import numpy as np
import pytest

from twoqfa.core import initial_vector, measure, run, step
from twoqfa.machine import validate
from twoqfa import machines
from twoqfa.machines import (
    MAX_N_PATHS,
    MAX_QFT_N,
    build,
    build_m1,
    build_m2,
    build_m3,
    qft_matrix,
)

# empirically measured worst case is 1.9 (short words) and about 1.4 on the
# linear families; 3 is the frozen regression ceiling
STEP_BOUND_FACTOR = 3


def test_qft_n1_is_the_identity():
    assert np.allclose(qft_matrix(1), np.array([[1.0 + 0j]]), atol=1e-12)


def test_qft_n2_matches_the_direct_evaluation():
    value = 1 / math.sqrt(2)
    expected = np.array([[-value, value], [value, value]], dtype=complex)
    assert np.allclose(qft_matrix(2), expected, atol=1e-15)


@pytest.mark.parametrize("n", range(1, 17))
def test_qft_is_unitary(n):
    matrix = qft_matrix(n)
    deviation = np.max(np.abs(matrix.conj().T @ matrix - np.eye(n)))
    assert deviation < 1e-12


def test_qft_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        qft_matrix(0)


def test_synchronised_paths_interfere_onto_the_last_state():
    for n in (2, 5, 8):
        matrix = qft_matrix(n)
        uniform = np.full(n, 1 / math.sqrt(n), dtype=complex)
        out = matrix @ uniform
        masses = np.abs(out) ** 2
        assert masses[-1] == pytest.approx(1.0, abs=1e-9)
        assert masses[:-1] == pytest.approx(np.zeros(n - 1), abs=1e-9)


def test_interference_argmax_ignores_global_phase():
    matrix = qft_matrix(5)
    uniform = np.full(5, 1 / math.sqrt(5), dtype=complex)
    rotated = np.exp(0.37j) * uniform
    masses = np.abs(matrix @ uniform) ** 2
    rotated_masses = np.abs(matrix @ rotated) ** 2
    assert int(np.argmax(masses)) == int(np.argmax(rotated_masses))
    assert masses == pytest.approx(rotated_masses, abs=1e-12)


def test_m1_has_twelve_states_and_binary_amplitudes(m1):
    assert len(m1.states) == 12
    assert m1.accept_states == frozenset({"q_a1", "q_a2"})
    assert m1.reject_states == frozenset({"q_r1", "q_r2"})
    for symbol in m1.tape_alphabet:
        matrix = m1.symbol_unitaries[symbol]
        assert set(np.unique(matrix)) <= {0, 1}


def test_m1_rows_are_exactly_orthogonal(m1):
    # 0/1 entries allow an exact integer check, no tolerance involved
    for symbol in m1.tape_alphabet:
        matrix = m1.symbol_unitaries[symbol].real.astype(int)
        gram = matrix @ matrix.T
        assert np.array_equal(gram, np.eye(len(m1.states), dtype=int))


def test_m1_validates(m1):
    assert validate(m1).all_ok


@pytest.mark.parametrize("n", [2, 5, 10])
def test_m2_state_count_follows_the_index_set(n):
    spec = build_m2(n)
    counters = sum(max(i, n - i + 1) + 1 for i in range(1, n + 1))
    assert len(spec.states) == 4 + counters + n + 3 * n + 1


def test_m2_2_has_nineteen_states(m2_2):
    assert len(m2_2.states) == 19


def test_m2_partitions_match_the_construction(m2_5):
    assert m2_5.accept_states == frozenset({"p_5"})
    expected_reject = (
        {"q_r"}
        | {f"p_{k}" for k in range(1, 5)}
        | {f"r_{i}_0" for i in range(1, 6)}
    )
    assert m2_5.reject_states == frozenset(expected_reject)


def test_m2_accepts_balanced_and_rejects_lopsided(m2_5):
    assert run(m2_5, "()").p_accept >= 1 - 1e-6
    assert run(m2_5, "(((").p_reject >= 0.8


def test_m3_partitions_match_the_construction(m3_5):
    assert m3_5.accept_states == frozenset({"p_5"})
    assert {"r_1", "r_2", "h_1", "h_4", "p_1"} <= m3_5.reject_states
    assert "h_5" not in m3_5.reject_states


def test_m3_example_words(m3_5):
    assert run(m3_5, "abc").p_accept >= 1 - 1e-6
    assert run(m3_5, "aabbc").p_reject >= 0.8 - 1e-6
    assert run(m3_5, "cab").p_reject == pytest.approx(1.0, abs=1e-9)


def test_builders_reject_single_path_splits():
    with pytest.raises(ValueError):
        build_m2(1)
    with pytest.raises(ValueError):
        build_m3(1)


def test_builders_reject_one_path_past_their_caps(monkeypatch):
    """Past the caps the size check fails before a state or a matrix entry is made."""

    def unbuilt(*args):
        raise AssertionError("built past the cap")

    monkeypatch.setattr(machines, "_paced_paths", unbuilt)
    monkeypatch.setattr(machines.np, "outer", unbuilt)
    for builder in (build_m2, build_m3):
        with pytest.raises(ValueError, match=f"at most {MAX_N_PATHS}$"):
            builder(MAX_N_PATHS + 1)
        with pytest.raises(ValueError, match=f"at most {MAX_N_PATHS}$"):
            build(builder.__name__[-2:], MAX_N_PATHS + 1)
    with pytest.raises(ValueError, match=f"at most {MAX_QFT_N}$"):
        qft_matrix(MAX_QFT_N + 1)


def test_build_dispatcher_enforces_path_arguments():
    assert build("m1") == build_m1()
    assert build("m2", 2) == build_m2(2)
    assert build("m3", 2) == build_m3(2)
    with pytest.raises(ValueError):
        build("m1", 5)
    with pytest.raises(ValueError):
        build("m2")
    with pytest.raises(ValueError):
        build("nope", 2)


def _residual_snapshots(spec, word):
    """Yield the residual vector after each step+measure round."""
    vector = initial_vector(spec, word)
    for _ in range(64 * spec.n_paths * (len(word) + 2)):
        vector = step(spec, word, vector)
        _, _, vector = measure(spec, vector)
        yield vector
        if vector.norm_squared() < 1e-12:
            return


def test_m3_wavefront_is_uniform_before_each_recombination(m3_5):
    """On an equal-count word both splits arrive in lockstep.

    Right before each Fourier application the residual sits entirely on the
    moving branch states at one marker, every amplitude exactly 1/sqrt(N);
    one step later the mass is concentrated on a single state.
    """
    word = "aabbcc"
    uniform = pytest.approx(1 / math.sqrt(5), abs=1e-12)
    seen = []
    snapshots = list(_residual_snapshots(m3_5, word))
    for before, after in zip(snapshots, snapshots[1:]):
        entries = before.entries()
        states = {cfg.state for cfg in entries}
        if states == {f"g_{i}_0" for i in range(1, 6)} and {
            cfg.position for cfg in entries
        } == {0}:
            assert all(abs(a) == uniform for a in entries.values())
            landed = after.entries()
            assert {cfg.state for cfg in landed} == {"h_5"}
            assert sum(abs(a) ** 2 for a in landed.values()) == pytest.approx(1.0, abs=1e-9)
            seen.append("bc")
        if states == {f"m_{i}_0" for i in range(1, 6)}:
            positions = {cfg.position for cfg in entries}
            if positions == {len(word) + 1}:
                assert all(abs(a) == uniform for a in entries.values())
                seen.append("ab")
    assert seen == ["bc", "ab"]


def _family_word(name: str, n: int) -> str:
    if name == "m2":
        return "(" * (n // 2) + ")" * (n // 2)
    third = -(-n // 3)
    return "a" * third + "b" * third + "c" * (n - 2 * third)


@pytest.mark.parametrize("name", ["m2", "m3"])
def test_halting_steps_stay_under_the_frozen_linear_bound(name, m2_5, m3_5):
    spec = m2_5 if name == "m2" else m3_5
    for n in (8, 16, 32, 64):
        word = _family_word(name, n)
        result = run(spec, word)
        assert result.halted
        assert result.steps <= STEP_BOUND_FACTOR * spec.n_paths * (n + 2)
