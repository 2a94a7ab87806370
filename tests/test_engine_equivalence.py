"""The simulator and the derived validator against their references.

``run`` and ``step`` advance a frontier of live configurations on a
machine whose matrices are mostly zeros and multiply the whole amplitude
array, one matrix per tape symbol, on a denser one; ``reference_run`` and
``reference_step`` take every step on the dense engine.  They sum the same
products in a different order, so amplitudes and probabilities agree to
1e-12, not bit for bit, while step counts and halting agree exactly.

``validate`` derives local probability and separability from unitarity;
the masked-matrix validator computes them, so on the same machines every
flag agrees and every deviation agrees to 1e-12 (unitarity bit for bit).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import example, find, given, settings
from hypothesis import strategies as st
from reference_engine import reference_run, reference_step
from reference_validate import masked_validate

from twoqfa import core
from twoqfa.core import initial_vector, measure, run, step
from twoqfa.machine import DEFAULT_TOLERANCE, TwoWayQfaSpec, validate
from twoqfa.machines import build_m1, build_m2, build_m3
from twoqfa.specfile import dumps_spec, loads_spec

TOLERANCE = 1e-12

_BUNDLED = {
    "m1": (build_m1(), "ab"),
    "m2_2": (build_m2(2), "()"),
    "m2_5": (build_m2(5), "()"),
    "m3_2": (build_m3(2), "abc"),
    "m3_5": (build_m3(5), "abc"),
}


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    """A unitary with one nonzero per column: a permutation with random phases."""
    return np.eye(n)[rng.permutation(n)] * np.exp(2j * np.pi * rng.random(n))


def _sparse_contraction(rng: np.random.Generator, n: int) -> np.ndarray:
    """A non-unitary matrix with about half its entries zero and norm 1."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z *= rng.random((n, n)) < 0.5
    norm = np.linalg.norm(z, 2)
    return z / norm if norm > 0 else z


#: random matrices by kind: Haar unitaries are dense, permutations sparse
#: from three states on, and contractions fall on either side of the rule
_MATRICES = {"haar": _haar, "permutation": _permutation, "contraction": _sparse_contraction}


def _machine(alphabet, kind, seed, moves, roles):
    """A machine with one random matrix of the given kind per tape symbol.

    moves gives each state's head move; roles marks every state after the
    initial one as running ("n"), accepting ("a") or rejecting ("r").
    """
    n = len(moves)
    rng = np.random.default_rng(seed)
    make = _MATRICES[kind]
    states = tuple(f"s{i}" for i in range(n))
    return TwoWayQfaSpec(
        states=states,
        input_alphabet=alphabet,
        initial_state=states[0],
        accept_states=frozenset(s for s, r in zip(states[1:], roles) if r == "a"),
        reject_states=frozenset(s for s, r in zip(states[1:], roles) if r == "r"),
        symbol_unitaries={s: make(rng, n) for s in ("#",) + alphabet + ("$",)},
        head_fn=dict(zip(states, moves)),
        name="random",
    )


@st.composite
def _random_machines(draw):
    """A random machine, a word over its alphabet and a step budget."""
    n = draw(st.integers(2, 12))
    alphabet = draw(st.sampled_from([("a",), ("a", "b"), ("a", "b", "c")]))
    kind = draw(st.sampled_from(sorted(_MATRICES)))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        moves = [0] * n
    else:
        moves = [draw(st.sampled_from((-1, 0, 1))) for _ in range(n)]
    roles = draw(st.lists(st.sampled_from("nar"), min_size=n - 1, max_size=n - 1))
    spec = _machine(alphabet, kind, seed, moves, roles)
    word = draw(st.text(alphabet="".join(alphabet), max_size=12))
    max_steps = draw(st.integers(1, 16)) if kind == "contraction" else None
    return spec, word, max_steps


# Twelve Haar-random states on an 86-letter word (1,056 cells): the live
# configurations grow by 20 a step until, from step 44 on, all 880 cells of
# the ten running states are live; the run halts after 574 steps, every one
# of them on the dense engine.
_LONG_TAPE_HAAR = (
    _machine(("a", "b"), "haar", 0, [i % 3 - 1 for i in range(12)], "n" * 9 + "ar"),
    "ab" * 43,
    None,
)


@st.composite
def _bundled_machines(draw):
    spec, alphabet = _BUNDLED[draw(st.sampled_from(sorted(_BUNDLED)))]
    return spec, draw(st.text(alphabet=alphabet, max_size=12)), None


def _assert_runs_agree(spec, word, max_steps):
    got = run(spec, word, max_steps=max_steps, trace=True)
    want = reference_run(spec, word, max_steps=max_steps, trace=True)
    assert got.steps == want.steps
    assert got.halted == want.halted
    assert abs(got.p_accept - want.p_accept) <= TOLERANCE
    assert abs(got.p_reject - want.p_reject) <= TOLERANCE
    assert abs(got.p_residual - want.p_residual) <= TOLERANCE
    assert np.abs(np.array(got.trace) - np.array(want.trace)).max() <= TOLERANCE


def _assert_steps_agree(spec, word, steps):
    got = initial_vector(spec, word)
    want = got.copy()
    for _ in range(steps):
        got = step(spec, word, got)
        want = reference_step(spec, word, want)
        assert np.abs(got.data - want.data).max() <= TOLERANCE
        _, _, got = measure(spec, got)
        _, _, want = measure(spec, want)


@settings(max_examples=60, deadline=None)
@given(_bundled_machines())
def test_bundled_machines_run_alike_on_both_engines(case):
    _assert_runs_agree(*case)


@settings(max_examples=150, deadline=None)
@given(_random_machines())
@example(_LONG_TAPE_HAAR)
def test_random_machines_run_alike_on_both_engines(case):
    _assert_runs_agree(*case)


def _engines_of(spec: TwoWayQfaSpec) -> tuple[str, str]:
    """The engines ``run`` and ``step`` take on `spec`, seen from the class each builds."""
    word = spec.input_alphabet[0]
    engines = []
    for call in (lambda: run(spec, word, max_steps=1),
                 lambda: step(spec, word, initial_vector(spec, word))):
        with mock.patch.object(core, "_Frontier", wraps=core._Frontier) as frontier, \
                mock.patch.object(core, "_Evolution", wraps=core._Evolution) as evolution:
            call()
        assert frontier.call_count + evolution.call_count == 1
        engines.append("frontier" if frontier.called else "dense")
    return tuple(engines)


def test_each_machine_family_takes_its_engine(
    m1, m2_2, m2_5, m2_10, m2_20, m3_2, m3_5, m3_10, m3_20
):
    bundled = [m1, m2_2, m2_5, m2_10, m2_20, m3_2, m3_5, m3_10, m3_20]
    assert {_engines_of(spec) for spec in bundled} == {("frontier", "frontier")}
    haar = [
        _machine(("a", "b"), "haar", seed, [seed % 3 - 1] * n, "n" * (n - 5) + "aarr")
        for seed, n in enumerate((16, 24, 32, 48))
    ]
    assert {_engines_of(spec) for spec in haar} == {("dense", "dense")}
    for spec in (m2_5, haar[0]):
        assert _engines_of(loads_spec(dumps_spec(spec))) == _engines_of(spec)


def test_random_machines_reach_both_engines():
    for engine in ("frontier", "dense"):
        find(_random_machines(), lambda case: _engines_of(case[0]) == (engine, engine))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_bundled_machines(), _random_machines()))
def test_stepwise_vectors_agree_on_both_engines(case):
    spec, word, max_steps = case
    _assert_steps_agree(spec, word, min(max_steps or 12, 12))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(_bundled_machines(), _random_machines()),
    st.sampled_from((DEFAULT_TOLERANCE, 0.0, 0.5)),
)
def test_validate_agrees_with_the_masked_matrix_validator(case, tolerance):
    spec = case[0]
    got = validate(spec, tolerance)
    want = masked_validate(spec, tolerance)
    assert got.unitarity_max_deviation == want.unitarity_max_deviation
    for check in ("unitarity", "local_probability", "separability1", "separability2"):
        assert getattr(got, f"{check}_ok") == getattr(want, f"{check}_ok"), check
        deviation = getattr(got, f"{check}_max_deviation")
        assert abs(deviation - getattr(want, f"{check}_max_deviation")) <= TOLERANCE, check
    assert got.tolerance == want.tolerance
    assert got.padded_entries == want.padded_entries
