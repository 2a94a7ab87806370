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

import copy
import math
import pickle
import re
from dataclasses import fields, replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st
from reference_engine import reference_run, reference_step
from reference_validate import masked_validate

from twoqfa import core
from twoqfa.core import AmplitudeVector, CycleAnchor, Mover, initial_vector, measure, run, step
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


def _relabel(rng: np.random.Generator, n: int) -> np.ndarray:
    """A permutation whose columns carry exactly 1 or, about half of them, a random phase."""
    phases = np.where(rng.random(n) < 0.5, 1, np.exp(2j * np.pi * rng.random(n)))
    return np.eye(n)[rng.permutation(n)] * phases


def _meeting(sign: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """Not unitary: a relabel matrix in which sources 1 and 2 meet on one target.

    Source 0 splits evenly over states 1 and 2; source 1 goes to its target
    with weight 1 and source 2 to the same target with weight `sign`.  When
    states 1 and 2 share a head move, the two halves reach that target at
    the same step, where sign -1 cancels them exactly.
    """
    matrix = _relabel(rng, n)
    if n >= 3:
        target = np.flatnonzero(matrix[:, 1])[0]
        matrix[:, :3] = 0
        matrix[[1, 2], 0] = np.sqrt(0.5)
        matrix[target, 1] = 1
        matrix[target, 2] = sign
    return matrix


#: random matrices by kind: Haar unitaries are dense, the permutations and
#: relabels (permutations with weights exactly 1) sparse from three states on,
#: and contractions fall on either side of the rule; merge and cancel are
#: relabels whose paths meet with weights 1 and 1 or 1 and -1
_MATRICES = {
    "haar": _haar,
    "permutation": _permutation,
    "relabel": _relabel,
    "contraction": _sparse_contraction,
    "merge": partial(_meeting, 1),
    "cancel": partial(_meeting, -1),
}
_UNITARY = {"haar", "permutation", "relabel"}


def _machine(alphabet, kind, seed, moves, roles):
    """A machine with one random matrix of the given kind per tape symbol.

    moves gives each state's head move; roles marks every state, the
    initial one first, as running ("n"), accepting ("a") or rejecting ("r").
    """
    n = len(moves)
    rng = np.random.default_rng(seed)
    make = _MATRICES[kind]
    states = tuple(f"s{i}" for i in range(n))
    return TwoWayQfaSpec(
        states=states,
        input_alphabet=alphabet,
        initial_state=states[0],
        accept_states=frozenset(s for s, r in zip(states, roles) if r == "a"),
        reject_states=frozenset(s for s, r in zip(states, roles) if r == "r"),
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
    roles = draw(st.lists(st.sampled_from("nar"), min_size=n, max_size=n))
    spec = _machine(alphabet, kind, seed, moves, roles)
    word = draw(st.text(alphabet="".join(alphabet), max_size=12))
    max_steps = None if kind in _UNITARY else draw(st.integers(1, 40))
    return spec, word, max_steps


# Twelve Haar-random states on an 86-letter word (1,056 cells): the live
# configurations grow by 20 a step until, from step 44 on, all 880 cells of
# the ten running states are live; the run halts after 574 steps, every one
# of them on the dense engine.
_LONG_TAPE_HAAR = (
    _machine(("a", "b"), "haar", 0, [i % 3 - 1 for i in range(12)], "n" * 10 + "ar"),
    "ab" * 43,
    None,
)


# Weight-1 columns on both markers, onto running states (pure relabels) and
# onto halting ones, among them relabels whose head wraps from the right
# marker to the left one.
_RELABEL = (_machine(("a", "b"), "relabel", 6, [0, 1, -1, 1, -1, 0], "nnnnar"), "abba", None)
# Two halves that meet on a running state, through two relabels: a step that
# stores the second relabel instead of adding it loses half the amplitude.
_MERGE = (_machine(("a", "b"), "merge", 7, [1, 0, 0, -1, 1, 0], "nnnnnr"), "abab", 40)
# The same meeting with weights 1 and -1: the halves cancel exactly at step 2.
_CANCEL = (_machine(("a", "b"), "cancel", 0, [1, 0, 0, -1, 1, 0], "nnnnnr"), "abab", 40)
# Initial states that halt: the first step reads the initial state's row,
# which the dense engine's later steps skip, and the frontier's first key.
_ACCEPTING_START = (
    _machine(("a", "b"), "haar", 8, [i % 3 - 1 for i in range(16)], "a" + "n" * 12 + "arr"),
    "abba",
    None,
)
_REJECTING_START = (
    _machine(("a", "b"), "relabel", 20, [1, 0, -1, 1, 0, -1], "rnnnan"), "abab", None
)


@st.composite
def _bundled_machines(draw):
    spec, alphabet = _BUNDLED[draw(st.sampled_from(sorted(_BUNDLED)))]
    return spec, draw(st.text(alphabet=alphabet, max_size=12)), None


def _close(got, want) -> bool:
    """Within 1e-12 absolute for magnitudes up to 1 and 1e-12 relative above.

    The probabilities of a unitary machine never exceed 1; the mass of a
    non-unitary one can grow, and two summation orders then differ in the
    last bits of a large number (8,192.000000000015 against ...018).
    """
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= TOLERANCE * np.maximum(1, np.abs(want))))


def _assert_runs_agree(spec, word, max_steps):
    got = run(spec, word, max_steps=max_steps, trace=True)
    want = reference_run(spec, word, max_steps=max_steps, trace=True)
    assert got.steps == want.steps
    assert got.halted == want.halted
    assert _close(got.p_accept, want.p_accept)
    assert _close(got.p_reject, want.p_reject)
    assert _close(got.p_residual, want.p_residual)
    assert _close(got.trace, want.trace)


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
@example(_RELABEL)
@example(_MERGE)
@example(_CANCEL)
@example(_ACCEPTING_START)
@example(_REJECTING_START)
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
        _machine(("a", "b"), "haar", seed, [seed % 3 - 1] * n, "n" * (n - 4) + "aarr")
        for seed, n in enumerate((16, 24, 32, 48))
    ]
    assert {_engines_of(spec) for spec in haar} == {("dense", "dense")}
    for spec in (m2_5, haar[0]):
        assert _engines_of(loads_spec(dumps_spec(spec))) == _engines_of(spec)


def test_random_machines_reach_both_engines():
    for engine in ("frontier", "dense"):
        find(_random_machines(), lambda case: _engines_of(case[0]) == (engine, engine))


@pytest.fixture
def built():
    """A spy that counts the engine tables built while the test runs."""
    with mock.patch.object(core, "_Machine", wraps=core._Machine) as spy:
        yield spy


#: a maker of fresh specs on each engine and two words of the same length
_ENGINES = pytest.mark.parametrize(
    "make, first, second",
    [
        (lambda: build_m2(10), "()", ")("),
        (lambda: _machine(("a", "b"), "haar", 5, [1, -1, 0, 1, 0, -1], "nnnnar"), "ab", "ba"),
    ],
    ids=["frontier", "dense"],
)


def test_a_spec_builds_no_engine_tables_until_it_runs(built):
    """Building, validating, saving and loading a machine leave only its matrices on the spec."""
    spec = build_m2(10)
    assert validate(spec).all_ok
    loaded = loads_spec(dumps_spec(spec))
    assert built.call_count == 0
    for stored in (spec, loaded):
        assert set(vars(stored)) - {f.name for f in fields(stored)} == {"_columns", "_state_index"}


@_ENGINES
def test_a_pickled_or_copied_spec_leaves_the_tables_out(make, first, second):
    """Pickles and copies of a spec leave out the tables a run builds, and run as the spec."""
    spec = make()
    before = pickle.dumps(spec)
    word = first + second
    for repeat in range(1, 6):
        run(spec, first * repeat)
    result = run(spec, word, trace=True)
    step(spec, word, initial_vector(spec, word))
    assert "_tables" in vars(spec)
    assert pickle.dumps(spec) == before
    for copied in (pickle.loads(before), copy.deepcopy(spec), copy.copy(spec)):
        assert "_tables" not in vars(copied)
        assert run(copied, word, trace=True) == result
        assert core._machine(copied) is not core._machine(spec)


@_ENGINES
def test_runs_and_a_stepwise_loop_build_the_tables_once(built, make, first, second):
    spec = make()
    word = first + second
    assert run(spec, word, trace=True) == run(spec, word, trace=True)
    vector = initial_vector(spec, word)
    for _ in range(5):
        _, _, vector = measure(spec, step(spec, word, vector))
    assert built.call_count == 1


@_ENGINES
def test_stepping_another_word_replaces_the_kept_step_tables(make, first, second):
    """``step`` keeps the tables of the last word only, and never steps a word on another's."""
    spec = make()
    vector = initial_vector(spec, first)
    once = step(spec, first, vector).data
    machine = core._machine(spec)
    kept = machine.step_tables
    assert np.array_equal(step(spec, first, vector).data, once) and machine.step_tables is kept
    other = step(spec, second, initial_vector(spec, second)).data
    assert machine.step_word == second and machine.step_tables is not kept
    fresh = make()
    assert np.array_equal(other, step(fresh, second, initial_vector(fresh, second)).data)
    assert np.array_equal(step(spec, first, vector).data, once)
    assert machine.step_word == first and machine.step_tables is not kept


def test_relabels_that_meet_stay_tuples(m2_10, m3_5):
    """Only a column whose target no other source reaches is stored as an int.

    Sources 1 and 2 of every merge and cancel matrix share one target, so
    their columns stay tuples and a step sums them; every int column of the
    unitary bundled machines qualifies.
    """
    for spec, _, _ in (_MERGE, _CANCEL):
        for entries in core._machine(spec).steps:
            assert isinstance(entries[1], tuple) and isinstance(entries[2], tuple)
    for spec, ints in ((m2_10, 446), (m3_5, 284)):
        steps = core._machine(spec).steps
        assert sum(entry.__class__ is int for entries in steps for entry in entries) == ints


def _events(spec, word) -> tuple[core.RunResult, list[int]]:
    """A traced run and the steps at which it took a full step."""
    events = []
    advance = core._Frontier.advance

    def spy(self, due=0):
        events.append(due + 1)
        return advance(self, due)

    with mock.patch.object(core._Frontier, "advance", spy):
        result = run(spec, word, trace=True)
    return result, events


def _steps_and_advances(spec, word) -> tuple[int, int]:
    """The steps of a run and how many of them were full steps, not coasted."""
    result, events = _events(spec, word)
    return result.steps, len(events)


def test_frontier_runs_coast_through_relabel_steps(m2_10, m3_5):
    """Bundled runs take a full step only where some key meets a non-relabel."""
    assert _steps_and_advances(m2_10, "(" * 16 + ")" * 16) == (248, 3)
    assert _steps_and_advances(m3_5, "a" * 14 + "b" * 14 + "c" * 14) == (303, 5)


#: a member and a word of unequal counts for each machine; members halt at
#: one full step, the others lose their mass over several
_MEMBERS = [("m2_10", "(" * 16 + ")" * 16), ("m3_5", "a" * 14 + "b" * 14 + "c" * 14)]
_UNEQUAL = [("m2_10", "(" * 12 + ")" * 16), ("m3_5", "a" * 10 + "b" * 14 + "c" * 12)]
_EVENT_RUNS = _MEMBERS + _UNEQUAL


@pytest.mark.parametrize("name, word", _EVENT_RUNS)
def test_coasted_steps_repeat_the_last_trace_row(name, word, request):
    """Between two full steps the residual stays and no halting mass is gained."""
    spec = request.getfixturevalue(name)
    result, events = _events(spec, word)
    assert result.halted and events[-1] == result.steps
    assert 1 < len(events) < result.steps / 10
    assert result.trace[0] == (0.0, 0.0, 1.0)
    for steps in set(range(2, result.steps + 1)) - set(events):
        assert result.trace[steps - 1] == result.trace[steps - 2], steps
    assert _close(result.trace, reference_run(spec, word, trace=True).trace)


@pytest.mark.parametrize("name, word", _EVENT_RUNS)
def test_every_budget_ends_the_run_at_its_step(name, word, request):
    """A budget that ends between two full steps stops there, not at either event.

    A run cut at step b is the first b steps of the whole run: not halted
    unless b is the halting step, with the residual and the sums of its
    last trace row.
    """
    spec = request.getfixturevalue(name)
    whole, events = _events(spec, word)
    between = [b for b in range(1, whole.steps) if b not in events]
    assert len(between) > 0.9 * whole.steps
    for budget in range(1, whole.steps + 1):
        cut = _cut_run(spec, word, budget)
        assert cut.steps == budget
        assert cut.halted is (budget == whole.steps)
        assert cut.trace == whole.trace[:budget]
        assert (cut.p_accept, cut.p_reject, cut.p_residual) == whole.trace[budget - 1]


@pytest.mark.parametrize("name, word", _UNEQUAL)
def test_a_halt_threshold_is_crossed_at_a_full_step(name, word, request):
    """The residual moves only on full steps, so a run halts on one of them."""
    spec = request.getfixturevalue(name)
    whole, events = _events(spec, word)
    threshold = 0.45
    at = next(b for b, row in enumerate(whole.trace, 1) if row[2] < threshold)
    assert at in events and at < whole.steps
    result = run(spec, word, halt_threshold=threshold, trace=True)
    assert result.halted and result.steps == at
    _assert_halted_prefix(result, whole)
    assert result.p_residual < threshold <= whole.trace[at - 2][2]


def _assert_halted_prefix(result, whole):
    """`result`, halted early, has the rows of the whole run up to its halting step.

    The frontier keeps a running residual and sums it exactly when it falls
    near the threshold, so the halting row's residual is the exact sum and
    the whole run's may differ from it in its last bits.
    """
    at = result.steps
    assert result.trace[:at - 1] == whole.trace[:at - 1]
    assert result.trace[-1][:2] == whole.trace[at - 1][:2]
    assert abs(result.trace[-1][2] - whole.trace[at - 1][2]) <= 1e-12
    assert (result.p_accept, result.p_reject, result.p_residual) == result.trace[-1]


def _always_resummed(spec, word, **options) -> core.RunResult:
    """A run whose frontier sums its live keys exactly at every full step."""
    with mock.patch.object(core, "_RESUM_MARGIN", math.inf):
        return run(spec, word, **options)


@pytest.mark.parametrize("name, word", [*_UNEQUAL, ("m3_20", "a" * 20 + "b" * 22 + "c" * 21)])
def test_the_running_residual_decides_no_halt(name, word, request):
    """A run halts where the exact residual says, whatever the threshold.

    The thresholds are every residual of the whole run's trace, with and
    without the running value, and both neighbours of each.  Against the
    frontier that sums live at every full step, steps, halting and the
    halting sums are equal, and a halted run's residual is the same exact
    sum; the running value drifts from it by rounding alone.
    """
    spec = request.getfixturevalue(name)
    whole = run(spec, word, trace=True)
    exact = _always_resummed(spec, word, trace=True)
    assert whole.halted and (whole.steps, whole.p_residual) == (exact.steps, exact.p_residual)
    assert _close(whole.trace, exact.trace)
    residuals = {row[2] for row in whole.trace + exact.trace}
    thresholds = {x for r in residuals for x in (math.nextafter(r, 0), r, math.nextafter(r, 1))}
    thresholds = sorted(x for x in thresholds if 0 < x < 1)
    assert len(thresholds) > 30
    for threshold in thresholds:
        got = run(spec, word, halt_threshold=threshold)
        want = _always_resummed(spec, word, halt_threshold=threshold)
        assert (got.steps, got.halted, got.p_accept, got.p_reject) == \
            (want.steps, want.halted, want.p_accept, want.p_reject), threshold
        if want.halted:
            assert got.p_residual == want.p_residual, threshold
        else:
            assert abs(got.p_residual - want.p_residual) <= TOLERANCE, threshold


def _amplifying(big: float) -> TwoWayQfaSpec:
    """Not unitary: s0 splits into x and z, of weights big and 1.1 big, and y1, of weight 0.55.

    x and z reject at step 2.  y1 relabels to y2, which rejects at step 3,
    so the residual falls from about 2.2 big² to 0.3 and then to 0.
    """
    states = ("s0", "x", "y1", "y2", "z", "r1", "r2", "r3")
    index = {state: i for i, state in enumerate(states)}
    matrix = np.zeros((8, 8), dtype=complex)
    for source, target, weight in (("s0", "x", big), ("s0", "y1", 0.55), ("s0", "z", 1.1 * big),
                                   ("x", "r1", 1), ("y1", "y2", 1), ("y2", "r3", 1), ("z", "r2", 1),
                                   ("r1", "r1", 1), ("r2", "r2", 1), ("r3", "r3", 1)):
        matrix[index[target], index[source]] = weight
    return TwoWayQfaSpec(
        states=states,
        input_alphabet=("a",),
        initial_state="s0",
        accept_states=frozenset(),
        reject_states=frozenset({"r1", "r2", "r3"}),
        symbol_unitaries={s: matrix for s in ("#", "a", "$")},
        head_fn={state: 0 for state in states},
    )


@pytest.mark.parametrize("big", [1e5 * (1 + k / 197) for k in range(8)])
def test_a_residual_that_comes_from_above_one_is_summed_exactly(big):
    """The rounding of a residual of 2e10 is about 4e-6, more than the margin covers.

    Run on from there, the residual of step 2 would keep it, and that of
    step 3 would read it where the exact sum reads 0 and no key is live.
    """
    spec = _amplifying(big)
    got = run(spec, "", max_steps=10, trace=True)
    assert (got.steps, got.halted, got.p_residual) == (3, True, 0.0)
    assert got == _always_resummed(spec, "", max_steps=10, trace=True)


def _cycling(moves: list[int], matrix: np.ndarray) -> TwoWayQfaSpec:
    """A machine with one matrix of weights exactly 1 for every tape symbol."""
    states = tuple(f"s{i}" for i in range(len(moves)))
    return TwoWayQfaSpec(
        states=states,
        input_alphabet=("a",),
        initial_state="s0",
        accept_states=frozenset(),
        reject_states=frozenset({states[-1]}),
        symbol_unitaries={s: matrix for s in ("#", "a", "$")},
        head_fn=dict(zip(states, moves)),
    )


@pytest.mark.parametrize(
    "moves, matrix",
    [
        ([0, 0, 0], np.eye(3)),  # stays in place on itself
        ([0, 0, 0], np.eye(3)[[1, 0, 2]]),  # s0 and s1 swap in place
        ([1, -1, 0], np.eye(3)),  # goes round the circular tape
        ([1, 1, 0], np.eye(3)[[1, 0, 2]]),  # swaps while it goes round
    ],
    ids=["self-loop", "swap", "round-the-tape", "swap-round-the-tape"],
)
@pytest.mark.parametrize("word", ["", "a", "aaaaa"])
@pytest.mark.parametrize("max_steps", [None, 1, 2, 97])
def test_relabel_cycles_run_to_the_budget(moves, matrix, word, max_steps):
    """A chain of relabels that closes on itself is walked up to the budget, no further."""
    spec = _cycling(moves, matrix)
    machine = core._machine(spec)
    assert machine.sparse
    assert all(entry.__class__ is int for entries in machine.steps for entry in entries[:2])
    # a cycle that stays in place is never anchored; one that goes round the
    # tape is anchored on its letter, but a jump stays inside a block
    assert bool(machine.anchors) is any(moves[:2])
    budget = max_steps or core.MAX_STEPS_FACTOR * (len(word) + 2)
    result = run(spec, word, max_steps=max_steps, trace=True)
    assert result == reference_run(spec, word, max_steps=max_steps, trace=True)
    assert result == _unjumped(spec, word, max_steps=max_steps, trace=True)
    assert (result.steps, result.halted, result.p_residual) == (budget, False, 1.0)
    assert result.trace == ((0.0, 0.0, 1.0),) * budget


class _CountingTable(list):
    """A frontier table that counts how often a run reads one of its rows: once per entry read."""

    reads = 0

    def __getitem__(self, key):
        _CountingTable.reads += 1
        return list.__getitem__(self, key)


def _table_reads(spec, word, **options) -> tuple[core.RunResult, int]:
    """A run and the number of table entries its frontier read."""
    frontier = core._Frontier
    _CountingTable.reads = 0
    with mock.patch.object(
        core, "_Frontier", lambda table, *args: frontier(_CountingTable(table), *args)
    ):
        result = run(spec, word, **options)
    return result, _CountingTable.reads


def _unjumped(spec, word, **options) -> core.RunResult:
    """A run with no cycle anchor and no mover in its table, so every key walks a step at a time."""
    with mock.patch.object(core, "_stamp_anchors", lambda machine, word, table: {}), \
            mock.patch.object(core, "_stamp_movers", lambda machine, table: None):
        return run(spec, word, **options)


def _cut_run(spec, word, budget) -> core.RunResult:
    """A traced run cut at `budget`, its live keys and amplitudes checked against ``_unjumped``'s.

    A jump that overshot the budget would leave a key on the wrong cell or
    due step, which the trace alone need not show.
    """
    frontier, frontiers = core._Frontier, []

    def kept(*args):
        frontiers.append(frontier(*args))
        return frontiers[-1]

    with mock.patch.object(core, "_Frontier", kept):
        cut = run(spec, word, max_steps=budget, trace=True)
        _unjumped(spec, word, max_steps=budget)
    jumped, walked = frontiers
    assert list(jumped.live.items()) == list(walked.live.items()), budget
    return cut


def _stamped_from_least(make) -> TwoWayQfaSpec:
    """The machine `make()` returns, its tables built with every block of `least` letters stamped.

    ``_JUMP_CELLS`` keeps runs from stamping blocks too short to repay a
    jump; with it at 0 during the build, the short blocks of the tests that
    use this machine are stamped, and their exact read counts hold.
    """
    with mock.patch.object(core, "_JUMP_CELLS", 0):
        spec = make()
        core._machine(spec)
    return spec


#: one long-block word per machine; most of its budgets end inside a jump
_LONG_BLOCKS = [("m2_10", "(" * 64 + ")" * 64), ("m3_5", "a" * 40 + "b" * 41 + "c" * 40)]


def test_a_long_block_is_crossed_in_jumps(m2_10, m3_20):
    """Keys on relabel cycles cross a block in a few reads, not one read a step.

    Walked one step at a time, m2 N=10 reads 8,494 entries on the word below
    and m3 N=20 3,444,439; with the block jumps alone they read 68 and
    2,568, and with the whole-word jumps as well 58 and 1,310.
    """
    for spec, word, bound in ((m2_10, "(" * 64 + ")" * 64, 500),
                              (m3_20, "a" * 341 + "b" * 342 + "c" * 341, 20_000)):
        result, reads = _table_reads(spec, word)
        assert result.halted and reads < bound
        assert result == _unjumped(spec, word)


def _stamped(spec, word) -> dict[int, int]:
    """The blocks a traced run of `word` stamps, as ``_stamp_anchors`` returns them.

    The run must equal ``_unjumped``, traces included.
    """
    with mock.patch.object(core, "_Frontier", wraps=core._Frontier) as frontier:
        result = run(spec, word, trace=True)
    assert result == _unjumped(spec, word, trace=True)
    return frontier.call_args.args[4]


def _stamping_rule(machine, blocks) -> dict[int, int]:
    """The cells that each anchor group stamps on the word of `blocks`, (letter, length) pairs.

    A group stamps a block of at least max(least, ``_JUMP_CELLS``) letters,
    on its first cell if the group's cycles move right and else on its last.
    """
    stamped, lo = {}, 0
    for letter, length in blocks:
        hi = lo + length
        for left, least, _ in machine.anchors[machine.symbol_index[letter]]:
            if length >= max(least, core._JUMP_CELLS):
                stamped[lo + 1 if left else hi] = length
        lo = hi
    return stamped


@pytest.mark.parametrize("name", ["m2_10", "m3_5"])
def test_a_block_is_stamped_from_jump_cells_letters_on(name, request):
    """A block of ``_JUMP_CELLS`` - 1 letters is walked and one of ``_JUMP_CELLS`` is stamped.

    Each letter's block stands at the left end of the word and at the
    right, beside one letter of each other symbol; then every letter has a
    long block.  Every anchor group of m2 and m3 has a least below
    ``_JUMP_CELLS``, so the floor alone decides.
    """
    spec = request.getfixturevalue(name)
    machine = core._machine(spec)
    jump, letters = core._JUMP_CELLS, list(machine.symbol_index)
    assert set(machine.anchors) == set(machine.symbol_index.values())
    assert all(least < jump for groups in machine.anchors.values() for _, least, _ in groups)
    for letter in letters:
        others = [(other, 1) for other in letters if other != letter]
        for length in (jump - 1, jump):
            for blocks in ([(letter, length), *others], [*others, (letter, length)]):
                word = "".join(symbol * size for symbol, size in blocks)
                want = _stamping_rule(machine, blocks)
                assert bool(want) is (length == jump), word
                assert _stamped(spec, word) == want, word
    blocks = [(letter, jump + i) for i, letter in enumerate(letters)]
    want = _stamping_rule(machine, blocks)
    assert len(want) == sum(len(groups) for groups in machine.anchors.values())
    assert _stamped(spec, "".join(symbol * size for symbol, size in blocks)) == want


def test_the_paths_of_each_n_path_stage_are_its_movers(m2_10, m3_5):
    """A path's counter state _0 idles a fixed number of steps on each letter, so it is a mover.

    In m2 path i waits i + 1 steps on ( and N - i + 2 on ); in m3 the paths
    of stage two move left and wait 1 on a, N - i + 2 on b and i + 1 on c,
    and those of stage three move right and wait i + 1 on a, N - i + 2 on b
    and 1 on c.  No other state is one.
    """
    n = m2_10.n_paths
    m2 = {f"q_{i}_0": (i + 1, n - i + 2) for i in range(1, n + 1)}
    n = m3_5.n_paths
    m3 = {f"m_{i}_0": (i + 1, n - i + 2, 1) for i in range(1, n + 1)}
    m3 |= {f"g_{i}_0": (1, n - i + 2, i + 1) for i in range(1, n + 1)}
    for spec, want in ((m2_10, m2), (m3_5, m3)):
        moves = [spec.head_fn[s] for s in spec.states]
        movers = core._movers(core._machine(spec).steps, moves)
        assert {spec.states[s]: waits for s, waits in movers.items()} == want
    assert {m3_5.head_fn[state] for state in m3 if state[0] == "m"} == {1}
    assert {m3_5.head_fn[state] for state in m3 if state[0] == "g"} == {-1}


def test_a_word_of_one_letter_blocks_is_crossed_in_one_read_a_path(m2_10):
    """No block of ()³² is long enough for an anchor, but each path crosses the word in one read.

    With movers switched off the run reads 4,394 entries; with them 244.
    """
    word = "()" * 32
    result, reads = _table_reads(m2_10, word)
    assert result.halted and reads < 500
    assert result == _unjumped(m2_10, word)


def test_a_long_stay_chain_is_followed_once_a_symbol():
    """A mover whose wait is a chain of 300 stay relabels, beside a stay cycle that never moves.

    The search reads each entry of the chain once per input symbol, and the
    two states that swap in place are no movers; a run crosses the word in
    one read and takes 301 steps a cell.
    """
    chain = 300
    n = chain + 4
    # s0 moves right, s1 .. s300 stay and lead back to s0; s301 and s302
    # swap in place; s303 rejects, and s0 swaps with it on the right marker
    paced = np.arange(n)
    paced[:chain + 1] = np.roll(np.arange(chain + 1), -1)
    paced[[chain + 1, chain + 2]] = chain + 2, chain + 1
    ending = np.arange(n)
    ending[[0, n - 1]] = n - 1, 0
    states = tuple(f"s{i}" for i in range(n))
    spec = TwoWayQfaSpec(
        states=states,
        input_alphabet=("a", "b"),
        initial_state="s0",
        accept_states=frozenset(),
        reject_states=frozenset({states[-1]}),
        symbol_unitaries={"#": np.eye(n)[:, paced], "a": np.eye(n)[:, paced],
                          "b": np.eye(n)[:, paced], "$": np.eye(n)[:, ending]},
        head_fn={state: int(state == "s0") for state in states},
    )
    machine = core._machine(spec)
    rows = [_CountingTable(row) for row in machine.steps]
    _CountingTable.reads = 0
    assert core._movers(rows, [1] + [0] * (n - 1)) == {0: (chain + 1, chain + 1)}
    assert _CountingTable.reads == 2 * (chain + 1)
    word, budget = "abba", 10_000
    whole, reads = _table_reads(spec, word, max_steps=budget, trace=True)
    assert (whole.steps, whole.p_reject) == ((chain + 1) * (len(word) + 1) + 1, 1.0)
    # the chain on the left marker, one read on cell 1, two on the right marker
    assert reads == chain + 1 + 1 + 2
    assert whole == _unjumped(spec, word, max_steps=budget, trace=True)
    for budget in (1, chain + 2, 3 * chain, whole.steps - 1):
        cut = run(spec, word, max_steps=budget, trace=True)
        assert cut == _unjumped(spec, word, max_steps=budget, trace=True)


#: m2 N=10 on words of short blocks, one of them a random Dyck member
_DYCK = [("m2_10", "()" * 32), ("m2_10", "(()())((()(()()()())))()(())(())")]


@pytest.mark.parametrize("name, word", _DYCK)
def test_every_budget_on_a_dyck_word_ends_the_run_at_its_step(name, word, request):
    """A budget that ends inside a whole-word jump stops the run there, as the whole run's rows."""
    spec = request.getfixturevalue(name)
    whole, reads = _table_reads(spec, word, trace=True)
    assert whole.halted and reads < whole.steps / 2
    assert whole == _unjumped(spec, word, trace=True)
    for budget in range(1, whole.steps + 1):
        cut = _cut_run(spec, word, budget)
        assert cut.steps == budget
        assert cut.halted is (budget == whole.steps)
        assert cut.trace == whole.trace[:budget]


def test_a_run_table_holds_one_shared_row_per_cell():
    """The table of a run is one row a tape cell, not S entries copied for each cell.

    Every input cell without an anchor holds its symbol's row of the
    machine's steps itself.  A stamped cell holds its anchor group's row.
    Cells 1 and L - 2 hold the machine's copy of that row with the movers
    that go right, or left, put in, and only the two marker rows are
    copies, made once per tape length and kept on the machine, in which
    the entries that move a head off the tape are rebuilt.  The first word
    has a stamped first block, the second a stamped last block, on m3 N=5
    built to stamp blocks of any length.
    """
    spec = _stamped_from_least(partial(build_m3, 5))
    machine = core._machine(spec)
    movers = core._movers(machine.steps, [spec.head_fn[s] for s in spec.states])
    for word, first, last in (("a" * 21 + "b" * 20 + "c" * 22 + "bca", True, False),
                              ("c" + "a" * 5 + "b" * 7 + "c" * 9, False, True)):
        with mock.patch.object(core, "_Frontier", wraps=core._Frontier) as frontier:
            run(spec, word)
        table, _, _, _, blocks, counts, _ = frontier.call_args.args
        symbols = core._tape_symbols(machine, word)
        assert counts == [word.count(letter) for letter in "abc"]
        assert len(table) == len(word) + 2
        assert 0 < len(blocks) < len(word) // 2
        assert (1 in blocks, len(word) in blocks) == (first, last)
        for cell in range(1, len(word) + 1):
            if cell in blocks:
                rows = [row for _, _, row in machine.anchors[symbols[cell]]]
            else:
                rows = [machine.steps[symbols[cell]]]
            for end, crossing, right in ((1, machine.crossing[0], True),
                                         (len(word), machine.crossing[1], False)):
                if cell == end:
                    rows = [crossing[id(row)] for row in rows if id(row) in crossing]
                    assert len(rows) == 1, cell
                    ways = {s for s, entry in enumerate(rows[0]) if entry.__class__ is Mover}
                    assert ways == {s for s in movers
                                    if (spec.head_fn[spec.states[s]] > 0) is right}
            assert any(table[cell] is row for row in rows), cell
        for cell, wrapping, kept in zip((0, -1), machine.wrapping, machine.markers[len(table)]):
            steps = machine.steps[symbols[cell]]
            assert table[cell] is kept and kept is not steps and len(kept) == len(steps)
            rebuilt = [source for source, entry in enumerate(kept) if entry != steps[source]]
            assert rebuilt == [source for source, _ in wrapping] != []


def _run_table(spec, word) -> list:
    """The table the frontier of a run of `word` reads."""
    with mock.patch.object(core, "_Frontier", wraps=core._Frontier) as frontier:
        run(spec, word)
    return frontier.call_args.args[0]


def test_words_of_one_length_share_the_marker_rows():
    """Runs and ``step`` on tapes of one length read the same two marker rows, built once."""
    spec = build_m3(5)
    machine = core._machine(spec)
    first, second = _run_table(spec, "aabbcc"), _run_table(spec, "cbacba")
    step(spec, "abcabc", initial_vector(spec, "abcabc"))
    for cell, kept in zip((0, -1), machine.markers[8]):
        assert isinstance(kept, tuple)
        assert first[cell] is kept and second[cell] is kept and machine.step_tables[cell] is kept
    assert list(machine.markers) == [8]
    assert _run_table(spec, "abcab")[0] is not machine.markers[8][0]
    assert list(machine.markers) == [8, 7]


def test_the_kept_marker_rows_equal_fresh_ones_after_runs_and_steps():
    """No stamped run or ``step`` writes into the marker rows a machine keeps.

    The machine stamps blocks from their least length on, so the longer
    words below stamp anchors next to the marker cells, and the movers sit
    on cells 1 and L - 2, which on a word of one letter are one cell.
    """
    spec = _stamped_from_least(partial(build_m3, 5))
    machine = core._machine(spec)
    stamped = 0
    for word in ("a", "ab", "aabbcc", "a" * 5 + "b" * 6 + "c" * 5, "c" * 9 + "b" * 4, "cba" * 4):
        stamped += len(_stamped(spec, word))
        assert run(spec, word, max_steps=7) == _unjumped(spec, word, max_steps=7)
        vector = initial_vector(spec, word)
        for _ in range(3):
            _, _, vector = measure(spec, step(spec, word, vector))
    assert stamped > 0 and len(machine.markers) == 6
    fresh = core._machine(build_m3(5))
    for length, rows in machine.markers.items():
        assert rows == core._marker_rows(fresh, length)


def test_the_marker_rows_of_at_most_a_bound_of_lengths_are_kept():
    """Past ``_MARKER_LENGTHS`` tape lengths the oldest is dropped, and runs are unchanged."""
    spec = build_m2(10)
    machine = core._machine(spec)
    bound = core._MARKER_LENGTHS
    words = ["(" * k + ")" * k for k in range(bound + 5)]
    results = [run(spec, word, trace=True) for word in words]
    assert list(machine.markers) == [len(word) + 2 for word in words[-bound:]]
    machine.markers.clear()
    assert [run(spec, word, trace=True) for word in reversed(words)] == results[::-1]
    assert len(machine.markers) == bound


def test_each_full_step_advances_only_the_keys_due_at_it(m3_5):
    """A full step takes the keys due at it out of live and leaves every other key in place.

    m3 N=5 on a²¹b²⁰c²² keeps up to 25 keys live but 1 to 3 due at each of
    its 25 full steps, so a full step that passed every live key through
    would visit 307 keys where this one visits 37.
    """
    spec, word = m3_5, "a" * 21 + "b" * 20 + "c" * 22
    advance = core._Frontier.advance
    sizes = []

    def spy(self, due=0):
        before = list(self.live.items())
        due_keys = [key for key, _ in before if key // self.size == due]
        reads = _CountingTable.reads
        sums = advance(self, due)
        # one table read per due key, and only they left live
        assert _CountingTable.reads - reads == len(due_keys)
        assert list(self.live.items()) == [item for item in before if item[0] not in due_keys]
        assert all(key // self.size == due + 1 for products in sums for key in products)
        sizes.append((len(before), len(due_keys)))
        return sums

    with mock.patch.object(core._Frontier, "advance", spy):
        result, _ = _table_reads(spec, word)
    assert result.halted and len(sizes) == 25
    assert max(live for live, _ in sizes) == 25 and max(due for _, due in sizes) == 3
    assert (sum(live for live, _ in sizes), sum(due for _, due in sizes)) == (307, 37)


@pytest.mark.parametrize("name, word", _LONG_BLOCKS)
def test_every_budget_on_a_long_block_ends_the_run_at_its_step(name, word, request):
    """A budget that ends inside a jump stops the run there, with the rows of the whole run."""
    spec = request.getfixturevalue(name)
    whole, reads = _table_reads(spec, word, trace=True)
    assert whole.halted and reads < whole.steps / 4
    assert _close(whole.trace, reference_run(spec, word, trace=True).trace)
    for budget in range(1, whole.steps + 1):
        cut = _cut_run(spec, word, budget)
        assert cut.steps == budget
        assert cut.halted is (budget == whole.steps)
        assert cut.trace == whole.trace[:budget]
        assert (cut.p_accept, cut.p_reject, cut.p_residual) == whole.trace[budget - 1]


def _pacing() -> TwoWayQfaSpec:
    """A relabel cycle of period 3 that moves one cell right a period, on every symbol.

    s0 enters each cell, s1 and s2 stay on it, and s0 moves on; on the right
    marker s0 swaps with the rejecting s3.  So the whole mass rejects at step
    3 * (n + 1) + 1 on a word of n letters, wherever the blocks start and end.
    """
    cycle = np.eye(4)[[2, 0, 1, 3]]
    states = ("s0", "s1", "s2", "s3")
    return TwoWayQfaSpec(
        states=states,
        input_alphabet=("a", "b"),
        initial_state="s0",
        accept_states=frozenset(),
        reject_states=frozenset({"s3"}),
        symbol_unitaries={"#": cycle, "a": cycle, "b": cycle, "$": np.eye(4)[[3, 1, 2, 0]]},
        head_fn={"s0": 1, "s1": 0, "s2": 0, "s3": 0},
    )


def _handing_over() -> TwoWayQfaSpec:
    """Two relabel cycles of period 3 that move one cell right a period, which b joins into one.

    s0 enters a cell, s1 and s2 stay on it, and s0 moves on, and s4, s5 and
    s6 do the same; on b, s2 hands over to s4 and s6 to s0.  So every cell
    still takes 3 steps, but on b neither s0 nor s4 comes back to itself and
    neither is a mover: the b cycle moves two cells in 6 steps, and a period
    from s0 or s4 reads one cell ahead.  On the right marker s0 and s4 swap
    with the rejecting s3 and s7, so the whole mass rejects at step
    3 * (n + 1) + 1 on a word of n letters.
    """
    # column j holds the 1 of source sj, on the row of its target
    paced = np.eye(8)[:, [1, 2, 0, 3, 5, 6, 4, 7]]
    states = tuple(f"s{i}" for i in range(8))
    return TwoWayQfaSpec(
        states=states,
        input_alphabet=("a", "b"),
        initial_state="s0",
        accept_states=frozenset(),
        reject_states=frozenset({"s3", "s7"}),
        symbol_unitaries={
            "#": paced,
            "a": paced,
            "b": np.eye(8)[:, [1, 2, 4, 3, 5, 6, 0, 7]],
            "$": np.eye(8)[:, [3, 1, 2, 0, 7, 5, 6, 4]],
        },
        head_fn={state: int(state in ("s0", "s4")) for state in states},
    )


def _assert_paced_run(spec, word, reads):
    """`word` rejects at step 3 * (n + 1) + 1 after `reads` reads; cut, it runs as unjumped."""
    steps = 3 * (len(word) + 1) + 1
    whole, counted = _table_reads(spec, word, trace=True)
    assert (whole.steps, whole.halted, whole.p_reject) == (steps, True, 1.0)
    assert counted == reads
    assert whole == _unjumped(spec, word, trace=True)
    assert whole == reference_run(spec, word, trace=True)
    for budget in range(1, steps + 1):
        cut = run(spec, word, max_steps=budget, trace=True)
        assert cut == _unjumped(spec, word, max_steps=budget, trace=True)
        assert cut.steps == budget and cut.trace == whole.trace[:budget]


def _one_mover(alphabet: tuple[str, ...]) -> TwoWayQfaSpec:
    """s0 moves right and keeps its state on every input symbol, and swaps with acc on $."""
    keep = np.eye(4)
    return TwoWayQfaSpec(
        states=("s0", "s1", "s2", "acc"),
        input_alphabet=alphabet,
        initial_state="s0",
        accept_states=frozenset({"acc"}),
        reject_states=frozenset(),
        symbol_unitaries={"#": keep, **{s: keep for s in alphabet}, "$": keep[:, [3, 1, 2, 0]]},
        head_fn={"s0": 1, "s1": 0, "s2": 0, "acc": 0},
    )


def test_an_input_symbol_is_one_letter():
    """A word is read one character a cell, so a symbol of two letters is refused.

    Were "ab" allowed beside "a" and "b", counting letters would find it in
    the word, where no cell holds it, and the mover s0 would cross ab in 5
    steps and abab in 8 instead of 4 and 6.
    """
    spec = _one_mover(("a", "b"))
    assert core._movers(core._machine(spec).steps, [1, 0, 0, 0]) == {0: (1, 1)}
    for word, steps in (("ab", 4), ("abab", 6)):
        result = run(spec, word, trace=True)
        assert (result.steps, result.halted, result.p_accept) == (steps, True, 1.0)
        assert result == reference_run(spec, word, trace=True)
    with pytest.raises(ValueError, match="'ab' is not exactly one character"):
        _one_mover(("a", "b", "ab"))


_PACED_WORDS = [
    "a", "ab", "aab", "abba", "aaaab", "baaaab", "aaaabbbbaaaa", "a" * 9 + "b" + "a" * 2
]


@pytest.mark.parametrize("word", _PACED_WORDS)
def test_a_mover_crosses_the_word_in_one_read(word):
    """s0 of the paced cycle is a mover: from cell 1 it reaches the right marker in one read.

    Three reads on the left marker, one on cell 1, and two on the right
    marker, the walk's and the full step's, whatever the blocks; a budget
    that ends before the right marker walks the cells instead.
    """
    spec = _pacing()
    machine = core._machine(spec)
    assert core._movers(machine.steps, [1, 0, 0, 0]) == {0: (3, 3)}
    (left, least, row), = machine.anchors[1]
    assert left and least == 2 and isinstance(row[0], CycleAnchor)
    assert row[0] == (1, 3, 4, 1, 0)  # s0 steps to s1 on its cell, one key on
    for crossed in machine.crossing[0].values():
        assert crossed[0] == (1, 1, (3, 3)) and isinstance(crossed[0], Mover)
    assert machine.crossing[1] == {}
    _assert_paced_run(spec, word, 3 + 1 + 2)


@pytest.mark.parametrize(
    "word", _PACED_WORDS + ["b", "abbba", "abbbba", "bbbbba", "abbbbbab", "a" * 3 + "b" * 8 + "a"]
)
def test_jumps_end_on_block_edges(word):
    """Blocks of 1, 2 and p + 1 cells, each jump ending on the first cell past its block.

    Built to stamp blocks of any length, the machine stamps a block when
    some cycle runs two periods in it: an a block of 2 cells or more, a b
    block of 4 or more.  A jump on an a block ends on the first cell past
    it; one on a b block of odd length ends on its last cell, which the
    walk then crosses in three reads.
    """
    spec = _stamped_from_least(_handing_over)
    machine = core._machine(spec)
    assert core._movers(machine.steps, [1, 0, 0, 0, 1, 0, 0, 0]) == {}
    assert machine.crossing == ({}, {})
    (left, least, row), = machine.anchors[1]
    assert left and least == 2 and row[0] == (1, 3, 8, 1, 0) and row[4] == (1, 3, 8, 1, 0)
    (left, least, row), = machine.anchors[2]
    assert left and least == 4 and row[0] == (1, 6, 16, 2, 1) and row[4] == (1, 6, 16, 2, 1)
    # three reads on the left marker, two on the right marker: the walk's
    # and the full step's
    reads = 3 + 2
    for block in re.findall(r"a+|b+", word):
        if block[0] == "a":
            reads += 3 if len(block) == 1 else 1
        else:
            reads += 3 * len(block) if len(block) < 4 else 1 + 3 * (len(block) % 2)
    _assert_paced_run(spec, word, reads)


@pytest.mark.parametrize("name, word", _LONG_BLOCKS[1:])
def test_a_halt_threshold_of_one_half_on_a_long_block(name, word, request):
    """A run that stops at residual 0.5 stops where the whole run first drops below it."""
    spec = request.getfixturevalue(name)
    whole = run(spec, word, trace=True)
    at = next(b for b, row in enumerate(whole.trace, 1) if row[2] < 0.5)
    result = run(spec, word, halt_threshold=0.5, trace=True)
    assert result.halted and result.steps == at < whole.steps
    _assert_halted_prefix(result, whole)
    assert result == _unjumped(spec, word, halt_threshold=0.5, trace=True)


@pytest.mark.parametrize("name, word", _LONG_BLOCKS)
def test_stepping_a_long_block_equals_its_run(name, word, request):
    """``step`` and ``measure``, one step at a time, give the rows of the run that jumps."""
    spec = request.getfixturevalue(name)
    result = run(spec, word, trace=True)
    vector = initial_vector(spec, word)
    rows, p_accept, p_reject = [], 0.0, 0.0
    while len(rows) < result.steps:
        gain_accept, gain_reject, vector = measure(spec, step(spec, word, vector))
        p_accept += gain_accept
        p_reject += gain_reject
        rows.append((p_accept, p_reject, vector.norm_squared()))
    assert rows[-1][2] < core.DEFAULT_HALT_THRESHOLD <= rows[-2][2]
    assert _close(rows, result.trace)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 10),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, 12)), min_size=1, max_size=5),
    st.integers(1, 300),
)
# cycles that read a cell behind some of their states, after and before them
@example(9, 97, [("b", 2)], 120)
@example(9, 34, [("a", 7)], 104)
# movers: both ways, cut inside a crossing; waits 1 and 3; one crossing on a
# run that halts; waits 2 and 2 with too few steps left for the crossing
@example(5, 8, [("a", 3), ("b", 2), ("a", 4)], 37)
@example(6, 13, [("b", 5), ("a", 1)], 200)
@example(4, 27, [("a", 3), ("b", 2), ("a", 4)], 300)
@example(9, 90, [("b", 2), ("a", 7)], 11)
def test_random_relabel_machines_jump_as_they_walk(n, seed, blocks, max_steps):
    """On random permutations of weight 1, whose cycles move either way and may step back.

    A cycle that reads a cell behind its start is anchored only on the
    states from which it never does.  Some states come back to themselves
    one cell on after each letter, so they are movers and cross the word.
    The blocks are shorter than ``_JUMP_CELLS``, so the machine also runs
    built to stamp blocks of any length.
    """
    rng = np.random.default_rng(seed)
    states = tuple(f"s{i}" for i in range(n))
    machine = partial(
        TwoWayQfaSpec,
        states=states,
        input_alphabet=("a", "b"),
        initial_state="s0",
        accept_states=frozenset(),
        reject_states=frozenset({states[-1]}),
        symbol_unitaries={s: np.eye(n)[rng.permutation(n)] for s in ("#", "a", "b", "$")},
        head_fn=dict(zip(states, rng.choice((-1, 0, 1), n).tolist())),
    )
    word = "".join(symbol * count for symbol, count in blocks)
    for spec in (machine(), _stamped_from_least(machine)):
        result = run(spec, word, max_steps=max_steps, trace=True)
        assert result == _unjumped(spec, word, max_steps=max_steps, trace=True)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_bundled_machines(), _random_machines()))
@example(_RELABEL)
@example(_MERGE)
@example(_CANCEL)
@example(_ACCEPTING_START)
@example(_REJECTING_START)
def test_stepwise_vectors_agree_on_both_engines(case):
    spec, word, max_steps = case
    _assert_steps_agree(spec, word, min(max_steps or 12, 12))


def test_halting_initial_states_take_both_engines():
    for (spec, _, _), engine in ((_ACCEPTING_START, "dense"), (_REJECTING_START, "frontier")):
        assert spec.initial_state in spec.accept_states | spec.reject_states
        assert _engines_of(spec) == (engine, engine)


def test_dense_step_multiplies_the_halting_rows_of_a_vector():
    """Unmeasured steps of a vector with amplitude on every row, halting ones too.

    A run's dense steps after the first read only the running rows; ``step``
    must read all of them, because its caller may not have measured.
    """
    spec, word, _ = _LONG_TAPE_HAAR
    rng = np.random.default_rng(5)
    shape = (len(spec.states), len(word) + 2)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = AmplitudeVector(spec, shape[1], data / np.linalg.norm(data))
    want = got.copy()
    for _ in range(2):
        got = step(spec, word, got)
        want = reference_step(spec, word, want)
        assert np.abs(got.data - want.data).max() <= TOLERANCE


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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(65, 100),
    st.sampled_from(sorted(_MATRICES)),
    st.integers(0, 2**32 - 1),
    st.sampled_from((DEFAULT_TOLERANCE, 0.0, 0.5)),
)
def test_validate_by_blocks_agrees_with_the_masked_matrix_validator(n, kind, seed, tolerance):
    """Past 64 states validate takes one Gram per linked block of columns.

    A block's Gram sums the same products as the whole matrix's, in a
    shorter product, so the deviations agree to 1e-12, not bit for bit.
    """
    spec = _machine(("a", "b"), kind, seed, [0] * n, "n" * n)
    got = validate(spec, tolerance)
    want = masked_validate(spec, tolerance)
    for check in ("unitarity", "local_probability", "separability1", "separability2"):
        assert getattr(got, f"{check}_ok") == getattr(want, f"{check}_ok"), check
        deviation = getattr(got, f"{check}_max_deviation")
        assert _close(deviation, getattr(want, f"{check}_max_deviation")), check


def _overflowing(name: str) -> tuple[TwoWayQfaSpec, str]:
    """A non-unitary machine whose amplitudes overflow, and a word.

    "scaled" is m1 with its matrix for "a" scaled by 1e200; "dense" is a
    12-state Haar-random machine scaled the same way, on a word whose first
    "a" lies 31 cells from cell 0; "doubling" sends state 0 to states 1 and
    2 with weight 1 each, and both relabel back to state 0, so its amplitude
    doubles every second step.
    """
    if name == "doubling":
        matrix = np.zeros((3, 3), dtype=complex)
        matrix[[1, 2], 0] = 1
        matrix[0, [1, 2]] = 1
        states = ("s0", "s1", "s2")
        spec = TwoWayQfaSpec(
            states=states,
            input_alphabet=("a",),
            initial_state="s0",
            accept_states=frozenset(),
            reject_states=frozenset(),
            symbol_unitaries={s: matrix for s in ("#", "a", "$")},
            head_fn=dict.fromkeys(states, 0),
        )
        return spec, "a"
    if name == "scaled":
        base, word = build_m1(), "aa"
    else:
        base = _machine(("a", "b"), "haar", 3, [i % 3 - 1 for i in range(12)], "n" * 10 + "ar")
        word = "b" * 30 + "a" * 10 + "b" * 60
    unitaries = {s: m * (1e200 if s == "a" else 1) for s, m in base.symbol_unitaries.items()}
    return replace(base, symbol_unitaries=unitaries), word


@pytest.mark.parametrize("name", ["scaled", "doubling"])
def test_an_overflowing_machine_stops_where_the_reference_does(name):
    """The run ends, not halted, at the step whose residual is no longer finite.

    A relabel moves its amplitude as it is, where the reference multiplies it
    by 1; the two differ only on a non-finite amplitude, which the run never
    steps, because its residual is non-finite first.
    """
    spec, word = _overflowing(name)
    assert core._machine(spec).sparse
    got = run(spec, word, max_steps=5000, trace=True)
    want = reference_run(spec, word, max_steps=5000, trace=True)
    assert got.halted is want.halted is False
    assert got.steps == want.steps < 5000
    assert not math.isfinite(got.p_residual) and not math.isfinite(want.p_residual)
    assert got.trace[:-1] == want.trace[:-1]
    assert got.trace[-1][:2] == want.trace[-1][:2]


def test_an_overflowing_dense_machine_stops_where_the_reference_does():
    """The dense engine ends the run at the reference's step, before its cone covers the tape.

    No amplitude reaches an "a" cell before step 32, when the cells a step
    multiplies span 63 of the 102.  The engines sum in other orders, so the
    rows before the last agree to 1e-12, not bit for bit.
    """
    spec, word = _overflowing("dense")
    assert not core._machine(spec).sparse
    got = run(spec, word, max_steps=5000, trace=True)
    want = reference_run(spec, word, max_steps=5000, trace=True)
    assert got.halted is want.halted is False
    assert got.steps == want.steps == 32
    assert not math.isfinite(got.p_residual) and not math.isfinite(want.p_residual)
    assert _close(got.trace[:-1], want.trace[:-1])


def _multiplied_columns(call, groups: int) -> tuple[object, list[int]]:
    """What `call` returns and the tape columns its dense steps multiply, per step.

    A step takes one product per tape symbol, so each `groups` products in a
    row make one step.
    """
    widths = []
    matmul = np.matmul

    def counting(matrix, data, **options):
        widths.append(data.shape[1])
        return matmul(matrix, data, **options)

    with mock.patch.object(core.np, "matmul", counting):
        result = call()
    return result, [sum(widths[i:i + groups]) for i in range(0, len(widths), groups)]


def test_a_dense_run_multiplies_only_the_cells_it_can_reach():
    """Step t multiplies the 2t - 1 cells within t - 1 of cell 0, until they cover the tape.

    On the 88 cells of the word below that is 1 cell on the first step, 87
    on step 44 and all 88 from step 45 on; a step that multiplied the whole
    tape would read 88 every time.  ``step`` multiplies every cell, since a
    caller's vector may hold amplitude anywhere.
    """
    spec, word, _ = _LONG_TAPE_HAAR
    result, columns = _multiplied_columns(lambda: run(spec, word), 4)
    assert result.halted and len(columns) == result.steps > 45
    assert columns == [min(2 * t - 1, 88) for t in range(1, result.steps + 1)]
    _, columns = _multiplied_columns(lambda: step(spec, word, initial_vector(spec, word)), 4)
    assert columns == [88]


def test_a_dense_run_reads_no_products_it_did_not_write():
    """Uninitialised memory leaves a dense run as it is.

    A run multiplies only the cells within reach and gathers the products
    of the rest as zeros, so its products buffer must start as zeros, not
    as whatever ``np.empty`` hands out.  Here every array that ``np.empty``
    makes during the run starts full of NaN (or -1 for ints).
    """
    spec, word, _ = _LONG_TAPE_HAAR
    clean = run(spec, word, trace=True)
    empty = np.empty

    def dirty(*args, **options):
        out = empty(*args, **options)
        out.fill(np.nan if out.dtype.kind in "fc" else -1)
        return out

    with mock.patch.object(core.np, "empty", dirty):
        assert run(spec, word, trace=True) == clean
        assert np.isnan(np.empty(2)).all()
