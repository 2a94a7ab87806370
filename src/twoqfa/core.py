"""Simulation of two-way machines with measurement after every step.

A configuration pairs a state with a head position on the marked tape
``#w$``; positions are reduced modulo n+2, so the tape is circular.  One
step applies the per-symbol unitary at every head position and then moves
every target state by its head direction.  After each step the accepting
and rejecting components are measured off and accumulated without
renormalising the remainder.

``run`` takes one of two engines, chosen once per machine from the nonzeros
of its matrices.  A machine whose matrices are more than half zeros, as the
bundled machines are, has few configurations live at once and few
transitions out of each, so ``_Frontier`` steps the live configurations one
by one.  A denser machine, such as a Haar-random one, soon makes most of its
tape live, so ``_Evolution`` multiplies the live block with whole matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphabetError
from .machine import LEFT_MARKER, RIGHT_MARKER, TwoWayQfaSpec

#: residual mass below which a run counts as halted
DEFAULT_HALT_THRESHOLD = 1e-12

#: multiplier in the default step budget 64 * n_paths * (n + 2)
MAX_STEPS_FACTOR = 64


@dataclass(frozen=True, order=True)
class Configuration:
    """A basis state of the simulation: machine state plus head position."""

    state: str
    position: int


@dataclass(frozen=True)
class RunResult:
    """Accumulated outcome of a run.

    p_residual is the probability mass still unhalted when the run stopped;
    halted is False when the step budget ran out first or the residual
    stopped being a finite number (an overflowing non-unitary machine).
    trace, when requested, holds one (p_accept, p_reject, p_residual) triple
    per step.
    """

    p_accept: float
    p_reject: float
    p_residual: float
    steps: int
    halted: bool
    trace: tuple[tuple[float, float, float], ...] | None = None


class AmplitudeVector:
    """Complex amplitudes over the configurations of a fixed-length tape."""

    def __init__(self, spec: TwoWayQfaSpec, tape_length: int, data: np.ndarray | None = None):
        self.spec = spec
        self.tape_length = tape_length
        if data is None:
            data = np.zeros((len(spec.states), tape_length), dtype=np.complex128)
        if data.shape != (len(spec.states), tape_length):
            raise ValueError("amplitude array shape does not match the machine")
        self.data = data

    def amplitude(self, config: Configuration) -> complex:
        row = self.spec.state_index(config.state)
        return complex(self.data[row, config.position % self.tape_length])

    def entries(self) -> dict[Configuration, complex]:
        """Nonzero amplitudes keyed by configuration, in state order."""
        out: dict[Configuration, complex] = {}
        rows, cols = np.nonzero(self.data)
        for row, col in zip(rows.tolist(), cols.tolist()):
            out[Configuration(self.spec.states[row], col)] = complex(self.data[row, col])
        return out

    def norm_squared(self) -> float:
        return _norm_squared(self.data)

    def copy(self) -> "AmplitudeVector":
        return AmplitudeVector(self.spec, self.tape_length, self.data.copy())


def tape_for(word: str) -> str:
    return LEFT_MARKER + word + RIGHT_MARKER


def _tape_symbols(spec: TwoWayQfaSpec, word: str) -> list[int]:
    """The index in spec.tape_alphabet of each cell of the tape of `word`."""
    index = spec._symbol_index
    try:
        return [0, *map(index.__getitem__, word), len(index) + 1]
    except KeyError:
        position = next(p for p, symbol in enumerate(word) if symbol not in index)
        raise AlphabetError(word[position], position) from None


def initial_vector(spec: TwoWayQfaSpec, word: str) -> AmplitudeVector:
    """Unit mass on (initial state, position 0) for the tape of `word`."""
    _tape_symbols(spec, word)
    vec = AmplitudeVector(spec, len(word) + 2)
    vec.data[spec.state_index(spec.initial_state), 0] = 1.0
    return vec


class _Evolution:
    """One-step evolution operator for a fixed machine and word.

    Only the live block is touched: the rows (states) and columns (head
    positions) that carry any amplitude.  Each live column is multiplied by
    the matrix of the symbol under it, restricted to the live rows, and
    entry (t, col) of the product lands at (t, col + move[t]) on the
    circular tape.  For a fixed target row that shift is one constant, so
    distinct columns land in distinct cells and one assignment suffices.
    data is the amplitude array that ``step`` advances; ``run`` sets it.
    """

    def __init__(self, spec: TwoWayQfaSpec, word: str):
        self.spec = spec
        self.symbols = np.array(_tape_symbols(spec, word))
        self.matrices = spec._matrices
        self.moves = spec._move_column
        self.targets = np.arange(len(spec.states))[:, np.newaxis]
        self.data: np.ndarray | None = None

    def apply(self, data: np.ndarray) -> np.ndarray:
        rows = np.flatnonzero(data.any(axis=1))
        live = data[rows]
        cols = np.flatnonzero(live.any(axis=0))
        block = live[:, cols]
        symbols = self.symbols[cols]
        mixed = np.empty((data.shape[0], cols.size), dtype=data.dtype)
        # np.unique here would cost about as much as the products at N <= 10
        for symbol in set(symbols.tolist()):
            held = symbols == symbol
            mixed[:, held] = self.matrices[symbol][:, rows] @ block[:, held]
        out = np.zeros_like(data)
        out[self.targets, (cols + self.moves) % data.shape[1]] = mixed
        return out

    def step(self) -> list[float]:
        """One step of data and its measurement; returns the residual, accept and reject mass."""
        self.data = self.apply(self.data)
        accept, reject = _measure_off(self.spec, self.data)
        return [_norm_squared(self.data), accept, reject]


class _Frontier:
    """The live configurations of one run, stepped one configuration at a time.

    configs maps (state row, position) to a nonzero amplitude and starts at
    the initial configuration.  A step sends each configuration through the
    transitions of its column, sums the products per target configuration
    and only then measures, so amplitudes interfere before the halting mass
    is taken off.
    """

    def __init__(self, spec: TwoWayQfaSpec, word: str):
        self.spec = spec
        self.symbols = _tape_symbols(spec, word)
        self.transitions = [spec._transitions[s] for s in self.symbols]
        start = spec.state_index(spec.initial_state)
        self.configs: dict[tuple[int, int], complex] = {(start, 0): 1 + 0j}

    def step(self) -> list[float]:
        """One step and its measurement; returns the residual, accept and reject mass."""
        length = len(self.symbols)
        transitions = self.transitions
        summed: dict[tuple[int, int], complex] = {}
        for (state, position), amplitude in self.configs.items():
            entries = transitions[position][state]
            if entries is None:
                entries = self.spec._column_transitions(self.symbols[position], state)
            for target, move, weight in entries:
                key = (target, (position + move) % length)
                summed[key] = summed.get(key, 0j) + weight * amplitude
        roles = self.spec._halt_role
        masses = [0.0, 0.0, 0.0]
        live = {}
        for key, amplitude in summed.items():
            if not amplitude:  # cancelled exactly: not live, as in the live block
                continue
            role = roles[key[0]]
            # a Python float ** raises OverflowError where this gives inf
            masses[role] += amplitude.real * amplitude.real + amplitude.imag * amplitude.imag
            if not role:
                live[key] = amplitude
        self.configs = live
        return masses


def step(spec: TwoWayQfaSpec, word: str, vector: AmplitudeVector) -> AmplitudeVector:
    """Apply one evolution step of `spec` on the tape of `word`."""
    if vector.tape_length != len(word) + 2:
        raise ValueError("vector tape length does not match the word")
    evolution = _Evolution(spec, word)
    return AmplitudeVector(spec, vector.tape_length, evolution.apply(vector.data))


def _norm_squared(data: np.ndarray) -> float:
    return float(np.vdot(data, data).real)


def _measure_off(spec: TwoWayQfaSpec, data: np.ndarray) -> tuple[float, float]:
    """The accept and reject mass of `data`; zeroes its halting rows in place."""
    accept = _norm_squared(data[spec._accept_rows])
    reject = _norm_squared(data[spec._reject_rows])
    data[spec._halting_rows] = 0
    return accept, reject


def measure(
    spec: TwoWayQfaSpec, vector: AmplitudeVector
) -> tuple[float, float, AmplitudeVector]:
    """Project out the halting components.

    Returns the accept gain, the reject gain and the residual vector with
    halting amplitudes zeroed.  The residual is not renormalised.
    """
    residual = vector.copy()
    gain_accept, gain_reject = _measure_off(spec, residual.data)
    return gain_accept, gain_reject, residual


def run(
    spec: TwoWayQfaSpec,
    word: str,
    *,
    max_steps: int | None = None,
    halt_threshold: float = DEFAULT_HALT_THRESHOLD,
    trace: bool = False,
) -> RunResult:
    """Alternate step and measurement until the residual mass is spent.

    Stops once the residual drops below halt_threshold or, failing that,
    after max_steps (default 64 * n_paths * (n + 2)); exhausting the budget
    is reported via halted=False, not raised.  A residual that overflows to
    a non-finite value also ends the run with halted=False.

    Every step of a run takes the engine the machine chose when its spec
    was built: the frontier of live configurations when its matrices are
    more than half zeros, the live-block matmul otherwise.
    """
    if max_steps is None:
        max_steps = MAX_STEPS_FACTOR * spec.n_paths * (len(word) + 2)
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if not 0 < halt_threshold < 1:
        raise ValueError("halt_threshold must lie strictly between 0 and 1")
    if spec._sparse:
        engine = _Frontier(spec, word)
    else:
        engine = _Evolution(spec, word)
        engine.data = initial_vector(spec, word).data

    p_accept = 0.0
    p_reject = 0.0
    residual_mass = 1.0
    steps = 0
    halted = False
    records: list[tuple[float, float, float]] = []

    for _ in range(max_steps):
        residual_mass, gain_accept, gain_reject = engine.step()
        steps += 1
        p_accept += gain_accept
        p_reject += gain_reject
        if trace:
            records.append((p_accept, p_reject, residual_mass))
        if residual_mass < halt_threshold:
            halted = True
            break
        if not math.isfinite(residual_mass):
            break

    return RunResult(
        p_accept=p_accept,
        p_reject=p_reject,
        p_residual=residual_mass,
        steps=steps,
        halted=halted,
        trace=tuple(records) if trace else None,
    )
