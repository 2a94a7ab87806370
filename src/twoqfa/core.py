"""Simulation of two-way machines with measurement after every step.

A configuration pairs a state with a head position on the marked tape
``#w$``; positions are reduced modulo n+2, so the tape is circular.  One
step applies the per-symbol unitary at every head position and then moves
every target state by its head direction.  After each step the accepting
and rejecting components are measured off and accumulated without
renormalising the remainder.

``run`` and ``step`` take one of two engines, chosen once per machine from
the nonzeros of its matrices.  A machine whose matrices are more than half
zeros, as the bundled machines are, has few configurations live at once and
few transitions out of each, so ``_Frontier`` steps them one by one.  A
denser machine, such as a Haar-random one, soon makes most of its tape
live, so ``_Evolution`` multiplies the whole array, one product per symbol.
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
        states = self.spec.states
        items = _nonzeros(self.data).items()
        return {Configuration(states[row], col): amplitude for (row, col), amplitude in items}

    def norm_squared(self) -> float:
        return _norm_squared(self.data)

    def copy(self) -> "AmplitudeVector":
        return AmplitudeVector(self.spec, self.tape_length, self.data.copy())


def _nonzeros(data: np.ndarray) -> dict[tuple[int, int], complex]:
    """The nonzero entries of `data` keyed by (row, column), in row order."""
    # np.nonzero on the whole array costs about five times any() on it
    rows = np.flatnonzero(data.any(axis=1))
    live, cols = np.nonzero(data[rows])
    rows = rows[live]
    return dict(zip(zip(rows.tolist(), cols.tolist()), data[rows, cols].tolist()))


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

    Each tape symbol's matrix multiplies the columns (head positions) that
    hold the symbol, and entry (t, col) of the product lands at flat cell
    t * length + (col + move[t]) mod length of the circular tape.  The word
    fixes both index sets, so they are found once per symbol.  For a fixed
    target row the shift is a bijection of the columns, so every cell of
    the result is written exactly once.  data is the amplitude array that
    ``step`` advances, starting from the initial configuration.
    """

    def __init__(self, spec: TwoWayQfaSpec, word: str):
        self.spec = spec
        symbols = np.array(_tape_symbols(spec, word))
        length = symbols.size
        offsets = np.arange(len(spec.states))[:, np.newaxis] * length
        self.groups = []
        for symbol in np.unique(symbols).tolist():
            cols = np.flatnonzero(symbols == symbol)
            cells = offsets + (cols + spec._move_column) % length
            self.groups.append((spec._matrices[symbol], cols, cells))
        self.data = initial_vector(spec, word).data

    def apply(self, data: np.ndarray) -> np.ndarray:
        """One step's products of `data`, not yet measured, in a new array."""
        out = np.empty(data.shape, dtype=np.complex128)
        cells = out.reshape(-1)
        for matrix, cols, targets in self.groups:
            cells[targets] = matrix @ data[:, cols]
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
    (``advance``) and only then measures, so amplitudes interfere before the
    halting mass is taken off.
    """

    def __init__(self, spec: TwoWayQfaSpec, word: str):
        self.spec = spec
        self.symbols = _tape_symbols(spec, word)
        self.transitions = [spec._transitions[s] for s in self.symbols]
        start = spec.state_index(spec.initial_state)
        self.configs: dict[tuple[int, int], complex] = {(start, 0): 1 + 0j}

    def advance(self) -> dict[tuple[int, int], complex]:
        """One step's products, summed per target configuration and not yet measured."""
        length = len(self.symbols)
        transitions = self.transitions
        summed: dict[tuple[int, int], complex] = {}
        for (state, position), amplitude in self.configs.items():
            for target, move, weight in transitions[position][state]:
                key = (target, (position + move) % length)
                summed[key] = summed.get(key, 0j) + weight * amplitude
        return summed

    def step(self) -> list[float]:
        """One step and its measurement; returns the residual, accept and reject mass."""
        roles = self.spec._halt_role
        masses = [0.0, 0.0, 0.0]
        live = {}
        for key, amplitude in self.advance().items():
            if not amplitude:  # cancelled exactly: a zero entry, as in the array
                continue
            role = roles[key[0]]
            # a Python float ** raises OverflowError where this gives inf
            masses[role] += amplitude.real * amplitude.real + amplitude.imag * amplitude.imag
            if not role:
                live[key] = amplitude
        self.configs = live
        return masses


def step(spec: TwoWayQfaSpec, word: str, vector: AmplitudeVector) -> AmplitudeVector:
    """Apply one evolution step of `spec` on the tape of `word`, on the engine of ``run``."""
    if vector.data.shape != (len(spec.states), len(word) + 2):
        raise ValueError("vector shape does not match the machine and word")
    if not spec._sparse:
        return AmplitudeVector(spec, vector.tape_length, _Evolution(spec, word).apply(vector.data))
    frontier = _Frontier(spec, word)
    frontier.configs = _nonzeros(vector.data)
    out = AmplitudeVector(spec, vector.tape_length)
    for (row, col), amplitude in frontier.advance().items():
        out.data[row, col] = amplitude
    return out


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
    """Project out the halting components of `vector`, a vector of `spec`.

    Returns the accept gain, the reject gain and the residual vector with
    halting amplitudes zeroed.  The residual is not renormalised.
    """
    residual = AmplitudeVector(spec, vector.tape_length, vector.data.copy())
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
    was built, as ``step`` does: the frontier of live configurations when
    its matrices are more than half zeros, the whole-array matmul otherwise.
    """
    if max_steps is None:
        max_steps = MAX_STEPS_FACTOR * spec.n_paths * (len(word) + 2)
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if not 0 < halt_threshold < 1:
        raise ValueError("halt_threshold must lie strictly between 0 and 1")
    engine = (_Frontier if spec._sparse else _Evolution)(spec, word)

    p_accept = 0.0
    p_reject = 0.0
    residual_mass = 1.0
    halted = False
    records: list[tuple[float, float, float]] = []

    for steps in range(1, max_steps + 1):
        residual_mass, gain_accept, gain_reject = engine.step()
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
