"""Machine definitions: transition tables, completion, well-formedness.

A two-way machine is described by one unitary matrix per tape symbol plus a
head function assigning each state a move in {-1, 0, +1}.  The transition
amplitude from (q, sigma) to (q', d) is the matrix entry <q'|V_sigma|q> when
the head function sends q' in direction d, and zero otherwise.

Tables taken from the literature are usually partial: they pin down the
columns that carry the interesting dynamics and leave the rest open.
``complete_partial_table`` fills the open columns deterministically so that
every per-symbol matrix becomes unitary, and ``validate`` checks that
unitarity numerically.  The three local well-formedness conditions need no
check of their own: keying each head move by the target state makes them
follow from unitarity (see ``validate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TableCompletionError

LEFT_MARKER = "#"
RIGHT_MARKER = "$"

#: numerical tolerance used by the well-formedness validator
DEFAULT_TOLERANCE = 1e-9

_DIRECTIONS = (-1, 0, 1)


@dataclass(eq=False)
class TwoWayQfaSpec:
    """A complete two-way machine over a finite input alphabet.

    states are ordered; the order fixes matrix indexing, file layout and
    every deterministic tie-break in the package.  symbol_unitaries is keyed
    by tape symbol (input alphabet plus the two end markers).  The simulator
    keeps the transitions it reads from a column and the engine the
    matrices' nonzeros chose, so a changed machine needs a new spec rather
    than edited matrices.
    """

    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    initial_state: str
    accept_states: frozenset[str]
    reject_states: frozenset[str]
    symbol_unitaries: dict[str, np.ndarray]
    head_fn: dict[str, int]
    name: str = ""
    n_paths: int = 1
    padded_entries: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.states:
            raise ValueError("state list is empty")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state names")
        if len(set(self.input_alphabet)) != len(self.input_alphabet):
            raise ValueError("duplicate input symbols")
        for marker in (LEFT_MARKER, RIGHT_MARKER):
            if marker in self.input_alphabet:
                raise ValueError(f"input alphabet may not contain the marker {marker!r}")
        if self.initial_state not in self.states:
            raise ValueError(f"initial state {self.initial_state!r} not a state")
        state_set = set(self.states)
        if not self.accept_states <= state_set or not self.reject_states <= state_set:
            raise ValueError("accept/reject states must be states")
        if self.accept_states & self.reject_states:
            raise ValueError("accept and reject states overlap")
        if set(self.head_fn) != state_set:
            raise ValueError("head function must be total over the states")
        for state, move in self.head_fn.items():
            if move not in _DIRECTIONS:
                raise ValueError(f"head move for {state!r} must be -1, 0 or +1")
        if set(self.symbol_unitaries) != set(self.tape_alphabet):
            raise ValueError("one matrix per tape symbol is required")
        n = len(self.states)
        for symbol, matrix in self.symbol_unitaries.items():
            if matrix.shape != (n, n):
                raise ValueError(f"matrix for {symbol!r} is not {n}x{n}")
            if matrix.dtype != np.complex128:
                self.symbol_unitaries[symbol] = matrix.astype(np.complex128)
            if not np.isfinite(self.symbol_unitaries[symbol]).all():
                raise ValueError(f"matrix for {symbol!r} has a non-finite entry")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        self._state_index = {state: i for i, state in enumerate(self.states)}
        self._move_column = np.array([self.head_fn[s] for s in self.states])[:, np.newaxis]
        self._accept_rows = np.array(
            [i for i, s in enumerate(self.states) if s in self.accept_states], dtype=int
        )
        self._reject_rows = np.array(
            [i for i, s in enumerate(self.states) if s in self.reject_states], dtype=int
        )
        self._halting_rows = np.concatenate([self._accept_rows, self._reject_rows])
        # 0 for a state that keeps running, 1 accepting, 2 rejecting
        self._halt_role = [0] * n
        for role, rows in ((1, self._accept_rows), (2, self._reject_rows)):
            for row in rows.tolist():
                self._halt_role[row] = role
        # the number in tape_alphabet of each input symbol, and each tape
        # symbol's matrix, so that a run's set-up is one pass over the word
        self._symbol_index = {s: i for i, s in enumerate(self.input_alphabet, start=1)}
        self._matrices = [self.symbol_unitaries[s] for s in self.tape_alphabet]
        # the engine of run(), fixed by the machine: the frontier steps each
        # live configuration through the nonzeros of its column, the live
        # block multiplies whole matrices, so mostly-zero matrices go to the
        # frontier.  The bundled machines hold 0.1-8% nonzeros, Haar-random
        # machines 100%.  The count cannot see a small dense block that a
        # large sparse machine keeps busy; such a machine runs, slowly, on
        # the frontier.
        nonzeros = sum(np.count_nonzero(matrix) for matrix in self._matrices)
        self._sparse = 2 * nonzeros < len(self._matrices) * n * n
        # per tape symbol (in tape_alphabet order) and source state: the memo
        # of _column_transitions
        self._transitions: list[list[list | None]] = [[None] * n for _ in self.tape_alphabet]

    def _column_transitions(self, symbol: int, source: int) -> list[tuple[int, int, complex]]:
        """The (target, head move, amplitude) transitions out of one source state.

        These are the nonzero entries of column `source` of the matrix of
        tape symbol number `symbol`.  Each list is built on first use and
        kept, so a run pays only for the columns it reaches.
        """
        column = self._matrices[symbol][:, source]
        targets = np.flatnonzero(column)
        entries = list(
            zip(targets.tolist(), self._move_column[targets, 0].tolist(), column[targets].tolist())
        )
        self._transitions[symbol][source] = entries
        return entries

    @property
    def tape_alphabet(self) -> tuple[str, ...]:
        return (LEFT_MARKER,) + tuple(self.input_alphabet) + (RIGHT_MARKER,)

    def state_index(self, state: str) -> int:
        return self._state_index[state]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwoWayQfaSpec):
            return NotImplemented
        return (
            self.states == other.states
            and self.input_alphabet == other.input_alphabet
            and self.initial_state == other.initial_state
            and self.accept_states == other.accept_states
            and self.reject_states == other.reject_states
            and self.head_fn == other.head_fn
            and self.name == other.name
            and self.n_paths == other.n_paths
            and self.padded_entries == other.padded_entries
            and all(
                np.array_equal(self.symbol_unitaries[s], other.symbol_unitaries[s])
                for s in self.tape_alphabet
            )
        )


def amplitude_of(
    spec: TwoWayQfaSpec, source: str, symbol: str, target: str, direction: int
) -> complex:
    """Transition amplitude from (source, symbol) to (target, direction)."""
    if spec.head_fn[target] != direction:
        return 0j
    matrix = spec.symbol_unitaries[symbol]
    return complex(matrix[spec.state_index(target), spec.state_index(source)])


@dataclass(frozen=True)
class WellFormednessReport:
    """Outcome of the numerical well-formedness checks.

    Each *_max_deviation is the largest absolute violation observed; the
    matching flag compares it against the tolerance the validator ran with.
    """

    unitarity_ok: bool
    unitarity_max_deviation: float
    local_probability_ok: bool
    local_probability_max_deviation: float
    separability1_ok: bool
    separability1_max_deviation: float
    separability2_ok: bool
    separability2_max_deviation: float
    tolerance: float
    padded_entries: tuple[tuple[str, str], ...]

    @property
    def all_ok(self) -> bool:
        return (
            self.unitarity_ok
            and self.local_probability_ok
            and self.separability1_ok
            and self.separability2_ok
        )


@np.errstate(over="ignore", invalid="ignore")
def _unitarity_deviation(matrix: np.ndarray) -> float:
    """Largest entry of |V^H V - I|.

    Entries of a finite machine far from unitary can overflow; the NaN an
    overflow leaves (inf - inf) counts as an infinite deviation, where
    Python's max would drop it.
    """
    worst = float(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])).max())
    return math.inf if math.isnan(worst) else worst


def validate(spec: TwoWayQfaSpec, tolerance: float = DEFAULT_TOLERANCE) -> WellFormednessReport:
    """Check per-symbol unitarity; the three local conditions follow from it.

    The head move is keyed by the target state, as in the simple two-way
    machines of Kondacs and Watrous (FOCS 1997), so the direction masks
    P_-1, P_0, P_+1 split the rows of every symbol matrix V.  Hence the
    local-probability Gram sum_d V^H P_d V is V^H V itself, and both
    separability overlaps (V1^H P_+1 P_0 V2 and V1^H P_+1 P_-1 V2) hold a
    product of two disjoint masks, which is exactly zero, for every machine
    the constructor admits.  The report therefore carries the unitarity
    deviation as the local-probability deviation and 0.0 for separability.

    Never raises or warns on a badly formed machine; all violations are
    reported as numbers, an overflowed one as infinity.
    """
    deviation = max(_unitarity_deviation(spec.symbol_unitaries[s]) for s in spec.tape_alphabet)
    return WellFormednessReport(
        unitarity_ok=deviation < tolerance,
        unitarity_max_deviation=deviation,
        local_probability_ok=deviation < tolerance,
        local_probability_max_deviation=deviation,
        separability1_ok=0.0 < tolerance,
        separability1_max_deviation=0.0,
        separability2_ok=0.0 < tolerance,
        separability2_max_deviation=0.0,
        tolerance=tolerance,
        padded_entries=spec.padded_entries,
    )


@dataclass
class PartialTable:
    """A possibly incomplete transition table.

    rows holds (source state, tape symbol, target state, amplitude)
    quadruples; several rows may share (source, symbol) to describe a
    superposition column.  States not mentioned under some symbol are left
    for completion.
    """

    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    initial_state: str
    accept_states: frozenset[str]
    reject_states: frozenset[str]
    head_fn: dict[str, int]
    rows: list[tuple[str, str, str, complex]] = field(default_factory=list)
    name: str = ""
    n_paths: int = 1

    @property
    def tape_alphabet(self) -> tuple[str, ...]:
        return (LEFT_MARKER,) + tuple(self.input_alphabet) + (RIGHT_MARKER,)


def _specified_columns(table: PartialTable, symbol: str) -> dict[str, np.ndarray]:
    """Collect the column vector each source state is given under `symbol`."""
    index = {state: i for i, state in enumerate(table.states)}
    n = len(table.states)
    columns: dict[str, np.ndarray] = {}
    seen: set[tuple[str, str]] = set()
    for source, sym, target, amplitude in table.rows:
        if sym != symbol:
            continue
        if source not in index or target not in index:
            raise TableCompletionError(f"row references unknown state: {source!r} -> {target!r}")
        key = (source, target)
        if key in seen:
            raise TableCompletionError(
                f"conflicting rows for source {source!r}, target {target!r} under {symbol!r}"
            )
        seen.add(key)
        column = columns.setdefault(source, np.zeros(n, dtype=np.complex128))
        column[index[target]] = complex(amplitude)
    return columns


def _is_basis_column(column: np.ndarray) -> bool:
    nonzero = np.flatnonzero(column)
    return nonzero.size == 1 and column[nonzero[0]] == 1.0


def complete_partial_table(table: PartialTable) -> TwoWayQfaSpec:
    """Extend a partial table to a full machine with unitary matrices.

    The specified columns of each symbol must already be pairwise
    orthonormal; otherwise no unitary extension exists and a
    TableCompletionError names the symbol and an offending column pair.

    When every specified column is a unit basis vector the completion is a
    permutation: unspecified non-halting sources are first routed to unused
    rejecting targets, then everything left pairs up in state order.  For
    symbols holding genuine superposition columns the open columns receive
    an orthonormal basis of the complement of the specified span.
    """
    index = {state: i for i, state in enumerate(table.states)}
    n = len(table.states)
    halting = table.accept_states | table.reject_states
    matrices: dict[str, np.ndarray] = {}
    padded: list[tuple[str, str]] = []

    for symbol in table.tape_alphabet:
        columns = _specified_columns(table, symbol)
        specified_sources = [s for s in table.states if s in columns]
        if specified_sources:
            block = np.stack([columns[s] for s in specified_sources], axis=1)
            gram = block.conj().T @ block
            deviation = np.abs(gram - np.eye(len(specified_sources)))
            worst = np.unravel_index(np.argmax(deviation), deviation.shape)
            # written as a negation so that a NaN column fails it too
            if not deviation[worst] < DEFAULT_TOLERANCE:
                a, b = specified_sources[worst[0]], specified_sources[worst[1]]
                raise TableCompletionError(
                    f"columns for source states {a!r} and {b!r} under symbol "
                    f"{symbol!r} are not orthonormal"
                )

        matrix = np.zeros((n, n), dtype=np.complex128)
        for source in specified_sources:
            matrix[:, index[source]] = columns[source]
        unspecified = [s for s in table.states if s not in columns]

        if all(_is_basis_column(columns[s]) for s in specified_sources):
            used = {int(np.flatnonzero(columns[s])[0]) for s in specified_sources}
            unused = [s for s in table.states if index[s] not in used]
            free_reject = [s for s in unused if s in table.reject_states]
            assignment: dict[str, str] = {}
            for source in unspecified:
                if source not in halting and free_reject:
                    assignment[source] = free_reject.pop(0)
            remaining = [s for s in unused if s not in assignment.values()]
            leftovers = [s for s in unspecified if s not in assignment]
            for source, target in zip(leftovers, remaining):
                assignment[source] = target
            for source, target in assignment.items():
                matrix[index[target], index[source]] = 1.0
        elif unspecified:
            block = np.stack([columns[s] for s in specified_sources], axis=1)
            u, _, _ = np.linalg.svd(block, full_matrices=True)
            complement = u[:, len(specified_sources):]
            for k, source in enumerate(unspecified):
                matrix[:, index[source]] = complement[:, k]

        padded.extend((symbol, s) for s in unspecified)
        deviation = _unitarity_deviation(matrix)
        if deviation >= 1e-12:
            raise TableCompletionError(
                f"completion for symbol {symbol!r} failed unitarity ({deviation:.3e})"
            )
        matrices[symbol] = matrix

    return TwoWayQfaSpec(
        states=table.states,
        input_alphabet=tuple(table.input_alphabet),
        initial_state=table.initial_state,
        accept_states=frozenset(table.accept_states),
        reject_states=frozenset(table.reject_states),
        symbol_unitaries=matrices,
        head_fn=dict(table.head_fn),
        name=table.name,
        n_paths=table.n_paths,
        padded_entries=tuple(padded),
    )
