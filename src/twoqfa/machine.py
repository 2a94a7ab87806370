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
from dataclasses import dataclass, field, fields

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
    by tape symbol (input alphabet plus the two end markers).  The
    constructor fixes the engine from the matrices' nonzeros and, for the
    frontier, builds each column's step entry once, so a changed machine
    needs a new spec rather than edited matrices.  padded_entries names
    (tape symbol, source state) pairs, each at most once.
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
        for symbol, state in self.padded_entries:
            if symbol not in self.symbol_unitaries or state not in state_set:
                raise ValueError(f"padded entry ({symbol!r}, {state!r}) is not a symbol and state")
        if len(set(self.padded_entries)) != len(self.padded_entries):
            raise ValueError("a padded entry is listed twice")
        self._state_index = {state: i for i, state in enumerate(self.states)}
        self._move_column = np.array([self.head_fn[s] for s in self.states])[:, np.newaxis]
        # per state, 0 if it keeps running, 1 if it accepts, 2 if it rejects
        self._halt_role = np.array(
            [1 if s in self.accept_states else 2 if s in self.reject_states else 0
             for s in self.states]
        )
        # the number in tape_alphabet of each input symbol, and each tape
        # symbol's matrix, so that a run's set-up is one pass over the word
        self._symbol_index = {s: i for i, s in enumerate(self.input_alphabet, start=1)}
        self._matrices = [self.symbol_unitaries[s] for s in self.tape_alphabet]
        # the engine of run() and step(), fixed by the machine: the frontier
        # steps each live configuration through the nonzeros of its column,
        # the dense engine multiplies whole matrices, so mostly-zero matrices
        # go to the frontier.  The bundled machines at N <= 30 hold 0.1-8.3%
        # nonzeros, 1.0-1.6 a column, Haar-random machines 100%.  The count
        # cannot see a small dense block that a large sparse machine keeps
        # busy; such a machine runs, slowly, on the frontier.
        nonzero = [matrix != 0 for matrix in self._matrices]
        self._sparse = 2 * sum(map(np.count_nonzero, nonzero)) < len(nonzero) * n * n
        # for the frontier, which keys a configuration as position * n + state:
        # per tape symbol (in tape_alphabet order) and source state, how the
        # key of a configuration in that state on that symbol moves.  The
        # target t, moved by move[t], is at key + move[t] * n + t - source.  A
        # column whose one nonzero is exactly 1 on a running target, in a row
        # with no other nonzero, is a pure relabel and is kept as that int: no
        # other key can reach its target, so relabels never meet (every int
        # column of a unitary qualifies).  Any other column is a tuple of
        # (key delta, amplitude, halting role of the target), in target order.
        # wrapping holds, for the left and the right marker, the sources whose
        # column moves a target off the tape (move -1 on the left marker, +1 on
        # the right) and, per transition, 1 if it does; a word's table shifts
        # those deltas by L * n, the number of keys on its tape of L cells.
        self._steps: list[list[int | tuple[tuple[int, complex, int], ...]]] = []
        self._wrapping: tuple[list[tuple[int, tuple[int, ...]]], ...] = ([], [])
        if self._sparse:
            moves = self._move_column[:, 0].tolist()
            roles = self._halt_role.tolist()
            last = len(self._matrices) - 1
            for symbol, (matrix, mask) in enumerate(zip(self._matrices, nonzero)):
                columns = [[] for _ in range(n)]
                off_tape = [[] for _ in range(n)]
                leaving = -1 if symbol == 0 else 1 if symbol == last else None
                sources, targets = np.nonzero(mask.T)
                weights = matrix[targets, sources].tolist()
                alone = (mask.sum(axis=1) == 1).tolist()
                relabel = [False] * n
                for source, target, weight in zip(sources.tolist(), targets.tolist(), weights):
                    role = roles[target]
                    columns[source].append((moves[target] * n + target - source, weight, role))
                    off_tape[source].append(int(moves[target] == leaving))
                    relabel[source] = weight == 1 and not role and alone[target]
                self._steps.append([
                    column[0][0] if len(column) == 1 and relabel[source] else tuple(column)
                    for source, column in enumerate(columns)
                ])
                if leaving is not None:
                    self._wrapping[symbol == last].extend(
                        (source, tuple(off)) for source, off in enumerate(off_tape) if any(off)
                    )

    @property
    def tape_alphabet(self) -> tuple[str, ...]:
        return (LEFT_MARKER,) + tuple(self.input_alphabet) + (RIGHT_MARKER,)

    def state_index(self, state: str) -> int:
        return self._state_index[state]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwoWayQfaSpec):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name == "symbol_unitaries":
                if mine.keys() != theirs.keys() or not all(
                    np.array_equal(matrix, theirs[symbol]) for symbol, matrix in mine.items()
                ):
                    return False
            elif mine != theirs:
                return False
        return True


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
    worst = float(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])).max(initial=0.0))
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


def _specified_columns(
    table: PartialTable, symbol: str, rows: list[tuple[str, str, str, complex]]
) -> dict[str, np.ndarray]:
    """Collect the column vector each source state is given under `symbol`."""
    index = {state: i for i, state in enumerate(table.states)}
    n = len(table.states)
    columns: dict[str, np.ndarray] = {}
    seen: set[tuple[str, str]] = set()
    for source, _, target, amplitude in rows:
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


def _complement(block: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the complement of the orthonormal columns of `block`.

    Every row of `block` must hold a nonzero.  Rows linked by a shared
    column form a group; each group's complement comes from an SVD of that
    group alone and is zero outside it.  One SVD of the whole block would
    span the same space but leave round-off, up to about 2e-16, on the rows
    of other groups.  The groups' complements follow the order of their
    first rows.
    """
    hit = block != 0
    pieces = []
    left = np.ones(len(block), dtype=bool)
    while left.any():
        rows = np.zeros(len(block), dtype=bool)
        rows[np.argmax(left)] = True
        while True:
            cols = hit[rows].any(axis=0)
            grown = hit[:, cols].any(axis=1)
            if (grown == rows).all():
                break
            rows = grown
        left &= ~rows
        size = np.count_nonzero(rows) - np.count_nonzero(cols)
        if size:
            u, _, _ = np.linalg.svd(block[np.ix_(rows, cols)], full_matrices=True)
            piece = np.zeros((len(block), size), dtype=np.complex128)
            piece[rows] = u[:, -size:]
            pieces.append(piece)
    return np.concatenate(pieces, axis=1)


def complete_partial_table(table: PartialTable) -> TwoWayQfaSpec:
    """Extend a partial table to a full machine with unitary matrices.

    The specified columns of each symbol must already be pairwise
    orthonormal; otherwise no unitary extension exists and a
    TableCompletionError names the symbol and an offending column pair.  A
    row under a symbol outside the tape alphabet raises it too.

    Every symbol is completed by one rule.  The rows its specified columns
    touch receive the orthonormal complement of those columns, taken over
    the touched rows alone; every other row receives its own basis vector.
    Unspecified non-halting sources take the basis vectors of rejecting rows
    first; the other unspecified sources, in state order, then take the
    remaining basis vectors in row order and after them the complement.
    When every specified column is a unit basis vector the complement is
    empty and the completion is a permutation.
    """
    index = {state: i for i, state in enumerate(table.states)}
    n = len(table.states)
    halting = table.accept_states | table.reject_states
    rows_by_symbol: dict[str, list[tuple[str, str, str, complex]]] = {
        symbol: [] for symbol in table.tape_alphabet
    }
    for row in table.rows:
        if row[1] not in rows_by_symbol:
            raise TableCompletionError(f"row {row!r} names {row[1]!r}, which is not a tape symbol")
        rows_by_symbol[row[1]].append(row)
    matrices: dict[str, np.ndarray] = {}
    padded: list[tuple[str, str]] = []

    for symbol in table.tape_alphabet:
        columns = _specified_columns(table, symbol, rows_by_symbol[symbol])
        specified_sources = [s for s in table.states if s in columns]
        block = np.zeros((n, len(specified_sources)), dtype=np.complex128)
        for k, source in enumerate(specified_sources):
            block[:, k] = columns[source]
        # the given columns, and the complement of them, live on the touched
        # rows alone; every other column is a basis vector on another row
        hit = block.any(axis=1)
        touched, untouched = np.flatnonzero(hit), np.flatnonzero(~hit).tolist()
        given = block[touched]
        if specified_sources:
            gram = given.conj().T @ given
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
        matrix[:, [index[s] for s in specified_sources]] = block
        unspecified = [s for s in table.states if s not in columns]
        free_reject = [r for r in untouched if table.states[r] in table.reject_states]
        routed = dict(zip([s for s in unspecified if s not in halting], free_reject))
        taken = set(routed.values())
        basis = [r for r in untouched if r not in taken]
        leftovers = [s for s in unspecified if s not in routed]
        for source, row in [*routed.items(), *zip(leftovers, basis)]:
            matrix[row, index[source]] = 1.0
        completed = leftovers[len(basis):]
        if completed:
            complement = _complement(given)
            for k, source in enumerate(completed):
                matrix[touched, index[source]] = complement[:, k]

        padded.extend((symbol, s) for s in unspecified)
        live = [index[s] for s in specified_sources + completed]
        deviation = _unitarity_deviation(matrix[np.ix_(touched, live)])
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
