"""Machine definitions: transition tables, completion, well-formedness.

A two-way machine is described by one unitary matrix per tape symbol plus a
head function assigning each state a move in {-1, 0, +1}.  The transition
amplitude from (q, sigma) to (q', d) is the matrix entry <q'|V_sigma|q> when
the head function sends q' in direction d, and zero otherwise.  A spec
stores each matrix by its nonzero columns (``Columns``), so the N-path
machines, about N^2 states with one or a few nonzeros a column, are built,
checked, saved, loaded and run without an S x S array.

Tables taken from the literature are usually partial: they pin down the
columns that carry the interesting dynamics and leave the rest open.
``complete_partial_table`` fills the open columns deterministically so that
every per-symbol matrix becomes unitary, and ``validate`` checks that
unitarity numerically, one block of linked columns at a time.  The three
local well-formedness conditions follow from unitarity, because each head
move is keyed by the target state (see ``validate``).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import TableCompletionError

LEFT_MARKER = "#"
RIGHT_MARKER = "$"

#: numerical tolerance used by the well-formedness validator
DEFAULT_TOLERANCE = 1e-9

_DIRECTIONS = (-1, 0, 1)


class Columns(NamedTuple):
    """A square matrix by its nonzero columns; an explicit zero is never stored.

    Column j holds the int32 rows indices[indptr[j]:indptr[j + 1]],
    ascending, and the complex128 values at the same places.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    @classmethod
    def from_entries(cls, n: int, keys, values) -> "Columns":
        """The n x n matrix with values[k] at column * n + row = keys[k], each key at most once."""
        keys = np.asarray(keys, dtype=np.int64)
        order = np.argsort(keys)
        values = np.asarray(values, dtype=np.complex128)[order]
        columns, rows = np.divmod(keys[order[values != 0]], n)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(columns, minlength=n))])
        return cls(indptr, rows.astype(np.int32), values[values != 0])

    def owners(self) -> np.ndarray:
        """The column of each stored entry."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))

    def relabels(self) -> np.ndarray:
        """Per column, whether its one nonzero is exactly 1 on a row with no other nonzero."""
        n, owners = len(self.indptr) - 1, self.owners()
        solo = (np.bincount(self.indices, minlength=n)[self.indices] == 1) & (self.values == 1)
        solo &= (np.diff(self.indptr) == 1)[owners]
        return np.bincount(owners[solo], minlength=n).astype(bool)

    def dense(self) -> np.ndarray:
        matrix = np.zeros((len(self.indptr) - 1,) * 2, dtype=np.complex128)
        matrix[self.indices, self.owners()] = self.values
        return matrix


class _DenseView(Mapping):
    """Per tape symbol, a spec's matrix as a read-only dense array built on each lookup."""

    def __init__(self, columns: dict[str, Columns]):
        self._columns = columns

    def __getitem__(self, symbol: str) -> np.ndarray:
        matrix = self._columns[symbol].dense()
        matrix.flags.writeable = False
        return matrix

    def __iter__(self):
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _DenseView):
            return NotImplemented
        # stored columns hold no zeros, so equal arrays mean equal matrices
        mine, theirs = self._columns, other._columns
        return mine.keys() == theirs.keys() and all(
            all(map(np.array_equal, matrix, theirs[symbol])) for symbol, matrix in mine.items()
        )


@dataclass
class TwoWayQfaSpec:
    """A complete two-way machine over a finite input alphabet.

    states are ordered; the order fixes matrix indexing, file layout and
    every deterministic tie-break in the package.  symbol_unitaries is keyed
    by tape symbol (input alphabet plus the two end markers) and gives each
    matrix dense or as ``Columns``; the spec stores a copy as ``Columns``
    (``_columns``) and then holds in symbol_unitaries a read-only view that
    makes the dense matrices on each lookup.  The simulator keeps its
    tables of the machine on the spec once it first runs it, so a changed
    machine needs a new spec; pickling or copying a spec leaves them out.
    Each input symbol is one character, since a word is read one character
    a cell, and neither end marker.  padded_entries names (tape symbol, source state) pairs, each at most
    once.
    """

    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    initial_state: str
    accept_states: frozenset[str]
    reject_states: frozenset[str]
    symbol_unitaries: Mapping[str, np.ndarray | Columns]
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
        for symbol in self.input_alphabet:
            # a word is read one character a cell, so no other symbol could sit on the tape
            if not (isinstance(symbol, str) and len(symbol) == 1):
                raise ValueError(f"input symbol {symbol!r} is not exactly one character")
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
        given = self.symbol_unitaries
        if isinstance(given, _DenseView):
            # another spec's view, as dataclasses.replace passes it: its
            # columns, not the S x S arrays a lookup would build
            given = given._columns
        self._columns: dict[str, Columns] = {}
        for symbol in self.tape_alphabet:
            matrix = given[symbol]
            if not isinstance(matrix, Columns) and np.shape(matrix) == (n, n):
                flat = np.transpose(matrix).ravel()
                keys = np.flatnonzero(flat)
                matrix = Columns.from_entries(n, keys, flat[keys])
            if not isinstance(matrix, Columns) or len(matrix.indptr) != n + 1:
                raise ValueError(f"matrix for {symbol!r} is not {n}x{n}")
            if not np.isfinite(matrix.values).all():
                raise ValueError(f"matrix for {symbol!r} has a non-finite entry")
            self._columns[symbol] = matrix
        self.symbol_unitaries = _DenseView(self._columns)
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        for symbol, state in self.padded_entries:
            if symbol not in self._columns or state not in state_set:
                raise ValueError(f"padded entry ({symbol!r}, {state!r}) is not a symbol and state")
        if len(set(self.padded_entries)) != len(self.padded_entries):
            raise ValueError("a padded entry is listed twice")
        self._state_index = {state: i for i, state in enumerate(self.states)}

    def __getstate__(self) -> dict:
        """The state ``pickle`` and ``copy`` keep: the spec without the simulator's tables.

        A run builds those again on the copy, so a pickled spec is the same
        bytes before and after a run.
        """
        state = vars(self).copy()
        state.pop("_tables", None)
        return state

    @property
    def tape_alphabet(self) -> tuple[str, ...]:
        return (LEFT_MARKER,) + tuple(self.input_alphabet) + (RIGHT_MARKER,)

    def state_index(self, state: str) -> int:
        return self._state_index[state]


def amplitude_of(
    spec: TwoWayQfaSpec, source: str, symbol: str, target: str, direction: int
) -> complex:
    """Transition amplitude from (source, symbol) to (target, direction)."""
    if spec.head_fn[target] != direction:
        return 0j
    indptr, indices, values = spec._columns[symbol]
    column = slice(*indptr[spec.state_index(source):][:2])
    return complex(values[column][indices[column] == spec.state_index(target)].sum())


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


def _blocks(matrix: Columns, sources) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The linked blocks of `matrix`, whose columns outside `sources` are empty.

    Columns sharing a row are linked, so V^H V is zero outside the blocks of
    linked columns and the rows they touch.  Each block comes as its rows,
    its columns (both ascending) and its dense entries, by first row.  A
    pure relabel (``Columns.relabels``) is an exact block and left out; an
    empty column of `sources` is a block without rows and comes last.
    """
    n = len(matrix.indptr) - 1
    linked = ~matrix.relabels()[matrix.owners()]
    rows, owners, values = matrix.indices[linked], matrix.owners()[linked], matrix.values[linked]
    # label each column by the least column linked to it: take the least
    # label two hops away, then the label of that label, until none changes
    label, update = None, np.arange(n)
    while not np.array_equal(update, label):
        label, least = update, np.full(n, n)
        np.minimum.at(least, rows, label[owners])
        update = label.copy()
        np.minimum.at(update, owners, least[rows])
        update = update[update]
    order = np.argsort(label[owners], kind="stable")
    cuts = np.flatnonzero(np.diff(label[owners][order])) + 1
    blocks = []
    for entries in np.split(order, cuts) if order.size else ():
        block_rows, at_row = np.unique(rows[entries], return_inverse=True)
        block_columns, at_column = np.unique(owners[entries], return_inverse=True)
        block = np.zeros((len(block_rows), len(block_columns)), dtype=np.complex128)
        block[at_row, at_column] = values[entries]
        blocks.append((block_rows, block_columns, block))
    blocks.sort(key=lambda block: block[0][0])
    empty = np.zeros((0, 1), dtype=np.complex128)
    return blocks + [([], [c], empty) for c in sources if matrix.indptr[c] == matrix.indptr[c + 1]]


@np.errstate(over="ignore", invalid="ignore")
def _deviation(blocks) -> tuple[float, int, int]:
    """The largest |B^H B - I| over the blocks B and its columns; an overflow's NaN as infinity."""
    worst = (0.0, 0, 0)
    for _, columns, block in blocks:
        gram = block.conj().T @ block
        deviation = np.abs(gram - np.eye(len(gram)))
        i, j = np.unravel_index(np.argmax(deviation), deviation.shape)
        if math.isnan(deviation[i, j]):
            return math.inf, columns[i], columns[j]
        worst = max(worst, (float(deviation[i, j]), columns[i], columns[j]))
    return worst


def _unitarity_deviation(matrix: Columns) -> float:
    """Largest entry of |V^H V - I|, from the Gram of each linked block."""
    n = len(matrix.indptr) - 1
    if n <= 64:  # one block: at this size a product costs less than finding blocks
        return _deviation([(None, range(n), matrix.dense())])[0]
    return _deviation(_blocks(matrix, range(n)))[0]


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
    deviation = max(map(_unitarity_deviation, spec._columns.values()))
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


def complete_partial_table(table: PartialTable) -> TwoWayQfaSpec:
    """Extend a partial table to a full machine with unitary matrices.

    The specified columns of each symbol must already be pairwise
    orthonormal; otherwise no unitary extension exists and a
    TableCompletionError names the symbol and an offending column pair.  A
    row under a symbol outside the tape alphabet raises it too, and so do
    an unknown state and a repeated (source, symbol, target).

    Every symbol is completed by one rule.  The rows its specified columns
    touch receive the orthonormal complement of those columns, from an SVD
    of each block of linked columns alone (``_blocks``), exactly zero off
    the block; every other row receives its own basis vector.  Unspecified
    non-halting sources take the basis vectors of rejecting rows first; the
    other unspecified sources, in state order, then take the remaining basis
    vectors in row order and after them the complements, by the blocks'
    first rows.  When every specified column is a unit basis vector the
    complement is empty and the completion is a permutation.
    """
    states = table.states
    index = {state: i for i, state in enumerate(states)}
    n = len(states)
    halting = table.accept_states | table.reject_states
    # per tape symbol, the amplitude of each row, keyed source * n + target
    given: dict[str, dict[int, complex]] = {s: {} for s in table.tape_alphabet}
    for row in table.rows:
        source, symbol, target, amplitude = row
        if symbol not in given:
            raise TableCompletionError(f"row {row!r} names {symbol!r}, which is not a tape symbol")
        if source not in index or target not in index:
            raise TableCompletionError(f"row references unknown state: {source!r} -> {target!r}")
        key = index[source] * n + index[target]
        if key in given[symbol]:
            raise TableCompletionError(
                f"conflicting rows for source {source!r}, target {target!r} under {symbol!r}"
            )
        given[symbol][key] = complex(amplitude)
    matrices: dict[str, Columns] = {}
    padded: list[tuple[str, str]] = []

    for symbol, entries in given.items():
        specified = sorted({key // n for key in entries})
        matrix = Columns.from_entries(n, list(entries), list(entries.values()))
        blocks = _blocks(matrix, specified)
        deviation, a, b = _deviation(blocks)
        if deviation >= DEFAULT_TOLERANCE:
            raise TableCompletionError(
                f"columns for source states {states[a]!r} and {states[b]!r} under symbol "
                f"{symbol!r} are not orthonormal"
            )
        untouched = sorted(set(range(n)).difference(matrix.indices.tolist()))
        unspecified = sorted(set(range(n)).difference(specified))
        free_reject = [r for r in untouched if states[r] in table.reject_states]
        routed = dict(zip([s for s in unspecified if states[s] not in halting], free_reject))
        taken = set(routed.values())
        basis = [r for r in untouched if r not in taken]
        leftovers = [s for s in unspecified if s not in routed]
        entries.update({s * n + r: 1.0 for s, r in [*routed.items(), *zip(leftovers, basis)]})
        completed = iter(leftovers[len(basis):])
        for block_rows, block_columns, block in blocks:
            size = len(block_rows) - len(block_columns)
            if size > 0:
                u, _, _ = np.linalg.svd(block, full_matrices=True)
                # int64 keys: block_rows are int32, and source * n passes 2**31
                # from about 46,000 states on
                keys = block_rows.astype(np.int64)
                for vector, source in zip(u[:, -size:].T, completed):
                    entries.update(zip((source * n + keys).tolist(), vector.tolist()))
        matrix = Columns.from_entries(n, list(entries), list(entries.values()))
        padded.extend((symbol, states[s]) for s in unspecified)
        deviation = _unitarity_deviation(matrix)
        if deviation >= 1e-12:
            raise TableCompletionError(
                f"completion for symbol {symbol!r} failed unitarity ({deviation:.3e})"
            )
        matrices[symbol] = matrix

    return TwoWayQfaSpec(
        states=states,
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
