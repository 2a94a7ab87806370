"""Simulation of two-way machines with measurement after every step.

A configuration pairs a state with a head position on the marked tape
``#w$``; positions are reduced modulo n+2, so the tape is circular.  One
step applies the per-symbol unitary at every head position and then moves
every target state by its head direction.  After each step the accepting
and rejecting components are measured off and accumulated without
renormalising the remainder.

A spec holds only its machine.  The tables the engines read (``_Machine``)
are built on its first ``run``, ``step``, ``measure`` or ``initial_vector``
and kept on it, so a changed machine needs a new spec.  They number the
input symbols as in tape_alphabet, give each state its halting role (0
running, 1 accepting, 2 rejecting) and fix, from the nonzeros, the one
engine that ``run`` and ``step`` take.  A machine whose matrices are more
than half zeros, as the bundled ones are (0.1-8.3% nonzeros at N <= 30,
1.0-1.6 a column), keeps few configurations live, so ``_Frontier`` steps
them one by one; the count cannot see a small dense block that a large
sparse machine keeps busy, and such a machine runs, slowly, there.  A
denser machine, such as a Haar-random one, soon makes most of its tape
live, so ``_Evolution`` multiplies the array, one product per symbol.

The frontier keys a configuration by the int position * S + state, and
per tape symbol and source state a step entry says how the key moves: to
key + move[t] * S + t - source for each target t.  A column whose one
nonzero is exactly 1 on a running target, in a row with no other nonzero,
is a pure relabel, kept as that int delta: no other key reaches its
target, so relabels never meet and move an amplitude without a multiply.
Any other column is a tuple of (key delta, amplitude, halting role of the
target), in target order.  A run's table (``_flat_table``) has one row a
tape cell, its letter's entries, shared by every cell of that letter and
mapped from the word in one pass.  The two marker rows depend on the
tape's length alone: they shift by its L * S keys the deltas that leave
the tape, which the machine lists in wrapping.  So the machine keeps them
in an ``lru_cache`` of ``_MARKER_LENGTHS`` lengths, as tuples that every
table of that length shares.  Keys on relabel chains walk them on their
own clocks, one table read a step, and a full step takes only the keys
due at it.  A mover (``_movers``) waits a fixed number of steps on each
letter and moves on in its own state, as each path of an N-path stage
does, so the steps it takes to cross the word are a sum over the word's
letter counts.  Each letter's row holds its relabel as a ``Mover``, an int
that ``step`` adds as any other, and a walk that meets one on the first
input cell along its move crosses the whole word in one read.  So ``run``
and ``step`` read one table, and neither writes into it.

The dense engine orders the rows of the array by halting role, running
states first, and the machine keeps each symbol's matrix dense in that
order.  Per word (``_Layout``), the tape columns are sorted by symbol, so
each symbol's cells are one slice, and within a slice by distance from
cell 0, so the cells a run can reach by a step form a prefix of each
slice, which the step multiplies alone before one gather moves the
products to their target cells.  Both engines build their index tables
once per word; ``step`` keeps the last word it took and its tables on
the machine, as one pair, and converts a vector to and from the dense
order around the product, in which it reads every row and every column.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from heapq import heappop, heappush
from operator import mul

import numpy as np

from .errors import AlphabetError
from .machine import TwoWayQfaSpec

#: residual mass below which a run counts as halted
DEFAULT_HALT_THRESHOLD = 1e-12

#: multiplier in the default step budget 64 * n_paths * (n + 2)
MAX_STEPS_FACTOR = 64

#: the most cells, states times tape cells, of an amplitude array.  A dense
#: run peaks at about 60 bytes a cell (tracemalloc, 16 and 48 states on
#: 2,000 to 100,000 cells) and a dense ``step`` at about 73 with its
#: vector, so about 250 and 300 MB here; a full-reach step of 48 states on
#: 87,381 cells takes 0.11 s, and a run needs some L steps, hours at the
#: cap.  The frontier keeps no such array, so ``run`` checks this on the
#: dense engine alone, and ``step`` and ``initial_vector`` on both.
MAX_DENSE_CELLS = 2 ** 22

# How far a frontier's running residual must lie above the halting
# threshold, and may lie above 1, to be kept without an exact sum
# (``_Frontier``).  Rounding moves it by a few units of 1e-16 a full step,
# so a run would need about 10**9 full steps to drift as far.
_RESUM_MARGIN = 1e-6

# How many tape lengths a machine keeps the marker rows of: the maxsize of
# its own ``lru_cache``, which drops the least recently used length and is
# safe to call from several threads.  A long_words pass cycles through 4
# lengths on m2 and 8 on m3, and a cache smaller than a cycle would miss on
# every run, so this is twice the larger; a sweep uses one length at a time.
# Two rows of S references cost about 248 KB a length for m3 N=100 (2 * 8 *
# 15,508 B), so about 4 MB when full.
_MARKER_LENGTHS = 16


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
        rows, cols, values = _nonzeros(self.data)
        return {Configuration(states[row], col): a for row, col, a in zip(rows, cols, values)}

    def norm_squared(self) -> float:
        return _norm_squared(self.data)

    def copy(self) -> "AmplitudeVector":
        return AmplitudeVector(self.spec, self.tape_length, self.data.copy())


def _nonzeros(data: np.ndarray) -> tuple[list[int], list[int], list[complex]]:
    """The rows, columns and values of the nonzero entries of `data`, in row order."""
    # np.nonzero on the whole array costs about five times any() on it
    rows = np.flatnonzero(data.any(axis=1))
    live, cols = np.nonzero(data[rows])
    rows = rows[live]
    return rows.tolist(), cols.tolist(), data[rows, cols].tolist()


class Mover(int):
    """A pure relabel from a mover, as every input letter's row of a machine holds it.

    Its value is the int key delta it stands for, so everywhere but a walk
    it is that relabel.  move is the mover's head move; reading input
    symbol x, the mover is back in its state, one cell along move, after
    waits[x - 1] steps.  Its class is not int, so a walk stops on it and,
    on the first input cell along move, crosses the word.
    """

    def __new__(cls, delta: int, move: int, waits: tuple[int, ...]):
        mover = super().__new__(cls, delta)
        mover.move, mover.waits = move, waits
        return mover


def _movers(steps: list[list], moves: list[int]) -> dict[int, tuple[int, ...]]:
    """Each mover of a machine and its wait on each input symbol, from its step rows.

    A mover is a state s with head move d != 0 that, reading any input
    symbol x, follows only pure relabels to states that stay in place and
    then comes back to s itself, one cell along d, after waits[x - 1] steps.
    So a configuration that enters the first input cell along d in s
    reaches the opposite marker in s after the sum of its waits over the
    word's letters, whatever their order.  Each path of an N-path stage is
    one: its counter state _0 idles a fixed number of steps on each letter.

    No two relabels share a target, so the chains of stay relabels that
    start on different states share no state, and one pass over a symbol's
    row follows each of its relabels at most once.  A chain longer than the
    states would be a cycle of stay relabels, which ends the search.
    """
    n = len(moves)
    waits = {s: [] for s in range(n) if moves[s]}
    for row in steps[1:-1]:
        for start in list(waits):
            state = start
            for wait in range(1, n + 1):
                entry = row[state]
                if entry.__class__ is not int:
                    break
                state = (state + entry) % n
                if moves[state]:
                    break
            if state == start and entry.__class__ is int:
                waits[start].append(wait)
            else:
                del waits[start]
    return {s: tuple(w) for s, w in waits.items()}


class _Machine:
    """The engine tables of one spec (see the module docstring).

    sparse picks the engine.  The frontier reads steps (a row of step
    entries per tape symbol, in which each input symbol's row holds the
    ``Mover`` of each mover), letter_rows (each input letter's row of
    steps), wrapping (per marker, the sources with a transition that leaves
    the tape, and a 1 for each that does) and marker_rows (``_marker_rows``
    of a tape length, cached; it holds steps and wrapping, not the
    machine); the dense engine reads rows (the state order), the running
    and accepting counts, and each state's move and symbol's matrix in that
    order.  stepped is the pair of the last word ``step`` took and its
    tables, replaced in one assignment.
    """

    def __init__(self, spec: TwoWayQfaSpec):
        n = self.states = len(spec.states)
        self.symbol_index = {s: i for i, s in enumerate(spec.input_alphabet, start=1)}
        self.halt_role = np.array([1 if s in spec.accept_states else 2 if s in spec.reject_states
                                   else 0 for s in spec.states])
        moves = [spec.head_fn[s] for s in spec.states]
        columns = list(spec._columns.values())
        self.sparse = 2 * sum(len(c.values) for c in columns) < len(columns) * n * n
        self.stepped = (None, None)
        if not self.sparse:
            rows = self.rows = np.argsort(self.halt_role, kind="stable")
            self.running, self.accepting, _ = np.bincount(self.halt_role, minlength=3).tolist()
            self.moves = np.array(moves)[rows][:, np.newaxis]
            self.matrices = [matrix.dense()[rows][:, rows] for matrix in columns]
            return
        roles = self.halt_role.tolist()
        self.steps, self.wrapping, last = [], ([], []), len(columns) - 1
        for symbol, matrix in enumerate(columns):
            steps = [[] for _ in range(n)]
            off_tape = [[] for _ in range(n)]
            leaving = -1 if symbol == 0 else 1 if symbol == last else None
            for source, target, weight in zip(
                matrix.owners().tolist(), matrix.indices.tolist(), matrix.values.tolist()
            ):
                steps[source].append((moves[target] * n + target - source, weight, roles[target]))
                off_tape[source].append(int(moves[target] == leaving))
            self.steps.append([
                column[0][0] if relabel and not column[0][2] else tuple(column)
                for column, relabel in zip(steps, matrix.relabels().tolist())
            ])
            if leaving is not None:
                self.wrapping[symbol == last].extend(
                    (source, tuple(off)) for source, off in enumerate(off_tape) if any(off)
                )
        for s, waits in _movers(self.steps, moves).items():
            for steps in self.steps[1:-1]:
                steps[s] = Mover(steps[s], moves[s], waits)
        self.letter_rows = {letter: self.steps[i] for letter, i in self.symbol_index.items()}
        self.marker_rows = lru_cache(_MARKER_LENGTHS)(
            partial(_marker_rows, self.steps, self.wrapping, n))


def _machine(spec: TwoWayQfaSpec) -> _Machine:
    """The engine tables of `spec`, built on first use and kept on the spec."""
    if (machine := vars(spec).get("_tables")) is None:
        machine = spec._tables = _Machine(spec)
    return machine


def _tape_symbols(machine: _Machine, word: str) -> list[int]:
    """The index in tape_alphabet of each cell of the tape of `word`."""
    index = machine.symbol_index
    try:
        return [0, *map(index.__getitem__, word), len(index) + 1]
    except KeyError:
        raise _alphabet_error(machine, word) from None


def _alphabet_error(machine: _Machine, word: str) -> AlphabetError:
    """The error that names the first letter of `word` that is no input symbol, and its position."""
    position = next(p for p, symbol in enumerate(word) if symbol not in machine.symbol_index)
    return AlphabetError(word[position], position)


def _check_cells(spec: TwoWayQfaSpec, word: str) -> None:
    """Refuse an amplitude array of `spec` on the tape of `word` above ``MAX_DENSE_CELLS``."""
    states, length = len(spec.states), len(word) + 2
    if states * length > MAX_DENSE_CELLS:
        raise ValueError(
            f"{states} states on a tape of {length} cells make {states * length:,} amplitudes,"
            f" more than the {MAX_DENSE_CELLS:,} an array may hold"
        )


def initial_vector(spec: TwoWayQfaSpec, word: str) -> AmplitudeVector:
    """Unit mass on (initial state, position 0) for the tape of `word`."""
    _check_cells(spec, word)
    _tape_symbols(_machine(spec), word)
    vec = AmplitudeVector(spec, len(word) + 2)
    vec.data[spec.state_index(spec.initial_state), 0] = 1.0
    return vec


class _Layout:
    """The dense engine's order of the amplitude array on one tape.

    Row i of the array holds state rows[i]: the running states first, then
    the accepting, then the rejecting ones, each in state order.  Column j
    holds tape position columns[j]: the positions sorted by symbol, so each
    symbol's cells form one slice, and within a slice by circular distance
    from cell 0, where every run starts.  groups holds, per tape symbol on
    the tape, the machine's matrix in this row order, the first column of
    its slice and its cone: for each reach r from 0 to widest = L // 2, how
    many leading columns of the slice lie within r cells of cell 0.  sources
    holds the flat cell of a step's products that each cell of its result
    takes: the head moves by the move of the target row, so cell (i, j)
    takes the product of row i at the tape position columns[j] - move[rows[i]].
    """

    def __init__(self, machine: _Machine, symbols: list[int]):
        symbols = np.array(symbols)
        length = symbols.size
        self.running, self.accepting = machine.running, machine.accepting
        rows = self.rows = machine.rows
        position = np.arange(length)
        distance = np.minimum(position, length - position)
        columns = self.columns = np.lexsort((distance, symbols))
        sorted_column = np.empty(length, dtype=int)
        sorted_column[columns] = position
        sources = self.sources = sorted_column[(columns - machine.moves) % length]
        sources += np.arange(len(rows))[:, np.newaxis] * length
        self.widest = length // 2
        reaches = np.arange(self.widest + 1)
        self.groups = []
        lo = 0
        for symbol, count in enumerate(np.bincount(symbols).tolist()):
            if count:
                cone = np.searchsorted(distance[columns[lo:lo + count]], reaches, side="right")
                self.groups.append((machine.matrices[symbol], lo, cone.tolist()))
                lo += count

    def sort(self, data: np.ndarray) -> np.ndarray:
        """A tape-ordered amplitude array in this order."""
        return data[np.ix_(self.rows, self.columns)]

    def unsort(self, data: np.ndarray) -> np.ndarray:
        """An amplitude array in this order, back in tape order."""
        out = np.empty_like(data)
        out[np.ix_(self.rows, self.columns)] = data
        return out


def _flat_table(machine: _Machine, word: str) -> list:
    """The frontier's step entries for every cell of the tape of `word`.

    One row a cell: key position * S + state reads entry key % S of row
    key // S.  An input cell holds its letter's prebuilt row itself, shared
    with every other cell of that letter and never written.  The two marker
    cells hold the machine's cached marker rows for the tape's length,
    shared with every table of that length.
    """
    left, right = machine.marker_rows(len(word) + 2)
    try:
        return [left, *map(machine.letter_rows.__getitem__, word), right]
    except KeyError:
        raise _alphabet_error(machine, word) from None


def _marker_rows(steps: list[list], wrapping: tuple[list, list], states: int,
                 length: int) -> tuple[tuple, tuple]:
    """The left and right marker rows of a tape of `length` cells, of a machine of `states` states.

    Only the end markers can move a head off the tape, so only their rows
    depend on its length: each entry that `wrapping` lists is rebuilt from
    `steps` with the deltas that leave the tape shifted by the tape's L * S
    keys.  The rows are tuples, so no run or ``step`` can change those a
    machine's ``marker_rows`` cache shares.
    """
    shift = length * states
    rows = []
    for cell, sign, sources in zip((0, -1), (1, -1), wrapping):
        row = list(steps[cell])
        for source, off in sources:
            entry = row[source]
            if entry.__class__ is int:
                entry += sign * shift
            else:
                entry = tuple(
                    (delta + sign * shift * wraps, weight, role)
                    for (delta, weight, role), wraps in zip(entry, off)
                )
            row[source] = entry
        rows.append(tuple(row))
    return tuple(rows)


class _Evolution:
    """One-step evolution of a whole amplitude array, one matmul per tape symbol.

    data is the amplitude array in the order of layout, a ``_Layout``.  Each
    symbol's matrix multiplies the columns of its slice within reach cells
    of cell 0, into the same columns of products, and one gather moves the
    products to their target cells.  A run starts on cell 0 and a head moves
    at most one cell a step, so after t steps every cell further than t
    cells from cell 0 is exactly zero: a run starts at reach 0 and widens it
    by one a step, and ``step``, whose vector may hold amplitude anywhere,
    starts at the layout's widest reach, the whole tape.  The columns of
    products outside the reach are never written, so they stay zero, and
    the gather moves only zeros into the cells beyond the next step's
    reach.  inner is the number of leading rows a step reads: every row on
    the first step, which may start on a halting state, and after it only
    the running rows, because a measured step leaves nothing on the halting
    ones.  So the halting rows of data are never zeroed; they hold the last
    step's halting products.
    """

    def __init__(self, layout: _Layout, data: np.ndarray, reach: int = 0):
        self.layout = layout
        self.data = data
        self.inner = len(layout.rows)
        self.reach = reach
        self.products = np.zeros(data.shape, dtype=np.complex128)

    def apply(self) -> np.ndarray:
        """One step's products of the first inner rows of data, unmeasured, in a new array."""
        data = self.data[: self.inner]
        products = self.products
        for matrix, lo, cone in self.layout.groups:
            hi = lo + cone[self.reach]
            np.matmul(matrix[:, : self.inner], data[:, lo:hi], out=products[:, lo:hi])
        return products.reshape(-1)[self.layout.sources]

    def step(self, limit: int) -> tuple[float, float, float, int]:
        """One step of data and its measurement; returns the residual, accept and reject mass and 1."""
        data = self.data = self.apply()
        self.reach = min(self.reach + 1, self.layout.widest)
        running = self.inner = self.layout.running
        halting = running + self.layout.accepting
        return (
            _norm_squared(data[:running]),
            _norm_squared(data[running:halting]),
            _norm_squared(data[halting:]),
            1,
        )


class _Frontier:
    """The live configurations of one run, each on its own clock.

    live maps each live configuration to its nonzero amplitude by the key
    due * K + position * S + state, where S is states, K = L * S the number
    of keys on a tape of L cells, and table, from ``_flat_table``, holds the
    step entry of every key, one row a cell.  A relabel moves an amplitude
    to key + entry as it is, and no other key reaches its target, so
    configurations on relabel chains never meet: each walks its chain to
    the step `due` at which it sits on any other entry.  buckets lists the
    keys of each due step in the order they joined live, and dues holds
    those steps as a heap.  The next full step is the smallest due plus one;
    only the keys due then step (``advance``), and the steps before it
    repeat the last residual with no halting mass.  A full step appends the
    keys it reaches to live and to their buckets, so live keeps every other
    key where it was.  A frontier starts with its keys, all at step 0, due
    at step 0.

    residual is a running value: ``advance`` subtracts the squared moduli
    of the keys it takes and a full step adds those of the keys it keeps,
    so a step costs its due keys, not the live set.  It sums live exactly,
    in insertion order, whenever the running value falls below the halting
    threshold plus ``_RESUM_MARGIN`` (its floor), rises above 1 plus that
    margin (its ceiling), is not a number, or comes from a value above the
    ceiling, whose rounding the margin need not cover.  Below the ceiling
    the running value drifts from the exact sum by a few units of 1e-16 a
    full step, far less than the margin, so every halting decision and the
    residual of every halted run come from the exact sum.  None of this
    depends on the budget: a run cut at step b has the first b residuals
    of the whole run.

    The input rows of the table hold ``Mover`` entries, and counts holds
    the word's count of each input symbol.  A walk that meets a mover on
    the first input cell along its move, cell 1 for a right mover and L - 2
    for a left one, moves it to the opposite marker, L - 2 cells on, in the
    sum of its waits times those counts (its span, which spans keeps by key
    from the first walk that meets it on), if that many steps are left in
    the budget; anywhere else, or with fewer steps left, it takes its
    relabel.  ``advance`` adds a mover as the int it is.
    """

    __slots__ = ("table", "states", "size", "live", "buckets", "dues", "now",
                 "counts", "spans", "residual", "floor", "ceiling")

    def __init__(self, table: list, keys: list[int], amplitudes: list[complex], states: int,
                 counts: list[int] | None = None,
                 halt_threshold: float = DEFAULT_HALT_THRESHOLD):
        self.table = table
        self.states = states
        self.size = len(table) * states
        self.live = dict(zip(keys, amplitudes))
        self.buckets = {0: keys}
        self.dues = [0]
        self.now = 0
        self.counts = counts
        self.spans = {}
        self.residual = _mass(amplitudes)
        self.floor = halt_threshold + _RESUM_MARGIN
        self.ceiling = 1 + _RESUM_MARGIN

    def advance(self, due: int = 0) -> tuple[dict[int, complex], dict[int, complex], dict[int, complex]]:
        """The products of the keys due at step `due`, summed per target key, not yet measured.

        Takes the keys out of live and their bucket, and their mass off the
        running residual, and returns the running, accepting and rejecting
        sums, keyed at step due + 1, each in the order in which its keys were
        first reached.
        """
        table, n, size = self.table, self.states, self.size
        live = self.live
        base = due * size
        sums = running, _, _ = {}, {}, {}
        gone = 0.0
        for key in self.buckets.pop(due):
            amplitude = live.pop(key)
            gone += amplitude.real * amplitude.real + amplitude.imag * amplitude.imag
            cell, state = divmod(key - base, n)
            entry = table[cell][state]
            key += size
            if entry.__class__ is tuple:
                for delta, weight, role in entry:
                    target = sums[role]
                    k = key + delta
                    target[k] = target.get(k, 0j) + weight * amplitude
            else:
                running[key + entry] = amplitude
        self.residual -= gone
        return sums

    def step(self, limit: int) -> tuple[float, float, float, int]:
        """Up to `limit` steps, through the next full one: its three masses and the steps taken.

        With no key due sooner, it coasts all `limit` steps on the last residual.
        """
        table, n, size = self.table, self.states, self.size
        live, buckets, dues = self.live, self.buckets, self.dues
        end = self.now + limit
        due = dues[0]
        if due >= end:
            self.now = end
            return self.residual, 0.0, 0.0, limit
        heappop(dues)
        previous = self.residual
        running, accept, reject = self.advance(due)
        taken, self.now = due + 1 - self.now, due + 1
        counts, spans = self.counts, self.spans
        # the keys a mover crosses the L - 2 input cells by, which is also
        # the first key of cell L - 2
        crossing = size - 2 * n
        kept = 0.0
        for key, amplitude in running.items():
            if not amplitude:  # cancelled exactly: a zero entry, as in the array
                continue
            # each key reached walks on to its due, or to end
            t, key = divmod(key, size)
            while True:
                for t in range(t, end):
                    entry = table[key // n][key % n]
                    if entry.__class__ is not int:
                        break
                    key += entry
                else:
                    t = end
                    break
                if entry.__class__ is not Mover:
                    break
                # from the first input cell along its move, the whole word
                # within the budget, else one relabel; the mover on this key
                # has one span for the whole run
                move = entry.move
                if key < 2 * n if move > 0 else key >= crossing:
                    if (span := spans.get(key)) is None:
                        span = spans[key] = sum(map(mul, entry.waits, counts))
                    if span <= end - t:
                        key += move * crossing
                        t += span
                        continue
                key += entry
                t += 1
            key += t * size
            live[key] = amplitude
            kept += amplitude.real * amplitude.real + amplitude.imag * amplitude.imag
            if (bucket := buckets.get(t)) is None:
                buckets[t] = [key]
                heappush(dues, t)
            else:
                bucket.append(key)
        residual = self.residual = self.residual + kept
        # also when it is not a number, or came from a value above the
        # ceiling, whose rounding the margin need not cover
        if not (self.floor <= residual <= self.ceiling and previous <= self.ceiling):
            residual = self.residual = _mass(live.values())
        gain_accept = gain_reject = 0.0
        if accept:
            for amplitude in accept.values():
                gain_accept += amplitude.real * amplitude.real + amplitude.imag * amplitude.imag
        if reject:
            for amplitude in reject.values():
                gain_reject += amplitude.real * amplitude.real + amplitude.imag * amplitude.imag
        return residual, gain_accept, gain_reject, taken


def _mass(amplitudes) -> float:
    """The summed squared moduli of the complex numbers `amplitudes`, in their order."""
    total = 0.0
    for amplitude in amplitudes:
        # a Python float ** raises OverflowError where this gives inf
        total += amplitude.real * amplitude.real + amplitude.imag * amplitude.imag
    return total


def step(spec: TwoWayQfaSpec, word: str, vector: AmplitudeVector) -> AmplitudeVector:
    """Apply one evolution step of `spec` on the tape of `word`, on the engine of ``run``.

    The engine's index tables for the last word are kept, so a loop that
    steps one word builds them once.  A tape on which the vector would hold
    more than ``MAX_DENSE_CELLS`` amplitudes raises ValueError, as in
    ``initial_vector``.
    """
    n, length = vector.data.shape
    if (n, length) != (len(spec.states), len(word) + 2):
        raise ValueError("vector shape does not match the machine and word")
    _check_cells(spec, word)
    machine = _machine(spec)
    stepped, tables = machine.stepped
    if stepped != word:
        tables = (_flat_table(machine, word) if machine.sparse
                  else _Layout(machine, _tape_symbols(machine, word)))
        machine.stepped = (word, tables)
    if not machine.sparse:
        # every row and column is multiplied: a caller's vector may carry
        # halting amplitude, and amplitude anywhere on the tape
        products = _Evolution(tables, tables.sort(vector.data), tables.widest).apply()
        return AmplitudeVector(spec, length, tables.unsort(products))
    rows, cols, values = _nonzeros(vector.data)
    keys = [col * n + row for row, col in zip(rows, cols)]
    out = AmplitudeVector(spec, length)
    for sums in _Frontier(tables, keys, values, n).advance():
        for key, amplitude in sums.items():
            out.data[key % n, key // n - length] = amplitude
    return out


def _norm_squared(data: np.ndarray) -> float:
    return float(np.vdot(data, data).real)


def measure(
    spec: TwoWayQfaSpec, vector: AmplitudeVector
) -> tuple[float, float, AmplitudeVector]:
    """Project out the halting components of `vector`, a vector of `spec`.

    Returns the accept gain, the reject gain and the residual vector with
    halting amplitudes zeroed.  The residual is not renormalised.
    """
    role = _machine(spec).halt_role
    residual = AmplitudeVector(spec, vector.tape_length, vector.data.copy())
    residual.data[role != 0] = 0
    return _norm_squared(vector.data[role == 1]), _norm_squared(vector.data[role == 2]), residual


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
    is reported via halted=False, not raised.  max_steps must be an integer
    of at least 1, and anything else raises ValueError.  A residual that overflows to
    a non-finite value also ends the run with halted=False.

    Every step of a run takes the engine the machine's tables fixed, as
    ``step`` does: the frontier of live configurations when
    its matrices are more than half zeros, the whole-array matmul otherwise.
    The matmul's arrays hold states times tape cells amplitudes, and a run
    that would need more than ``MAX_DENSE_CELLS`` raises ValueError before
    it allocates any.
    """
    if max_steps is None:
        max_steps = MAX_STEPS_FACTOR * spec.n_paths * (len(word) + 2)
    try:
        max_steps = operator.index(max_steps)
    except TypeError:
        raise ValueError(f"max_steps must be an integer, not {max_steps!r}") from None
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if not 0 < halt_threshold < 1:
        raise ValueError("halt_threshold must lie strictly between 0 and 1")
    machine = _machine(spec)
    if machine.sparse:
        table = _flat_table(machine, word)
        # each input symbol is one letter, and counting letters in a str is
        # much faster than counting ints in a list
        counts = [word.count(letter) for letter in machine.symbol_index]
        # the initial configuration sits at position 0, so its key is its state
        initial = [spec.state_index(spec.initial_state)]
        engine = _Frontier(table, initial, [1 + 0j], machine.states, counts, halt_threshold)
    else:
        _check_cells(spec, word)
        layout = _Layout(machine, _tape_symbols(machine, word))
        engine = _Evolution(layout, layout.sort(initial_vector(spec, word).data))

    p_accept = 0.0
    p_reject = 0.0
    residual_mass = 1.0
    halted = False
    records: list[tuple[float, float, float]] = []

    steps = 0
    while steps < max_steps:
        if trace:
            coasted = (p_accept, p_reject, residual_mass)
        residual_mass, gain_accept, gain_reject, taken = engine.step(max_steps - steps)
        steps += taken
        p_accept += gain_accept
        p_reject += gain_reject
        if trace:
            # all but the last step taken coasted: the last residual, no halting mass
            records += [coasted] * (taken - 1)
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
