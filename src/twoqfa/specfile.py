"""Line-oriented text format for machine definitions.

Layout (whitespace-separated tokens, one directive per line):

    twoqfa-machine 1
    name m2                      optional
    paths 5
    states q0 q1 ...
    initial q0
    accept p_5
    reject q_r p_1 ...
    alphabet ( )
    head q0 +1                   one line per state
    padded $ q1                  zero or more lines
    matrix #
    row q0 q0 1.0 0.0            source target real imag, nonzero entries only
    ...
    matrix (                     matrices in tape order: #, inputs, $
    ...
    end

Floats are serialised with repr, so a save/load cycle reproduces the
machine bit for bit.  State names and symbols must be whitespace-free.
"""

from __future__ import annotations

from .errors import SpecFormatError
from .machine import Columns, TwoWayQfaSpec

_HEADER = "twoqfa-machine 1"

#: directives a file may hold at most once
_ONCE = frozenset({"name", "paths", "states", "initial", "accept", "reject", "alphabet"})


def _check_token(token: str, kind: str) -> str:
    if not token or any(ch.isspace() for ch in token):
        raise SpecFormatError(f"{kind} {token!r} cannot be written to the text format")
    return token


def dumps_spec(spec: TwoWayQfaSpec) -> str:
    lines = [_HEADER]
    if spec.name:
        lines.append(f"name {_check_token(spec.name, 'name')}")
    lines.append(f"paths {spec.n_paths}")
    lines.append("states " + " ".join(_check_token(s, "state") for s in spec.states))
    lines.append(f"initial {spec.initial_state}")
    lines.append("accept " + " ".join(s for s in spec.states if s in spec.accept_states))
    lines.append("reject " + " ".join(s for s in spec.states if s in spec.reject_states))
    lines.append(
        "alphabet " + " ".join(_check_token(s, "symbol") for s in spec.input_alphabet)
    )
    for state in spec.states:
        move = spec.head_fn[state]
        lines.append(f"head {state} {'+1' if move == 1 else str(move)}")
    for symbol, state in spec.padded_entries:
        lines.append(f"padded {symbol} {state}")
    states = spec.states
    for symbol, matrix in spec._columns.items():
        lines.append(f"matrix {symbol}")
        for source, target, value in zip(
            matrix.owners().tolist(), matrix.indices.tolist(), matrix.values.tolist()
        ):
            lines.append(f"row {states[source]} {states[target]} {value.real!r} {value.imag!r}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def save_spec(spec: TwoWayQfaSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_spec(spec))


def loads_spec(text: str) -> TwoWayQfaSpec:
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines or lines[0] != _HEADER:
        raise SpecFormatError("missing twoqfa-machine header")
    if lines[-1] != "end":
        raise SpecFormatError("missing end line")

    name = ""
    n_paths = 1
    states: tuple[str, ...] | None = None
    initial: str | None = None
    accept: frozenset[str] = frozenset()
    reject: frozenset[str] = frozenset()
    alphabet: tuple[str, ...] | None = None
    head_fn: dict[str, int] = {}
    padded: list[tuple[str, str]] = []
    matrices: dict[str, Columns] = {}
    section: str | None = None  # the symbol of the open matrix section
    rows: dict[int, complex] = {}  # its rows, source * S + target: value
    index: dict[str, int] = {}
    seen: set[str] = set()  # the once-only directives met so far

    for line in lines[1:-1]:
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if directive in _ONCE:
            if directive in seen:
                raise SpecFormatError(f"{directive} line appears twice")
            seen.add(directive)
        if directive == "name":
            name = _one(args, "name")
        elif directive == "paths":
            n_paths = _number(int, _one(args, "paths"), line)
        elif directive == "states":
            states = tuple(args)
            index = {s: i for i, s in enumerate(states)}
        elif directive == "initial":
            initial = _one(args, "initial")
        elif directive == "accept":
            accept = frozenset(args)
        elif directive == "reject":
            reject = frozenset(args)
        elif directive == "alphabet":
            alphabet = tuple(args)
        elif directive == "head":
            if len(args) != 2 or args[1] not in ("-1", "0", "+1", "1"):
                raise SpecFormatError(f"bad head line: {line!r}")
            if args[0] in head_fn:
                raise SpecFormatError(f"head line for {args[0]!r} appears twice")
            head_fn[args[0]] = int(args[1])
        elif directive == "padded":
            if len(args) != 2:
                raise SpecFormatError(f"bad padded line: {line!r}")
            padded.append((args[0], args[1]))
        elif directive == "matrix":
            if states is None:
                raise SpecFormatError("matrix section before states")
            if section is not None:
                matrices[section] = _columns(len(states), rows)
            section = _one(args, "matrix")
            if section in matrices:
                raise SpecFormatError(f"matrix for {section!r} appears twice")
            rows = {}
        elif directive == "row":
            if section is None:
                raise SpecFormatError("row line outside a matrix section")
            if len(args) != 4:
                raise SpecFormatError(f"bad row line: {line!r}")
            source, target, real, imag = args
            if source not in index or target not in index:
                raise SpecFormatError(f"row references unknown state: {line!r}")
            cell = index[source] * len(states) + index[target]
            if cell in rows:
                raise SpecFormatError(f"row line appears twice: {line!r}")
            rows[cell] = complex(_number(float, real, line), _number(float, imag, line))
        else:
            raise SpecFormatError(f"unknown directive {directive!r}")

    if states is None or initial is None or alphabet is None:
        raise SpecFormatError("states, initial and alphabet lines are required")
    if section is not None:
        matrices[section] = _columns(len(states), rows)
    try:
        return TwoWayQfaSpec(
            states=states,
            input_alphabet=alphabet,
            initial_state=initial,
            accept_states=accept,
            reject_states=reject,
            symbol_unitaries=matrices,
            head_fn=head_fn,
            name=name,
            n_paths=n_paths,
            padded_entries=tuple(padded),
        )
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc


def load_spec(path: str) -> TwoWayQfaSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_spec(handle.read())


def _columns(n: int, rows: dict[int, complex]) -> Columns:
    """One matrix section's rows as columns; each section is built when it closes."""
    return Columns.from_entries(n, list(rows), list(rows.values()))


def _number(convert, token: str, line: str):
    try:
        return convert(token)
    except ValueError:
        raise SpecFormatError(f"bad number {token!r} in line {line!r}") from None


def _one(args: list[str], directive: str) -> str:
    if len(args) != 1:
        raise SpecFormatError(f"{directive} takes exactly one value")
    return args[0]
