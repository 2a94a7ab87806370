"""The three bundled machines and the path-mixing Fourier matrix.

m1 is a 12-state deterministic reversible scanner over {a, b}: it walks the
word in alternating letter blocks with confirm states and halts on every
input with probability 0 or 1.

m2 recognises balanced parenthesis counts with one accepting state.  After
a deterministic shape scan the computation wraps past the right marker,
splits into n_paths branches of amplitude 1/sqrt(N) whose per-cell pacing
differs per branch, and recombines through an N-way Fourier transform: the
branches arrive at the final marker simultaneously exactly when the counts
match, concentrating all mass on the accepting state.

m3 recognises words with equal a, b and c counts (in that block order) by
two comparison stages in sequence, each an N-path split with pacing plus a
Fourier recombination: first c against b scanning leftward, then a against
b scanning rightward.  Unequal counts stagger the arrivals, spreading mass
over rejecting states so at most 1/N survives each stage.
"""

from __future__ import annotations

import numpy as np

from .machine import (
    LEFT_MARKER,
    RIGHT_MARKER,
    PartialTable,
    TwoWayQfaSpec,
    complete_partial_table,
)

Row = tuple[str, str, str, complex]


def qft_matrix(n_paths: int) -> np.ndarray:
    """N x N matrix with entry (k, i) = exp(2*pi*1j*k*i/N) / sqrt(N), 1-indexed."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    k = np.arange(1, n_paths + 1)
    phases = np.exp(2j * np.pi * np.outer(k, k) / n_paths)
    return phases / np.sqrt(n_paths)


def build_m1() -> TwoWayQfaSpec:
    """Two-way reversible scanner over {a, b} with four halting states.

    The table is a permutation per symbol.  Three rows beyond the scanning
    core close off end-of-tape walks ((q7, #), (q6, $)) and the left-walk
    landing on a b ((q1, b)); without them some inputs would never halt.
    """
    states = (
        "q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7",
        "q_a1", "q_a2", "q_r1", "q_r2",
    )
    head_fn = {
        "q0": 1, "q1": -1, "q2": 1, "q3": -1,
        "q4": 1, "q5": -1, "q6": 1, "q7": -1,
        "q_a1": 0, "q_a2": 0, "q_r1": 0, "q_r2": 0,
    }
    rows: list[Row] = [
        ("q0", "#", "q0", 1), ("q1", "#", "q2", 1), ("q5", "#", "q_r1", 1),
        ("q7", "#", "q_r2", 1),
        ("q0", "a", "q0", 1), ("q1", "a", "q2", 1), ("q2", "a", "q3", 1),
        ("q3", "a", "q1", 1), ("q4", "a", "q4", 1), ("q5", "a", "q6", 1),
        ("q6", "a", "q_a2", 1), ("q7", "a", "q7", 1),
        ("q0", "b", "q1", 1), ("q1", "b", "q_r1", 1), ("q2", "b", "q2", 1),
        ("q3", "b", "q4", 1), ("q4", "b", "q3", 1), ("q5", "b", "q5", 1),
        ("q6", "b", "q6", 1),
        ("q0", "$", "q7", 1), ("q2", "$", "q5", 1), ("q4", "$", "q_a1", 1),
        ("q6", "$", "q_r1", 1), ("q7", "$", "q_r2", 1),
    ]
    table = PartialTable(
        states=states,
        input_alphabet=("a", "b"),
        initial_state="q0",
        accept_states=frozenset({"q_a1", "q_a2"}),
        reject_states=frozenset({"q_r1", "q_r2"}),
        head_fn=head_fn,
        rows=rows,
        name="m1",
        n_paths=1,
    )
    return complete_partial_table(table)


def _counter_span(i: int, n_paths: int) -> int:
    # largest idle count a branch needs on either letter
    return max(i, n_paths - i + 1)


def build_m2(n_paths: int) -> TwoWayQfaSpec:
    """Parenthesis-count machine with n_paths interfering branches.

    Branch i idles i steps per '(' and n_paths - i + 1 steps per ')', so all
    branches reach the right marker together exactly when the counts agree.
    The split fires on the left marker after the shape scan wraps the
    circular tape; words ending in '(' never wrap and reject outright.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    n = n_paths
    qij = [(i, j) for i in range(1, n + 1) for j in range(_counter_span(i, n) + 1)]
    states = (
        ("q0", "q1", "q2", "q3")
        + tuple(f"q_{i}_{j}" for i, j in qij)
        + tuple(f"p_{k}" for k in range(1, n + 1))
        + tuple(f"s_{i}_0" for i in range(1, n + 1))
        + tuple(f"w_{i}_0" for i in range(1, n + 1))
        + tuple(f"r_{i}_0" for i in range(1, n + 1))
        + ("q_r",)
    )
    head_fn = {"q0": 1, "q1": -1, "q2": 1, "q3": -1, "q_r": 0}
    for i, j in qij:
        head_fn[f"q_{i}_{j}"] = 1 if j == 0 else 0
    for k in range(1, n + 1):
        head_fn[f"p_{k}"] = 0
    for i in range(1, n + 1):
        head_fn[f"s_{i}_0"] = -1
        head_fn[f"w_{i}_0"] = 1
        head_fn[f"r_{i}_0"] = 0

    split = 1 / np.sqrt(n)
    fourier = qft_matrix(n)
    rows: list[Row] = [
        ("q0", "#", "q0", 1), ("q1", "#", "q_r", 1),
        ("q0", "(", "q0", 1), ("q1", "(", "q2", 1), ("q2", "(", "q3", 1),
        ("q0", ")", "q1", 1), ("q2", ")", "q2", 1), ("q3", ")", "q0", 1),
    ]
    # the N-way split on the left marker
    rows += [("q2", "#", f"q_{i}_0", split) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        rows.append((f"q_{i}_0", "(", f"q_{i}_{i}", 1))
        rows += [(f"q_{i}_{j}", "(", f"q_{i}_{j - 1}", 1) for j in range(1, i + 1)]
        rows.append((f"q_{i}_0", ")", f"q_{i}_{n - i + 1}", 1))
        rows += [(f"q_{i}_{j}", ")", f"q_{i}_{j - 1}", 1) for j in range(1, n - i + 2)]
        rows.append((f"q_{i}_0", "$", f"s_{i}_0", 1))
        rows.append((f"s_{i}_0", ")", f"w_{i}_0", 1))
        rows.append((f"s_{i}_0", "(", f"r_{i}_0", 1))
        # branch recombination through the Fourier matrix
        rows += [
            (f"w_{i}_0", "$", f"p_{k}", complex(fourier[k - 1, i - 1]))
            for k in range(1, n + 1)
        ]
    # wrap the shape scan past $ so the split on # becomes reachable, and
    # reject words whose final block is '('
    rows.append(("q2", "$", "q2", 1))
    rows.append(("q0", "$", "q_r", 1))

    reject = {"q_r"} | {f"p_{k}" for k in range(1, n)} | {f"r_{i}_0" for i in range(1, n + 1)}
    table = PartialTable(
        states=states,
        input_alphabet=("(", ")"),
        initial_state="q0",
        accept_states=frozenset({f"p_{n}"}),
        reject_states=frozenset(reject),
        head_fn=head_fn,
        rows=rows,
        name="m2",
        n_paths=n,
    )
    return complete_partial_table(table)


def build_m3(n_paths: int) -> TwoWayQfaSpec:
    """Equal-count machine for words of shape a..ab..bc..c.

    Stage one walks the word once left to right, rejecting with certainty
    anything not matching a+b+c+ (confirm states f1x/f2x keep the scan
    reversible).  Stage two splits at the right marker into n_paths branches
    that travel back to the left marker, idling i steps per c and
    n_paths - i + 1 per b; the Fourier recombination on # sends all mass to
    h_N when the b and c counts agree and spreads it over rejecting h_k
    otherwise.  Stage three repeats the scheme rightward from #, pacing a
    against b, and recombines on $ into the p_k block whose top state is
    the single accepting state.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    n = n_paths
    ij = [(i, j) for i in range(1, n + 1) for j in range(_counter_span(i, n) + 1)]
    states = (
        ("f0", "f1", "f1x", "f2", "f2x", "f3", "r_1", "r_2")
        + tuple(f"g_{i}_{j}" for i, j in ij)
        + tuple(f"h_{k}" for k in range(1, n + 1))
        + tuple(f"m_{i}_{j}" for i, j in ij)
        + tuple(f"p_{k}" for k in range(1, n + 1))
    )
    head_fn = {"f0": 1, "f1": 1, "f1x": -1, "f2": 1, "f2x": -1, "f3": 1, "r_1": 0, "r_2": 0}
    for i, j in ij:
        head_fn[f"g_{i}_{j}"] = -1 if j == 0 else 0
        head_fn[f"m_{i}_{j}"] = 1 if j == 0 else 0
    for k in range(1, n + 1):
        head_fn[f"h_{k}"] = 0
        head_fn[f"p_{k}"] = 0

    split = 1 / np.sqrt(n)
    fourier = qft_matrix(n)
    rows: list[Row] = [
        ("f0", "#", "f1", 1), ("f1x", "#", "r_1", 1),
        ("f1", "a", "f1", 1), ("f1x", "a", "f2", 1), ("f2", "a", "r_1", 1),
        ("f3", "a", "r_2", 1),
        ("f1", "b", "f1x", 1), ("f2", "b", "f2", 1), ("f2x", "b", "f3", 1),
        ("f3", "b", "r_1", 1),
        ("f1", "c", "r_1", 1), ("f2", "c", "f2x", 1), ("f3", "c", "f3", 1),
        ("f1", "$", "r_1", 1), ("f2", "$", "r_2", 1),
    ]
    # stage-two split at the right marker, branches walk leftward
    rows += [("f3", "$", f"g_{i}_0", split) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        rows.append((f"g_{i}_0", "c", f"g_{i}_{i}", 1))
        rows += [(f"g_{i}_{j}", "c", f"g_{i}_{j - 1}", 1) for j in range(1, i + 1)]
        rows.append((f"g_{i}_0", "b", f"g_{i}_{n - i + 1}", 1))
        rows += [(f"g_{i}_{j}", "b", f"g_{i}_{j - 1}", 1) for j in range(1, n - i + 2)]
        rows.append((f"g_{i}_0", "a", f"g_{i}_0", 1))
        rows += [
            (f"g_{i}_0", "#", f"h_{k}", complex(fourier[k - 1, i - 1]))
            for k in range(1, n + 1)
        ]
    # stage-three split at the left marker, branches walk rightward
    rows += [(f"h_{n}", "#", f"m_{i}_0", split) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        rows.append((f"m_{i}_0", "a", f"m_{i}_{i}", 1))
        rows += [(f"m_{i}_{j}", "a", f"m_{i}_{j - 1}", 1) for j in range(1, i + 1)]
        rows.append((f"m_{i}_0", "b", f"m_{i}_{n - i + 1}", 1))
        rows += [(f"m_{i}_{j}", "b", f"m_{i}_{j - 1}", 1) for j in range(1, n - i + 2)]
        rows.append((f"m_{i}_0", "c", f"m_{i}_0", 1))
        rows += [
            (f"m_{i}_0", "$", f"p_{k}", complex(fourier[k - 1, i - 1]))
            for k in range(1, n + 1)
        ]

    reject = (
        {"r_1", "r_2"}
        | {f"h_{k}" for k in range(1, n)}
        | {f"p_{k}" for k in range(1, n)}
    )
    table = PartialTable(
        states=states,
        input_alphabet=("a", "b", "c"),
        initial_state="f0",
        accept_states=frozenset({f"p_{n}"}),
        reject_states=frozenset(reject),
        head_fn=head_fn,
        rows=rows,
        name="m3",
        n_paths=n,
    )
    return complete_partial_table(table)


_BUILDERS = {"m1": build_m1, "m2": build_m2, "m3": build_m3}

#: names `build` accepts
BUILT_IN = tuple(_BUILDERS)


def build(name: str, n_paths: int | None = None) -> TwoWayQfaSpec:
    """Build a bundled machine by name; m2 and m3 require n_paths."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown machine {name!r}")
    if name == "m1":
        if n_paths is not None:
            raise ValueError("m1 does not take n_paths")
        return build_m1()
    if n_paths is None:
        raise ValueError(f"{name} requires n_paths")
    return _BUILDERS[name](n_paths)
