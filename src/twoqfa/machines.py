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

Every N-path stage, the one of m2 and both of m3, is written once:
``_paced_paths`` gives its counter states and pacing rows, ``_split`` its
1/sqrt(N) split and ``_recombine`` its Fourier recombination.
"""

from __future__ import annotations

import numpy as np

from .machine import PartialTable, TwoWayQfaSpec, complete_partial_table

Row = tuple[str, str, str, complex]

#: largest n_paths that build_m2 and build_m3 accept.  At N = 100, the
#: largest N the acceptance tests run, m3 (15,508 states) builds in 0.5 s
#: at 79 MB peak RSS and m2 (8,055 states) in 0.6 s at 54 MB, on a 2-core
#: container; m2 at N = 200 takes 124 MB, and m3 at N = 200 (about 60,000
#: states) no longer fits the int32 keys of table completion.
MAX_N_PATHS = 100
#: largest N that qft_matrix accepts.  N = 1,000 takes 0.06 s at 60 MB peak
#: RSS, N = 4,000 1 s at 518 MB: the matrix and its phases grow as N^2.
MAX_QFT_N = 1000


def qft_matrix(n_paths: int) -> np.ndarray:
    """N x N matrix with entry (k, i) = exp(2*pi*1j*k*i/N) / sqrt(N), 1-indexed.

    N runs from 1 to ``MAX_QFT_N``; any other N raises ValueError.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if n_paths > MAX_QFT_N:
        raise ValueError(f"n_paths must be at most {MAX_QFT_N}")
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


def _named(template: str, n_paths: int) -> list[str]:
    """`template` formatted with each of 1 .. n_paths."""
    return [template.format(i) for i in range(1, n_paths + 1)]


def _paced_paths(
    prefix: str, n_paths: int, first: str, second: str, move: int
) -> tuple[tuple[str, ...], dict[str, int], list[Row]]:
    """The counter states, head moves and pacing rows of one N-path stage.

    Path i owns the states prefix_i_0 .. prefix_i_J, J = max(i, N - i + 1).
    Its head moves by `move` only in prefix_i_0; reading `first` there it
    idles i steps, reading `second` N - i + 1 steps, counting down to 0.
    """
    states: list[str] = []
    head_fn: dict[str, int] = {}
    rows: list[Row] = []
    for i in range(1, n_paths + 1):
        for letter, count in ((first, i), (second, n_paths - i + 1)):
            rows.append((f"{prefix}_{i}_0", letter, f"{prefix}_{i}_{count}", 1))
            rows += [
                (f"{prefix}_{i}_{j}", letter, f"{prefix}_{i}_{j - 1}", 1)
                for j in range(1, count + 1)
            ]
        for j in range(max(i, n_paths - i + 1) + 1):
            states.append(f"{prefix}_{i}_{j}")
            head_fn[states[-1]] = move if j == 0 else 0
    return tuple(states), head_fn, rows


def _split(source: str, symbol: str, targets: list[str]) -> list[Row]:
    """Rows sending `source` on `symbol` to each of the N targets with amplitude 1/sqrt(N)."""
    amplitude = 1 / np.sqrt(len(targets))
    return [(source, symbol, target, amplitude) for target in targets]


def _recombine(sources: list[str], symbol: str, targets: list[str]) -> list[Row]:
    """Rows sending path i's state on `symbol` to the targets by column i of the Fourier matrix."""
    fourier = qft_matrix(len(sources))
    return [
        (source, symbol, target, complex(fourier[k, i]))
        for i, source in enumerate(sources)
        for k, target in enumerate(targets)
    ]


def _check_paths(n_paths: int) -> None:
    """Raise ValueError unless 2 <= n_paths <= ``MAX_N_PATHS``, before anything is built."""
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    if n_paths > MAX_N_PATHS:
        raise ValueError(f"n_paths must be at most {MAX_N_PATHS}")


def build_m2(n_paths: int) -> TwoWayQfaSpec:
    """Parenthesis-count machine with n_paths interfering branches.

    Branch i idles i steps per '(' and n_paths - i + 1 steps per ')', so all
    branches reach the right marker together exactly when the counts agree.
    The split fires on the left marker after the shape scan wraps the
    circular tape; words ending in '(' never wrap and reject outright.
    n_paths runs from 2 to ``MAX_N_PATHS``.
    """
    _check_paths(n_paths)
    n = n_paths
    paths, head_fn, rows = _paced_paths("q", n, "(", ")", 1)
    starts, p, s, w, r = (_named(t, n) for t in ("q_{}_0", "p_{}", "s_{}_0", "w_{}_0", "r_{}_0"))
    states = ("q0", "q1", "q2", "q3", *paths, *p, *s, *w, *r, "q_r")
    head_fn |= {"q0": 1, "q1": -1, "q2": 1, "q3": -1, "q_r": 0}
    head_fn |= {**dict.fromkeys(p + r, 0), **dict.fromkeys(s, -1), **dict.fromkeys(w, 1)}
    rows += [
        ("q0", "#", "q0", 1), ("q1", "#", "q_r", 1),
        ("q0", "(", "q0", 1), ("q1", "(", "q2", 1), ("q2", "(", "q3", 1),
        ("q0", ")", "q1", 1), ("q2", ")", "q2", 1), ("q3", ")", "q0", 1),
        # wrap the shape scan past $ so the split on # becomes reachable, and
        # reject words whose final block is '('
        ("q2", "$", "q2", 1), ("q0", "$", "q_r", 1),
    ]
    rows += _split("q2", "#", starts)
    # a path reaching $ steps back onto the last letter: on ')' it returns
    # to $ and recombines, on '(' it rejects
    for start, back, ready, stray in zip(starts, s, w, r):
        rows += [(start, "$", back, 1), (back, ")", ready, 1), (back, "(", stray, 1)]
    rows += _recombine(w, "$", p)
    table = PartialTable(
        states=states,
        input_alphabet=("(", ")"),
        initial_state="q0",
        accept_states=frozenset(p[-1:]),
        reject_states=frozenset(["q_r", *p[:-1], *r]),
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
    the single accepting state.  n_paths runs from 2 to ``MAX_N_PATHS``.
    """
    _check_paths(n_paths)
    n = n_paths
    g, g_heads, g_rows = _paced_paths("g", n, "c", "b", -1)
    m, m_heads, m_rows = _paced_paths("m", n, "a", "b", 1)
    g_starts, h, m_starts, p = (_named(t, n) for t in ("g_{}_0", "h_{}", "m_{}_0", "p_{}"))
    states = ("f0", "f1", "f1x", "f2", "f2x", "f3", "r_1", "r_2", *g, *h, *m, *p)
    head_fn = {"f0": 1, "f1": 1, "f1x": -1, "f2": 1, "f2x": -1, "f3": 1, "r_1": 0, "r_2": 0}
    head_fn |= {**g_heads, **m_heads, **dict.fromkeys(h + p, 0)}
    rows: list[Row] = [
        ("f0", "#", "f1", 1), ("f1x", "#", "r_1", 1),
        ("f1", "a", "f1", 1), ("f1x", "a", "f2", 1), ("f2", "a", "r_1", 1),
        ("f3", "a", "r_2", 1),
        ("f1", "b", "f1x", 1), ("f2", "b", "f2", 1), ("f2x", "b", "f3", 1),
        ("f3", "b", "r_1", 1),
        ("f1", "c", "r_1", 1), ("f2", "c", "f2x", 1), ("f3", "c", "f3", 1),
        ("f1", "$", "r_1", 1), ("f2", "$", "r_2", 1),
    ]
    # stage two: split at the right marker, the paths walk leftward over
    # the a's without pacing and recombine on the left marker
    rows += _split("f3", "$", g_starts) + g_rows + [(q, "a", q, 1) for q in g_starts]
    rows += _recombine(g_starts, "#", h)
    # stage three: split at the left marker, rightward over the c's to $
    rows += _split(h[-1], "#", m_starts) + m_rows + [(q, "c", q, 1) for q in m_starts]
    rows += _recombine(m_starts, "$", p)
    table = PartialTable(
        states=states,
        input_alphabet=("a", "b", "c"),
        initial_state="f0",
        accept_states=frozenset(p[-1:]),
        reject_states=frozenset(["r_1", "r_2", *h[:-1], *p[:-1]]),
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
    """Build a bundled machine by name; m2 and m3 require n_paths, 2 to ``MAX_N_PATHS``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown machine {name!r}")
    if name == "m1":
        if n_paths is not None:
            raise ValueError("m1 does not take n_paths")
        return build_m1()
    if n_paths is None:
        raise ValueError(f"{name} requires n_paths")
    return _BUILDERS[name](n_paths)
