"""Closed-form outcomes of the bundled machines ``m2`` and ``m3``, kept as an oracle.

Both machines split into N branches of amplitude 1/sqrt(N) and recombine
them through the N-point Fourier matrix, whose row for the accepting state
is 1/sqrt(N) in every column.  Branch i of ``m2`` idles i steps per ``(``
and N - i + 1 per ``)``, so it reaches the Fourier column at a constant
plus i * (#``(`` - #``)``): equal counts bring all N branches in at once,
unequal counts at N distinct steps.  Each arrival adds the positive real
1/N to the accepting amplitude of its step, so the accept probability is
the sum over arrival steps of (branches arriving / N) squared.  ``m3`` does
this twice, pacing c against b and then a against b; its N x N pairs of
branches carry 1/N each and arrive at a constant plus
i * (z - y) + j * (x - y).  Words of the wrong shape never reach a split
and are rejected with certainty.  Both machines halt on every word, so
p_reject is 1 - p_accept.
"""

from __future__ import annotations

import re
from collections import Counter

_M2_SHAPE = re.compile(r"(\(+\)+)+")
_M3_SHAPE = re.compile(r"(a+)(b+)(c+)")


def m2_accept(word: str, n_paths: int) -> float:
    """Accept probability of ``build_m2(n_paths)`` on `word`."""
    if not _M2_SHAPE.fullmatch(word):
        return 0.0
    return 1.0 if word.count("(") == word.count(")") else 1.0 / n_paths


def m3_accept(word: str, n_paths: int) -> float:
    """Accept probability of ``build_m3(n_paths)`` on `word`."""
    shape = _M3_SHAPE.fullmatch(word)
    if not shape:
        return 0.0
    x, y, z = (len(block) for block in shape.groups())
    paths = range(1, n_paths + 1)
    arrivals = Counter(i * (z - y) + j * (x - y) for i in paths for j in paths)
    return sum(count * count for count in arrivals.values()) / n_paths**4


def m2_steps(opens: int, closes: int, n_paths: int) -> int:
    """Steps after which ``build_m2(n_paths)`` halts on ``(`` * opens + ``)`` * closes.

    Measured, not derived: it held on every one-block word with both counts
    from 1 to 8, for N in {2, 3, 5, 7, 10, 50, 100}.
    """
    return 8 + 3 * min(opens, closes) + (n_paths + 2) * max(opens, closes)


def m3_steps(k: int, n_paths: int) -> int:
    """Steps after which ``build_m3(n_paths)`` halts on the member aᵏbᵏcᵏ.

    Measured, not derived: it held for N in {2, 5, 50, 100} and k from 1 to 7.
    """
    return 9 + (2 * n_paths + 11) * k
