"""The masked-matrix validator the package first shipped with, kept as an oracle.

``masked_validate`` evaluates all three local well-formedness conditions
from the direction-masked symbol matrices: one Gram per direction and
symbol for local probability, and the cross products of every ordered pair
of symbols for the two separability conditions.  ``twoqfa.machine.validate``
derives those fields from unitarity alone, so it is checked against this.
"""

from __future__ import annotations

import math

import numpy as np

from twoqfa.machine import TwoWayQfaSpec, WellFormednessReport

_DIRECTIONS = (-1, 0, 1)


def _masked(spec: TwoWayQfaSpec, symbol: str, direction: int) -> np.ndarray:
    """Matrix of amplitudes into states the head function moves by `direction`."""
    matrix = spec.symbol_unitaries[symbol]
    out = np.zeros_like(matrix)
    rows = [i for i, state in enumerate(spec.states) if spec.head_fn[state] == direction]
    out[rows, :] = matrix[rows, :]
    return out


def _worse(deviation: float, residual: np.ndarray) -> float:
    """The larger of `deviation` and the largest entry of |residual|, NaN as infinity."""
    worst = float(np.abs(residual).max())
    return max(deviation, math.inf if math.isnan(worst) else worst)


@np.errstate(over="ignore", invalid="ignore")
def masked_validate(spec: TwoWayQfaSpec, tolerance: float) -> WellFormednessReport:
    """Check per-symbol unitarity and the three local well-formedness conditions."""
    n = len(spec.states)
    identity = np.eye(n)

    unitarity_dev = 0.0
    for symbol in spec.tape_alphabet:
        matrix = spec.symbol_unitaries[symbol]
        unitarity_dev = _worse(unitarity_dev, matrix.conj().T @ matrix - identity)

    # condition (i): summing conj(delta(q1,s,q',d)) * delta(q2,s,q',d) over
    # all (q', d) must give the identity on (q1, q2) for every symbol
    local_dev = 0.0
    for symbol in spec.tape_alphabet:
        gram = np.zeros((n, n), dtype=np.complex128)
        for d in _DIRECTIONS:
            masked = _masked(spec, symbol, d)
            gram += masked.conj().T @ masked
        local_dev = _worse(local_dev, gram - identity)

    # conditions (ii) and (iii) quantify over ordered pairs of (state, symbol)
    sep1_dev = 0.0
    sep2_dev = 0.0
    fwd = {s: _masked(spec, s, 1) for s in spec.tape_alphabet}
    stay = {s: _masked(spec, s, 0) for s in spec.tape_alphabet}
    back = {s: _masked(spec, s, -1) for s in spec.tape_alphabet}
    for s1 in spec.tape_alphabet:
        for s2 in spec.tape_alphabet:
            cross1 = fwd[s1].conj().T @ stay[s2] + stay[s1].conj().T @ back[s2]
            cross2 = fwd[s1].conj().T @ back[s2]
            sep1_dev = _worse(sep1_dev, cross1)
            sep2_dev = _worse(sep2_dev, cross2)

    return WellFormednessReport(
        unitarity_ok=unitarity_dev < tolerance,
        unitarity_max_deviation=unitarity_dev,
        local_probability_ok=local_dev < tolerance,
        local_probability_max_deviation=local_dev,
        separability1_ok=sep1_dev < tolerance,
        separability1_max_deviation=sep1_dev,
        separability2_ok=sep2_dev < tolerance,
        separability2_max_deviation=sep2_dev,
        tolerance=tolerance,
        padded_entries=spec.padded_entries,
    )
