"""The dense evolution engine the simulator first shipped with, kept as an oracle.

``DenseEvolution`` multiplies the whole state-by-position amplitude array by
every symbol matrix on every step and masks each product down to that
symbol's positions, then moves each target row with ``np.roll``.  It is slow
but has no bookkeeping to get wrong, so both engines in ``twoqfa.core``,
the frontier stepping and the per-symbol matmul, are checked against it.
``reference_run`` is ``run`` rebuilt on it: its own initial array, halting
masks read from the state names and the same step budget and stopping
rules, so no code of ``run`` or of its engine tables is shared.
``reference_step`` is ``step`` on it, with nothing of ``twoqfa.core``
between the amplitude array and the product.
"""

from __future__ import annotations

import math

import numpy as np

from twoqfa.core import (
    DEFAULT_HALT_THRESHOLD,
    MAX_STEPS_FACTOR,
    AmplitudeVector,
    RunResult,
)
from twoqfa.machine import LEFT_MARKER, RIGHT_MARKER, TwoWayQfaSpec


def tape_for(word: str) -> str:
    """The marked tape ``#w$`` of `word`."""
    return LEFT_MARKER + word + RIGHT_MARKER


class DenseEvolution:
    """One-step evolution operator for a fixed machine and word."""

    def __init__(self, spec: TwoWayQfaSpec, word: str):
        tape = tape_for(word)
        length = len(tape)
        self.blocks = []
        for symbol in spec.tape_alphabet:
            mask = np.fromiter((1.0 if t == symbol else 0.0 for t in tape), dtype=float)
            if mask.any():
                self.blocks.append((spec.symbol_unitaries[symbol], mask[np.newaxis, :]))
        moves = np.array([spec.head_fn[s] for s in spec.states])
        self.stay = (moves == 0)[:, np.newaxis]
        self.fwd = (moves == 1)[:, np.newaxis]
        self.back = (moves == -1)[:, np.newaxis]

    def apply(self, data: np.ndarray) -> np.ndarray:
        mixed = np.zeros_like(data)
        for matrix, mask in self.blocks:
            mixed += (matrix @ data) * mask
        out = np.where(self.stay, mixed, 0)
        # a roll by +1 sends column j to column j+1 mod tape length
        out += np.roll(np.where(self.fwd, mixed, 0), 1, axis=1)
        out += np.roll(np.where(self.back, mixed, 0), -1, axis=1)
        return out


def reference_run(spec: TwoWayQfaSpec, word: str, max_steps=None,
                  halt_threshold=DEFAULT_HALT_THRESHOLD, trace=False) -> RunResult:
    """``twoqfa.core.run`` with every step on the dense engine."""
    if max_steps is None:
        max_steps = MAX_STEPS_FACTOR * spec.n_paths * (len(word) + 2)
    evolution = DenseEvolution(spec, word)
    data = np.zeros((len(spec.states), len(word) + 2), dtype=np.complex128)
    data[spec.states.index(spec.initial_state), 0] = 1.0
    accept = np.array([s in spec.accept_states for s in spec.states])
    reject = np.array([s in spec.reject_states for s in spec.states])
    p_accept = p_reject = 0.0
    residual = 1.0
    steps = 0
    halted = False
    records = []
    while steps < max_steps:
        data = evolution.apply(data)
        steps += 1
        p_accept += float(np.vdot(data[accept], data[accept]).real)
        p_reject += float(np.vdot(data[reject], data[reject]).real)
        data[accept | reject] = 0
        residual = float(np.vdot(data, data).real)
        records.append((p_accept, p_reject, residual))
        if residual < halt_threshold:
            halted = True
            break
        if not math.isfinite(residual):
            break
    return RunResult(p_accept, p_reject, residual, steps, halted,
                     tuple(records) if trace else None)


def reference_step(spec: TwoWayQfaSpec, word: str, vector: AmplitudeVector) -> AmplitudeVector:
    """``twoqfa.core.step`` on the dense engine: one unmeasured step of `vector`."""
    data = DenseEvolution(spec, word).apply(vector.data)
    return AmplitudeVector(spec, vector.tape_length, data)
