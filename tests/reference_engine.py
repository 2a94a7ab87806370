"""The dense evolution engine the simulator first shipped with, kept as an oracle.

``DenseEvolution`` multiplies the whole state-by-position amplitude array by
every symbol matrix on every step and masks each product down to that
symbol's positions, then moves each target row with ``np.roll``.  It is slow
but has no bookkeeping to get wrong, so the frontier stepping and the
live-block engine in ``twoqfa.core`` are checked against it.
``dense_engine()`` swaps it into ``twoqfa.core`` so that ``step`` and every
step of ``run`` use it unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np

from twoqfa import core
from twoqfa.core import tape_for
from twoqfa.machine import TwoWayQfaSpec


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


@contextmanager
def dense_engine():
    """Run ``twoqfa.core`` on the dense reference engine inside the block.

    A negative product budget makes ``run`` hand its frontier over before
    the first step, so no step is taken on the frontier.
    """
    with mock.patch.object(core, "_Evolution", DenseEvolution), \
            mock.patch.object(core, "_FRONTIER_BUDGET", -1):
        yield
