"""Discretized oracle for a line with uniformly distributed extraction.

n equal extractions at segment midpoints draw a fraction rho of one fixed
line's input current; the current between them is constant, so each piece's
loss is exact.  The total's ratio to one lumped segment's loss at the same
drop tends to ``correction_factor(rho)`` as O(1/n^2), checking the formula.
"""

from dataclasses import dataclass, fields
from functools import partial
from typing import Sequence

import numpy as np

from .estimator import correction_factor
from .ioutil import FLOAT_FORMAT, check_count, in_memory, write_csv

# The one line every sweep runs.  Impedance, length and input current cancel
# from the ratio only in exact arithmetic: oracle_sweep.csv pins the bits this
# complex impedance gives; a real-valued ratio moves 5 of its 9 deviation cells.
_ZETA, _LENGTH, _I_IN = 0.3 + 0.2j, 1.0, 1.0


@dataclass(frozen=True)
class SweepRow:
    rho: float
    oracle_ratio: float
    c_formula: float
    deviation: float


# a discretized line has a whole number of segments, at least one
check_segment_count = partial(check_count, "segment count")


def _row(rho: float, n: int) -> SweepRow:
    """rho's row: the loss of n midpoint extractions over drop times head current."""
    c = correction_factor(rho)
    check_segment_count(n)
    dx = _LENGTH / n
    di = rho * _I_IN / n

    # Current on the two halves of each of the n segments: the extraction
    # sits at the segment midpoint, so the first half still carries the
    # previous level.
    k = np.arange(n)
    i_pre = _I_IN - k * di
    i_post = _I_IN - (k + 1) * di

    half = 0.5 * dx
    loss_multi = _ZETA * half * (np.sum(i_pre**2) + np.sum(i_post**2))

    total_drop = _ZETA * half * (np.sum(i_pre) + np.sum(i_post))
    loss_single = total_drop * _I_IN

    ratio = float(abs(loss_multi) / abs(loss_single))
    return SweepRow(
        rho=float(rho),
        oracle_ratio=ratio,
        c_formula=c,
        deviation=abs(ratio - c),
    )


def sweep_rho(rhos: Sequence[float], n: int) -> list[SweepRow]:
    """The discretized loss ratio against the closed form at each rho; an n
    whose sweep does not fit in memory is a ValueError that names it."""
    with in_memory(f"an oracle sweep of {n} segments"):
        return [_row(rho, n) for rho in rhos]


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    """Write sweep rows as CSV with a fixed header and row order."""
    header = [f.name for f in fields(SweepRow)]
    cells = [[FLOAT_FORMAT % getattr(row, name) for name in header] for row in rows]
    write_csv(path, header, cells)
