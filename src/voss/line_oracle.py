"""Discretized oracle for a line with uniformly distributed extraction.

Models a line of length ``l`` with uniform series impedance ``zeta`` per
unit length and current drawn off uniformly along its run, as n equal
lumped extractions placed at segment midpoints.  Between extractions the
current is constant, so the per-segment ``i^2 * zeta * dx`` loss is exact
and the discretization error of the total comes only from where the
extraction points sit (midpoint placement converges as O(1/n^2)).

The headline output is the ratio of the true distributed-extraction loss
to the loss a single lumped segment with the same endpoint drop would
show.  That ratio converges to ``correction_factor(rho)`` as n grows,
which is what makes this module an independent check of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .estimator import check_rho, correction_factor
from .ioutil import format_float, write_csv


@dataclass(frozen=True)
class UniformLineModel:
    """A uniform line carrying a real input current.

    length: line length (any unit; cancels in the loss ratio).
    zeta: series impedance per unit length, complex ohms.
    i_in: input current magnitude at the head, amperes, > 0.
    rho: fraction of the input current extracted along the line, in [0, 1].

    The sampled profile starts from a real head voltage of
    4 * |zeta| * length * i_in, so it stays far from zero and its magnitude
    decreases along the line for impedances with positive real part.
    """

    length: float
    zeta: complex
    i_in: float
    rho: float

    def __post_init__(self) -> None:
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise ValueError(f"length must be finite and > 0, got {self.length}")
        if not (self.i_in > 0.0 and math.isfinite(self.i_in)):
            raise ValueError(f"i_in must be finite and > 0, got {self.i_in}")
        check_rho(self.rho)
        if self.zeta == 0:
            raise ValueError("zeta must be nonzero")

    def head_voltage(self) -> complex:
        return complex(4.0 * abs(self.zeta) * self.length * self.i_in)


@dataclass(frozen=True)
class OracleResult:
    """Outputs of one discretized run."""

    n: int
    loss_multi: complex
    loss_single: complex
    ratio: float
    i_out: float
    # read-only, complex, n + 1 points from the head; not compared
    v_profile: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class SweepRow:
    rho: float
    oracle_ratio: float
    c_formula: float
    deviation: float


def check_segment_count(n: int) -> int:
    """A discretized line has at least one segment."""
    if not n >= 1:
        raise ValueError(f"segment count must be >= 1, got {n}")
    return n


def simulate_uniform_line(model: UniformLineModel, n: int) -> OracleResult:
    """Run the lumped-extraction discretization with n extraction points.

    loss_multi sums i^2 * zeta * dx over the piecewise-constant current
    profile; loss_single is the drop-times-head-current loss a single
    segment with the same endpoints would show.  Current is conserved
    exactly: i_out == i_in - extracted.
    """
    check_segment_count(n)
    dx = model.length / n
    di = model.rho * model.i_in / n

    # Current on the two halves of each of the n segments: the extraction
    # sits at the segment midpoint, so the first half still carries the
    # previous level.
    k = np.arange(n)
    i_pre = model.i_in - k * di
    i_post = model.i_in - (k + 1) * di

    half = 0.5 * dx
    loss_multi = model.zeta * half * (np.sum(i_pre**2) + np.sum(i_post**2))

    total_drop = model.zeta * half * (np.sum(i_pre) + np.sum(i_post))
    loss_single = total_drop * model.i_in

    ratio = abs(loss_multi) / abs(loss_single)

    v0 = model.head_voltage()
    seg_drop = model.zeta * half * (i_pre + i_post)
    v_profile = v0 - np.concatenate(([0.0], np.cumsum(seg_drop)))
    v_profile.flags.writeable = False

    i_out = model.i_in - n * di
    return OracleResult(
        n=n,
        loss_multi=complex(loss_multi),
        loss_single=complex(loss_single),
        ratio=float(ratio),
        i_out=float(i_out),
        v_profile=v_profile,
    )


def sweep_rho(rhos: Sequence[float], n: int) -> list[SweepRow]:
    """Compare the discretized loss ratio to the closed form over rho values.

    Runs one fixed line (zeta 0.3+0.2j, length 1, i_in 1); all three cancel
    out of the ratio in exact arithmetic.
    """
    rows = []
    for rho in rhos:
        model = UniformLineModel(length=1.0, zeta=0.3 + 0.2j, i_in=1.0, rho=rho)
        result = simulate_uniform_line(model, n)
        c = correction_factor(rho)
        rows.append(
            SweepRow(
                rho=float(rho),
                oracle_ratio=result.ratio,
                c_formula=c,
                deviation=abs(result.ratio - c),
            )
        )
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    """Write sweep rows as CSV with a fixed header and row order."""
    header = [f.name for f in fields(SweepRow)]
    write_csv(
        path,
        header,
        [[format_float(getattr(row, name)) for name in header] for row in rows],
    )
