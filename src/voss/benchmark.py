"""Per-line and per-path comparison of voltage-only loss estimates
against simulated true losses on a solved feeder.

A line is a path of one segment: both studies build their rows with the
same path comparison, and differ only in the paths they take and where
rho_s comes from.  That comparison is the one place that defines a
path's true loss, from the solved segment flows, and the near-zero rule
that excludes a phase whose input power is below a fixed fraction of the
feeder power base.

The studies take a solution of the feeder with distributed loads split
half-and-half onto their segment end nodes (the convention of the
reference distribution simulators), which keeps every line internally
tap-free.  ``solve_end_split`` is that solve; ``voss benchmark`` calls
it once per feeder and hands the solution to both studies.  On a
tap-free line the per-phase true loss fraction equals the phasor
voltage-drop fraction exactly, so the single-segment study's errors are
governed purely by the small-angle bound.

Every path applies ``clamped_correction`` of the power ratio rho_s
(simulated by default, or a supplied engineering estimate for
multi-segment paths) and the voltage ratio rho_v, the policy the sensor
curves and ``voss_corrected`` use.

A study compares all its paths in one call, on the solution's state
arrays: each ComparisonRow field is one array column, with one
``clamped_correction`` call for every row.  Each column keeps the bits
of the scalar arithmetic, row by row: magnitudes and angles are
``estimator.magnitude`` and ``estimator.angle`` (the bits of ``abs()``
and ``cmath.phase``), and a path's segment losses are added one segment
at a time in path order, never by a pairwise ``np.sum``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .estimator import EstimateFlag, angle, check_rho, clamped_correction, magnitude
from .feeder import FeederModel, SegmentKind, split_distributed_loads_to_ends
from .ioutil import FLOAT_FORMAT, write_csv
from .powerflow import PowerFlowSolution, SolveOptions, solve

# Fraction of the feeder power base below which a per-phase input power
# is treated as "no signal" for loss-fraction purposes.  Chosen so the
# single-digit-kVA spur lines on the bundled 34-node feeder fall under it
# while every normally loaded line clears it by more than 10x.
NEAR_ZERO_POWER_FRACTION = 2e-3
_LINE = SegmentKind.LINE  # a member read through its class costs Python-level enum code


@dataclass(frozen=True)
class ComparisonRow:
    feeder: str
    line_or_path: str
    phase: str
    voss_single: float
    c_hat: float
    voss_corrected: float
    true_loss: float
    abs_error: float
    angle_bound: float
    rho_s: float
    rho_v: float
    excluded: bool
    reason: str = ""


COMPARISON_HEADER = [f.name for f in fields(ComparisonRow)]


def solve_end_split(model: FeederModel, options: SolveOptions) -> PowerFlowSolution:
    """Solve the feeder with distributed loads split onto segment ends."""
    return solve(split_distributed_loads_to_ends(model), options)


def _compare_path(solution: PowerFlowSolution, paths: Sequence,
                  rho_s: Optional[float]) -> dict:
    """ComparisonRow columns of contiguous paths, given as (label, segments).

    A path has one row per phase of its head segment, in that segment's
    phase-string order, that every segment of the path carries.  Endpoint
    voltage magnitudes give the uncorrected estimate; rho_s (None:
    simulated from the head and tail flows) and rho_v from the same
    endpoints give the correction, in one ``clamped_correction`` call.
    True loss is |sum of the segments' series dissipation|, added in path
    order, over |input power| on the phase, so power delivered to
    intermediate taps is not counted as loss.  Input power below
    NEAR_ZERO_POWER_FRACTION of the feeder power base excludes the row;
    zero input power always does, also where that threshold underflows to
    0 (a base below about 1.2e-321 kVA), and gives a NaN true loss.
    """
    slots = solution.slots
    labels, phases, members = [], [], []
    for label, segs in paths:
        if not segs:
            raise ValueError(f"path {label} has no segments")
        rows = [dict(zip(seg.phases, slots.rows(seg))) for seg in segs]
        for ph in segs[0].phases:
            member = [by_phase.get(ph) for by_phase in rows]  # None: a segment lacks ph
            if None not in member:
                labels.append(label)
                phases.append(ph)
                members.append(member)
    head, tail = [m[0] for m in members], [m[-1] for m in members]
    dissipated = slots.s_from - slots.s_to
    lost = dissipated[head]
    for j in range(1, max(map(len, members), default=1)):
        deep = [k for k, m in enumerate(members) if len(m) > j]
        lost[deep] += dissipated[[members[k][j] for k in deep]]
    v1, v2, s_in = slots.v_from[head], slots.v_to[tail], slots.s_from[head]
    near_zero_va = NEAR_ZERO_POWER_FRACTION * solution.model.base.power_kva * 1e3
    with np.errstate(all="ignore"):
        rho_v = magnitude(v2) / magnitude(v1)
        s_in_va = magnitude(s_in)
        true_loss = np.where(s_in == 0, np.nan, magnitude(lost) / s_in_va)
        if rho_s is None:
            p_out = slots.s_to.real[tail]
            rho_s = np.where(s_in.real == 0.0, np.nan, p_out / s_in.real)
        else:
            rho_s = np.array([rho_s] * len(labels), dtype=float)
    excluded = (s_in == 0) | (s_in_va < near_zero_va)
    voss = 1.0 - rho_v
    c_hat = clamped_correction(rho_s, rho_v)[0]
    corrected = c_hat * voss
    dtheta = np.where(v2 != 0, angle(v2) - angle(v1), 0.0)
    # A rising endpoint voltage (capacitor support, light phase) makes
    # the estimate negative; the small-angle error bound holds only for
    # non-rising pairs, so such rows carry an annotation.
    reason = [EstimateFlag.NEAR_ZERO_POWER.value if out else
              EstimateFlag.NEGATIVE_DROP.value if rise else ""
              for out, rise in zip(excluded.tolist(), (voss < 0.0).tolist())]
    return dict(
        feeder=[solution.model.name] * len(labels), line_or_path=labels, phase=phases,
        voss_single=voss, c_hat=c_hat, voss_corrected=corrected, true_loss=true_loss,
        abs_error=np.where(excluded, np.nan, np.abs(corrected - true_loss)),
        angle_bound=2.0 * rho_v * np.abs(np.sin(dtheta / 2.0)),
        rho_s=rho_s, rho_v=rho_v, excluded=excluded, reason=reason,
    )


def _check_solution(model: FeederModel, solution: PowerFlowSolution) -> None:
    """Raise unless solution is of model's segments (the end split keeps the tuple)."""
    theirs = solution.model.segments
    if theirs is not model.segments and theirs != model.segments:
        raise ValueError(f"a study takes a solution of its model's segments, but the "
                         f"solution's model ({solution.model.name}, {len(theirs)} segments) "
                         f"has other segments than {model.name} ({len(model.segments)})")


def _rows(columns: dict) -> list:
    """ComparisonRows from _compare_path columns, with Python scalars."""
    values = (c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values())
    return list(map(ComparisonRow, *values))


def run_single_segment_study(model: FeederModel, *, solution: PowerFlowSolution) -> list:
    """One ComparisonRow per phase of every line segment.

    Each line is a path of one segment with a simulated rho_s.  Rows
    whose phase carries input power below the near-zero threshold are
    marked excluded; their loss columns are reported (NaN when the input
    power is exactly zero) but carry no meaning.
    """
    _check_solution(model, solution)
    lines = [(seg.id, [seg]) for seg in model.segments if seg.kind is _LINE]
    return _rows(_compare_path(solution, lines, None))


def run_multi_segment_study(
    model: FeederModel,
    paths: Sequence,
    *,
    solution: PowerFlowSolution,
    rho_s: Optional[float] = None,
) -> list:
    """ComparisonRows for downstream node-pair paths (head, tail).

    rho_s is simulated from the flows when None, else a fixed estimate.
    """
    check_rho(rho_s, "rho_s")
    _check_solution(model, solution)
    paths = [(f"{head}-{tail}", model.path_segments(head, tail)) for head, tail in paths]
    return _rows(_compare_path(solution, paths, rho_s))


def excluded_lines(rows: Sequence) -> list:
    """Lines whose every phase row is excluded (the "~0 input power" set)."""
    by_line: dict = {}
    for row in rows:
        by_line.setdefault(row.line_or_path, []).append(row.excluded)
    return sorted(k for k, v in by_line.items() if all(v))


# How a ComparisonRow field is written, by its declared type
_FORMAT = dict(str=str, float=FLOAT_FORMAT.__mod__, bool=("false", "true").__getitem__)


def write_comparison_csv(rows: Sequence, path) -> None:
    """One line per ComparisonRow, one column per field in declaration order."""
    columns = [
        map(_FORMAT[f.type], map(attrgetter(f.name), rows))
        for f in fields(ComparisonRow)
    ]
    write_csv(path, COMPARISON_HEADER, list(zip(*columns)))


def write_plot_long_csv(rows: Sequence, path) -> None:
    """Long-format series for external plotting tools."""
    header = ["feeder", "line_or_path", "phase", "series", "value", "excluded"]
    out = [
        [r.feeder, r.line_or_path, r.phase, name,
         FLOAT_FORMAT % getattr(r, name), _FORMAT["bool"](r.excluded)]
        for r in rows
        for name in ("voss_single", "voss_corrected", "true_loss")
    ]
    write_csv(path, header, out)
