"""Per-line and per-path comparison of voltage-only loss estimates
against simulated true losses on a solved feeder.

A line is a path of one segment: both studies build their rows with the
same path comparison, and differ only in the paths they take and where
rho_s comes from.  That comparison is the one place that defines a
path's true loss, from the solved segment flows, and the near-zero rule
that excludes a phase whose input power is too small to count.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional, Sequence

from .estimator import (
    EstimateFlag,
    check_rho,
    clamped_correction,
    small_angle_error_bound,
)
from .feeder import FeederModel, SegmentKind, split_distributed_loads_to_ends
from .ioutil import FLOAT_FORMAT, format_float, write_csv
from .powerflow import PowerFlowSolution, SolveOptions, solve

# Fraction of the feeder power base below which a per-phase input power
# is treated as "no signal" for loss-fraction purposes.  Chosen so the
# single-digit-kVA spur lines on the bundled 34-node feeder fall under it
# while every normally loaded line clears it by more than 10x.
NEAR_ZERO_POWER_FRACTION = 2e-3


def check_near_zero_fraction(fraction: float) -> float:
    """The near-zero threshold is a finite fraction >= 0 of the power base."""
    if not 0.0 <= fraction < math.inf:
        raise ValueError(f"near_zero_fraction must be finite and >= 0, got {fraction}")
    return fraction


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


def _compare_path(
    solution: PowerFlowSolution,
    label: str,
    segs: Sequence,
    near_zero_fraction: float,
    rho_s: Optional[float],
) -> list:
    """ComparisonRows of one contiguous path, one per shared phase.

    The phases are those of the head segment, in its phase-string order,
    that every segment of the path carries.  Endpoint voltage magnitudes
    give the uncorrected estimate; rho_s (None: simulated from the head
    and tail flows) and rho_v from the same endpoints give the
    correction.  True loss is |sum of the segments' series dissipation|
    over |input power| on the phase, so power delivered to intermediate
    taps is not counted as loss.  Input power below near_zero_fraction of
    the feeder power base excludes the row; zero input power always does,
    and gives a NaN true loss.
    """
    if not segs:
        raise ValueError(f"path {label} has no segments")
    model = solution.model
    shared = [p for p in segs[0].phases if all(p in s.phases for s in segs)]
    flows = [solution.segment_flows[s.id] for s in segs]
    first, last = flows[0], flows[-1]
    near_zero_va = near_zero_fraction * model.base.power_kva * 1e3
    rows = []
    for ph in shared:
        v1 = solution.voltage(segs[0].from_node, ph)
        v2 = solution.voltage(segs[-1].to_node, ph)
        rho_v = abs(v2) / abs(v1)
        voss = 1.0 - rho_v
        s_in = first.s_from[first.phases.index(ph)]
        dissipated = sum(flow.loss(ph) for flow in flows)
        true_loss = math.nan if s_in == 0 else abs(dissipated) / abs(s_in)
        excluded = s_in == 0 or abs(s_in) < near_zero_va
        # A rising endpoint voltage (capacitor support, light phase) makes
        # the estimate negative; the small-angle error bound holds only for
        # non-rising pairs, so such rows carry an annotation.
        reason = EstimateFlag.NEGATIVE_DROP.value if voss < 0.0 else ""
        if excluded:
            reason = EstimateFlag.NEAR_ZERO_POWER.value
        row_rho_s = rho_s
        if row_rho_s is None:
            p_out = last.s_to[last.phases.index(ph)].real
            row_rho_s = math.nan if s_in.real == 0.0 else p_out / s_in.real
        c_hat = float(clamped_correction(row_rho_s, rho_v)[0])
        corrected = c_hat * voss
        abs_error = math.nan if excluded else abs(corrected - true_loss)
        rows.append(
            ComparisonRow(
                feeder=model.name,
                line_or_path=label,
                phase=ph,
                voss_single=voss,
                c_hat=c_hat,
                voss_corrected=corrected,
                true_loss=true_loss,
                abs_error=abs_error,
                angle_bound=small_angle_error_bound(v1, v2),
                rho_s=row_rho_s,
                rho_v=rho_v,
                excluded=excluded,
                reason=reason,
            )
        )
    return rows


def run_single_segment_study(
    model: FeederModel,
    *,
    solution: PowerFlowSolution,
    near_zero_fraction: float = NEAR_ZERO_POWER_FRACTION,
) -> list:
    """One ComparisonRow per phase of every line segment.

    Each line is a path of one segment with a simulated rho_s.  Rows
    whose phase carries input power below the near-zero threshold are
    marked excluded; their loss columns are reported (NaN when the input
    power is exactly zero) but carry no meaning.
    """
    check_near_zero_fraction(near_zero_fraction)
    rows = []
    for seg in model.segments:
        if seg.kind == SegmentKind.LINE:
            rows += _compare_path(solution, seg.id, [seg], near_zero_fraction, None)
    return rows


def run_multi_segment_study(
    model: FeederModel,
    paths: Sequence,
    *,
    solution: PowerFlowSolution,
    rho_s: Optional[float] = None,
    near_zero_fraction: float = NEAR_ZERO_POWER_FRACTION,
) -> list:
    """ComparisonRows for downstream node-pair paths (head, tail).

    rho_s is simulated from the flows when None, else a fixed estimate.
    """
    check_rho(rho_s, "rho_s")
    check_near_zero_fraction(near_zero_fraction)
    rows = []
    for head, tail in paths:
        rows += _compare_path(
            solution, f"{head}-{tail}", model.path_segments(head, tail),
            near_zero_fraction, rho_s,
        )
    return rows


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
         format_float(getattr(r, name)), _FORMAT["bool"](r.excluded)]
        for r in rows
        for name in ("voss_single", "voss_corrected", "true_loss")
    ]
    write_csv(path, header, out)
