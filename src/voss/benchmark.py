"""Per-line and per-path comparison of voltage-only loss estimates
against simulated true losses on a solved feeder.

A line is a path of one segment: both studies build their rows with the
same path comparison, and differ only in the paths they take and where
rho_s comes from.

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
from dataclasses import dataclass
from typing import Optional, Sequence

from .estimator import (
    EstimateFlag,
    check_rho_s,
    clamped_correction,
    small_angle_error_bound,
)
from .feeder import FeederModel, SegmentKind, split_distributed_loads_to_ends
from .ioutil import format_float, write_csv
from .powerflow import (
    NEAR_ZERO_POWER_FRACTION,
    PowerFlowSolution,
    SolveOptions,
    path_segment_ids,
    solve,
    true_loss_fractions,
)

COMPARISON_HEADER = [
    "feeder",
    "line_or_path",
    "phase",
    "voss_single",
    "c_hat",
    "voss_corrected",
    "true_loss",
    "abs_error",
    "angle_bound",
    "rho_s",
    "rho_v",
    "excluded",
    "reason",
]


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


def solve_end_split(model: FeederModel, options: SolveOptions) -> PowerFlowSolution:
    """Solve the feeder with distributed loads split onto segment ends."""
    return solve(split_distributed_loads_to_ends(model), options)


def _compare_path(
    solution: PowerFlowSolution,
    label: str,
    segment_ids: Sequence[str],
    near_zero_fraction: float,
    rho_s: Optional[float],
) -> list:
    """ComparisonRows of one contiguous path, one per shared phase.

    The phases are those of the head segment, in its phase-string order,
    that every segment of the path carries.  Endpoint voltage magnitudes
    give the uncorrected estimate; rho_s (None: simulated from the head
    and tail flows) and rho_v from the same endpoints give the
    correction.  True loss counts only series dissipation on the path,
    not power delivered to intermediate taps.
    """
    if not segment_ids:
        raise ValueError(f"path {label} has no segments")
    model = solution.model
    segs = [model.segment(sid) for sid in segment_ids]
    shared = [p for p in segs[0].phases if all(p in s.phases for s in segs)]
    if not shared:
        raise ValueError(f"path {label} has no common phase")
    first = solution.segment_flows[segs[0].id]
    last = solution.segment_flows[segs[-1].id]
    rows = []
    for ph in shared:
        v1 = solution.voltage(segs[0].from_node, ph)
        v2 = solution.voltage(segs[-1].to_node, ph)
        rho_v = abs(v2) / abs(v1)
        voss = 1.0 - rho_v
        est = true_loss_fractions(solution, segment_ids, ph, near_zero_fraction)
        excluded = est.has_flag(EstimateFlag.NEAR_ZERO_POWER)
        # A rising endpoint voltage (capacitor support, light phase) makes
        # the estimate negative; the small-angle error bound holds only for
        # non-rising pairs, so such rows carry an annotation.
        reason = EstimateFlag.NEGATIVE_DROP.value if voss < 0.0 else ""
        if excluded:
            reason = EstimateFlag.NEAR_ZERO_POWER.value
        row_rho_s = rho_s
        if row_rho_s is None:
            p_in = first.s_from[segs[0].phases.index(ph)].real
            p_out = last.s_to[segs[-1].phases.index(ph)].real
            row_rho_s = math.nan if p_in == 0.0 else p_out / p_in
        c_hat = float(clamped_correction(row_rho_s, rho_v)[0])
        corrected = c_hat * voss
        abs_error = math.nan if excluded else abs(corrected - est.loss_fraction)
        rows.append(
            ComparisonRow(
                feeder=model.name,
                line_or_path=label,
                phase=ph,
                voss_single=voss,
                c_hat=c_hat,
                voss_corrected=corrected,
                true_loss=est.loss_fraction,
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
    rows = []
    for seg in model.segments:
        if seg.kind == SegmentKind.LINE:
            rows += _compare_path(solution, seg.id, [seg.id], near_zero_fraction, None)
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
    check_rho_s(rho_s)
    rows = []
    for head, tail in paths:
        seg_ids = path_segment_ids(model, head, tail)
        rows += _compare_path(
            solution, f"{head}-{tail}", seg_ids, near_zero_fraction, rho_s
        )
    return rows


def excluded_lines(rows: Sequence) -> list:
    """Lines whose every phase row is excluded (the "~0 input power" set)."""
    by_line: dict = {}
    for row in rows:
        by_line.setdefault(row.line_or_path, []).append(row.excluded)
    return sorted(k for k, v in by_line.items() if all(v))


def write_comparison_csv(rows: Sequence, path) -> None:
    out = []
    for r in rows:
        out.append(
            [
                r.feeder,
                r.line_or_path,
                r.phase,
                format_float(r.voss_single),
                format_float(r.c_hat),
                format_float(r.voss_corrected),
                format_float(r.true_loss),
                format_float(r.abs_error),
                format_float(r.angle_bound),
                format_float(r.rho_s),
                format_float(r.rho_v),
                "true" if r.excluded else "false",
                r.reason,
            ]
        )
    write_csv(path, COMPARISON_HEADER, out)


def write_plot_long_csv(rows: Sequence, path) -> None:
    """Long-format series for external plotting tools."""
    out = []
    for r in rows:
        for series, value in (
            ("voss_single", r.voss_single),
            ("voss_corrected", r.voss_corrected),
            ("true_loss", r.true_loss),
        ):
            out.append(
                [
                    r.feeder,
                    r.line_or_path,
                    r.phase,
                    series,
                    format_float(value),
                    "true" if r.excluded else "false",
                ]
            )
    write_csv(
        path,
        ["feeder", "line_or_path", "phase", "series", "value", "excluded"],
        out,
    )
