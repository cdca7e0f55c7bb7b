"""Voltage-only loss estimation from segment endpoint voltages.

The core estimate for one line segment is the relative voltage drop
``1 - v_end/v_start`` computed from voltage magnitudes alone.  For a line
with distributed extraction along its length the drop overestimates the
loss fraction; a correction factor derived from the ratio of power and
voltage at the two ends scales the estimate back.

All functions here are pure and operate on plain floats/complex numbers;
rho_from_ratios, clamp_rho, clamped_correction and voss_elementwise also
take numpy arrays.  All are safe to call concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np


class EstimateFlag(Enum):
    """Quality flags of a loss estimate, a sensor curve point or a solve.

    The values are the strings written to every output.

    NEGATIVE_DROP: the raw voltage drop was negative (end voltage above
        start voltage, e.g. capacitor support or sensor noise).  The value
        is reported as-is, never clamped.
    NEAR_ZERO_POWER: input power at the segment head is below the
        near-zero threshold; the ratio is numerically meaningless and the
        row is excluded from comparisons by default.
    CORRECTION_OUT_OF_RANGE: the inferred leakage fraction fell outside
        [0, 1], so the correction model's assumptions do not hold for this
        segment (diagnostic, not an error).  The factor is clamped, to 1
        below the range and 2/3 above it, and the value still reported.
    GAP: no sample of one sensor lies within the pairing tolerance of
        the grid point.
    POWER_STATE_SUSPECT: a sensor read below the outage threshold near
        the grid point, so the reading is not grid state.
    VOLTAGE_COLLAPSE_SUSPECT: a solved node voltage sits below the
        collapse threshold of its nominal base.
    """

    NEGATIVE_DROP = "NegativeDrop"
    NEAR_ZERO_POWER = "NearZeroPower"
    CORRECTION_OUT_OF_RANGE = "CorrectionOutOfRange"
    GAP = "Gap"
    POWER_STATE_SUSPECT = "PowerStateSuspect"
    VOLTAGE_COLLAPSE_SUSPECT = "VoltageCollapseSuspect"


@dataclass(frozen=True)
class SegmentVoltages:
    """Voltage magnitudes at the two ends of a series segment.

    Units are irrelevant as long as both ends use the same one: the
    estimate depends only on the ratio, so a common per-unit scaling
    cancels.  A transformer turns ratio or a regulator tap cancels only
    when both ends are on the same side of every such device; across
    one, the ratio carries the device's voltage change.  On ieee34, the
    path 800-890 crosses two regulators and the transformer, and its
    phase A reads voss_single 0.855 against a true loss fraction of 0.172.
    """

    v_start: float
    v_end: float

    def __post_init__(self) -> None:
        _check_ends(self.v_start, self.v_end)


def _check_ends(v_start, v_end) -> None:
    """v_start finite and > 0, v_end finite and >= 0; scalars or numpy arrays."""
    if not np.all((0.0 < v_start) & (v_start < np.inf)):
        raise ValueError(f"v_start must be finite and > 0, got {v_start}")
    if not np.all((0.0 <= v_end) & (v_end < np.inf)):
        raise ValueError(f"v_end must be finite and >= 0, got {v_end}")


@dataclass(frozen=True)
class CorrectionParams:
    """End-to-end ratios used to infer the leakage fraction of a segment.

    rho_s: real-power ratio p(end)/p(start); a valid correction needs
        0 <= rho_s <= 1.
    rho_v: voltage-magnitude ratio v(end)/v(start); a valid correction
        needs 0 < rho_v <= 1.

    Out-of-range values are representable (measurements can produce them);
    the operations below flag rather than reject them, except where the
    arithmetic itself breaks down (rho_v <= 0).
    """

    rho_s: float
    rho_v: float


@dataclass(frozen=True)
class LossEstimate:
    """A loss fraction and the EstimateFlags that qualify it."""

    loss_fraction: float
    flags: frozenset = frozenset()

    def has_flag(self, flag: EstimateFlag) -> bool:
        return flag in self.flags


def voss_single(seg: SegmentVoltages) -> float:
    """Relative voltage drop across one segment, from magnitudes only.

    Computed as ``1 - v_end/v_start`` rather than via squared magnitudes,
    which avoids cancellation for small drops.  Negative when the end
    voltage exceeds the start voltage; callers flag, never clamp.
    """
    return 1.0 - seg.v_end / seg.v_start


def loss_fraction_exact(v_start: complex, v_end: complex) -> float:
    """Loss fraction of a single segment from full endpoint phasors.

    Equals |v_start - v_end| / |v_start|, the magnitude of the complex
    power lost in the segment relative to the input power when the same
    current flows through both ends.  Used as the phasor-aware reference
    that the magnitude-only estimate approximates.
    """
    mag = abs(v_start)
    if mag == 0.0:
        raise ValueError("v_start must be nonzero")
    return abs(v_start - v_end) / mag


def small_angle_error_bound(v_start: complex, v_end: complex) -> float:
    """Upper bound on |loss_fraction_exact - voss_single| for one segment.

    The bound is 2 * (|v_end|/|v_start|) * |sin(dtheta/2)| where dtheta is
    the angle difference across the segment.  It holds whenever
    |v_end| <= |v_start| (the normal direction of power flow).
    """
    v1 = abs(v_start)
    if v1 == 0.0:
        raise ValueError("v_start must be nonzero")
    dtheta = cmath.phase(v_end) - cmath.phase(v_start) if v_end != 0 else 0.0
    return 2.0 * (abs(v_end) / v1) * abs(math.sin(dtheta / 2.0))


def correction_factor(rho: float) -> float:
    """Correction factor c(rho) for uniformly distributed extraction.

    rho is the fraction of the input current extracted along the segment.
    c decreases from 1 at rho=0 (pure through-flow) to 2/3 at rho=1 (all
    current extracted by the far end).
    """
    return _c(check_rho(rho))


def _c(rho):
    """c(rho) on a float or a numpy array, with the same bits per element."""
    return 1.0 - rho * (3.0 - 2.0 * rho) / (6.0 - 3.0 * rho)


def correction_factor_hat(params: CorrectionParams) -> float:
    """Correction factor estimated from measurable end-to-end ratios.

    Algebraically identical to ``correction_factor(1 - rho_s/rho_v)`` when
    the inferred leakage fraction is in range; the estimates use
    ``clamped_correction``, and this ratio form is kept as its reference.
    """
    rho_s, rho_v = params.rho_s, params.rho_v
    rho_from_ratios(rho_s, rho_v)  # the rho_v > 0 rule
    if rho_s < 0.0:
        raise ValueError(f"rho_s must be >= 0, got {rho_s}")
    return 1.0 - ((rho_v - rho_s) / (rho_v + rho_s)) * ((rho_v + 2.0 * rho_s) / (3.0 * rho_v))


def rho_from_ratios(rho_s, rho_v):
    """Leakage fraction ``1 - rho_s/rho_v`` from power and voltage ratios.

    rho_v must be > 0.  Unclamped: noise or model mismatch can push it
    outside [0, 1] (see ``clamped_correction``).  Takes numpy arrays too.
    """
    if not np.all(np.greater(rho_v, 0.0)):
        raise ValueError(f"rho_v must be > 0, got {np.min(rho_v)}")
    return 1.0 - np.divide(rho_s, rho_v)


def clamp_rho(rho):
    """Clamp a leakage fraction into the model's [0, 1] domain; NaN stays NaN."""
    return np.clip(rho, 0.0, 1.0)


def check_rho(rho: Optional[float], name: str = "rho") -> Optional[float]:
    """rho, or a supplied power ratio rho_s, must lie in [0, 1]; None passes."""
    if rho is not None and not 0.0 <= rho <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {rho}")
    return rho


def clamped_correction(rho_s, rho_v) -> tuple:
    """The correction policy: (factor, out-of-range mask) from the ratios.

    The leakage fraction ``rho_from_ratios(rho_s, rho_v)`` goes through
    ``clamp_rho`` before evaluating c(rho) = 1 - rho(3 - 2 rho)/(6 - 3 rho).
    Angle effects on extraction-free paths land rho epsilon-negative, and
    the clamp turns those into an exact factor of 1 instead of one
    slightly above.  A rho outside [0, 1] (the model does not fit) is
    marked in the mask and gets the clamped factor, 1 below the range and
    2/3 above it (rho_s <= 0).  A NaN rho_s gives NaN.  Takes scalars or
    numpy arrays, with the same bits per element either way.
    """
    rho = rho_from_ratios(rho_s, rho_v)
    out_of_range = ~((0.0 <= rho) & (rho <= 1.0))
    return _c(clamp_rho(rho)), out_of_range


def voss_corrected(seg: SegmentVoltages, params: CorrectionParams) -> LossEstimate:
    """Corrected voltage-only loss estimate for a segment with extraction.

    Multiplies the raw drop by ``clamped_correction`` of ``params``.
    Flags NEGATIVE_DROP when the raw drop is negative and
    CORRECTION_OUT_OF_RANGE when the inferred leakage fraction falls
    outside [0, 1]; in both cases the value is still reported.
    """
    raw = voss_single(seg)
    c_hat, out_of_range = clamped_correction(params.rho_s, params.rho_v)
    flags = {EstimateFlag.NEGATIVE_DROP} if raw < 0.0 else set()
    if out_of_range:
        flags.add(EstimateFlag.CORRECTION_OUT_OF_RANGE)
    return LossEstimate(float(c_hat * raw), frozenset(flags))


def voss_elementwise(v_start, v_end, rho_s: Optional[float] = None) -> tuple:
    """voss_single, or voss_corrected with this rho_s, over arrays of pairs.

    v_start and v_end are numpy arrays of endpoint magnitudes; rho_v is
    v_end/v_start per element.  Returns (loss fractions, NEGATIVE_DROP
    mask, CORRECTION_OUT_OF_RANGE mask).  Each element equals the scalar
    function's result on the same pair bit for bit, and _check_ends
    rejects what SegmentVoltages rejects.
    """
    _check_ends(v_start, v_end)
    rho_v = v_end / v_start
    raw = 1.0 - rho_v
    negative = raw < 0.0
    if rho_s is None:
        return raw, negative, np.zeros_like(negative)
    c_hat, out_of_range = clamped_correction(rho_s, rho_v)
    return c_hat * raw, negative, out_of_range
