"""Voltage-only loss estimation from segment endpoint voltages.

The core estimate for one line segment is the relative voltage drop
``1 - v_end/v_start`` computed from voltage magnitudes alone.  For a line
with distributed extraction along its length the drop overestimates the
loss fraction; a correction factor derived from the ratio of power and
voltage at the two ends scales the estimate back.

All functions here are pure and operate on plain floats/complex numbers,
except voss_elementwise, which applies the same arithmetic to numpy
arrays; all are safe to call concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np


class Phase(Enum):
    """Phase label of a conductor."""

    A = "A"
    B = "B"
    C = "C"


class EstimateMethod(Enum):
    """How a loss fraction was obtained."""

    VOSS_SINGLE = "voss_single"
    VOSS_CORRECTED = "voss_corrected"
    TRUE_SIMULATED = "true_simulated"


class EstimateFlag(Enum):
    """Quality flags attached to a loss estimate.

    NEGATIVE_DROP: the raw voltage drop was negative (end voltage above
        start voltage, e.g. capacitor support or sensor noise).  The value
        is reported as-is, never clamped.
    NEAR_ZERO_POWER: input power at the segment head is below the
        near-zero threshold; the ratio is numerically meaningless and the
        row is excluded from comparisons by default.
    CORRECTION_OUT_OF_RANGE: the inferred leakage fraction fell outside
        [0, 1], so the correction model's assumptions do not hold for this
        segment (diagnostic, not an error).
    """

    NEGATIVE_DROP = "NegativeDrop"
    NEAR_ZERO_POWER = "NearZeroPower"
    CORRECTION_OUT_OF_RANGE = "CorrectionOutOfRange"


@dataclass(frozen=True)
class SegmentVoltages:
    """Voltage magnitudes at the two ends of a series segment.

    Units are irrelevant as long as both ends use the same one: the
    estimate depends only on the ratio, so constant transformer turns
    ratios and per-unit scalings cancel.
    """

    v_start: float
    v_end: float

    def __post_init__(self) -> None:
        if not (self.v_start > 0.0) or not math.isfinite(self.v_start):
            raise ValueError(f"v_start must be finite and > 0, got {self.v_start}")
        if self.v_end < 0.0 or not math.isfinite(self.v_end):
            raise ValueError(f"v_end must be finite and >= 0, got {self.v_end}")


@dataclass(frozen=True)
class CorrectionParams:
    """End-to-end ratios used to infer the leakage fraction of a segment.

    rho_s: real-power ratio p(end)/p(start); a valid correction needs
        0 <= rho_s <= 1.
    rho_v: voltage-magnitude ratio v(end)/v(start); a valid correction
        needs 0 < rho_v <= 1.

    Out-of-range values are representable (measurements can produce them);
    the operations below flag rather than reject them, except where the
    arithmetic itself breaks down (rho_v <= 0, rho_s < 0).
    """

    rho_s: float
    rho_v: float


@dataclass(frozen=True)
class LossEstimate:
    """A loss fraction for one line (or path) and phase, with provenance."""

    loss_fraction: float
    method: EstimateMethod
    line_id: Optional[str] = None
    phase: Optional[Phase] = None
    c_hat: Optional[float] = None
    params: Optional[CorrectionParams] = None
    flags: frozenset = field(default_factory=frozenset)

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
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    return 1.0 - rho * (3.0 - 2.0 * rho) / (6.0 - 3.0 * rho)


def correction_factor_hat(params: CorrectionParams) -> float:
    """Correction factor estimated from measurable end-to-end ratios.

    Algebraically identical to ``correction_factor(1 - rho_s/rho_v)`` when
    the inferred leakage fraction is in range.  Values above 1 indicate
    the distributed-extraction model does not fit (flag at the call site).
    """
    rho_s, rho_v = params.rho_s, params.rho_v
    if rho_v <= 0.0:
        raise ValueError(f"rho_v must be > 0, got {rho_v}")
    if rho_s < 0.0:
        raise ValueError(f"rho_s must be >= 0, got {rho_s}")
    return _c_hat(rho_s, rho_v)


def _c_hat(rho_s, rho_v):
    # shared by the scalar and the elementwise estimate, so both give
    # the same bits
    return 1.0 - ((rho_v - rho_s) / (rho_v + rho_s)) * ((rho_v + 2.0 * rho_s) / (3.0 * rho_v))


def rho_from_ratios(rho_s: float, rho_v: float) -> float:
    """Leakage fraction inferred from power and voltage ratios.

    Returns ``1 - rho_s/rho_v`` unclamped; measurement noise or model
    mismatch can push it outside [0, 1], which callers flag as
    CORRECTION_OUT_OF_RANGE.
    """
    if rho_v <= 0.0:
        raise ValueError(f"rho_v must be > 0, got {rho_v}")
    return 1.0 - rho_s / rho_v


def clamp_rho(rho: float) -> float:
    """Clamp an inferred leakage fraction into the model's [0, 1] domain."""
    return min(1.0, max(0.0, rho))


def voss_corrected(
    seg: SegmentVoltages,
    params: CorrectionParams,
    line_id: Optional[str] = None,
    phase: Optional[Phase] = None,
) -> LossEstimate:
    """Corrected voltage-only loss estimate for a segment with extraction.

    Multiplies the raw drop by the correction factor inferred from
    ``params``.  Flags NEGATIVE_DROP when the raw drop is negative and
    CORRECTION_OUT_OF_RANGE when the inferred leakage fraction falls
    outside [0, 1]; in both cases the value is still reported.
    """
    raw = voss_single(seg)
    c_hat = correction_factor_hat(params)
    flags = set()
    if raw < 0.0:
        flags.add(EstimateFlag.NEGATIVE_DROP)
    rho = rho_from_ratios(params.rho_s, params.rho_v)
    if not (0.0 <= rho <= 1.0):
        flags.add(EstimateFlag.CORRECTION_OUT_OF_RANGE)
    return LossEstimate(
        loss_fraction=c_hat * raw,
        method=EstimateMethod.VOSS_CORRECTED,
        line_id=line_id,
        phase=phase,
        c_hat=c_hat,
        params=params,
        flags=frozenset(flags),
    )


def voss_elementwise(v_start, v_end, rho_s: Optional[float] = None) -> tuple:
    """voss_single, or voss_corrected with this rho_s, over arrays of pairs.

    v_start and v_end are numpy arrays of endpoint magnitudes; rho_v is
    v_end/v_start per element.  Returns (loss fractions, NEGATIVE_DROP
    mask, CORRECTION_OUT_OF_RANGE mask).  Each element equals the scalar
    function's result on the same pair bit for bit, and the inputs the
    scalar functions reject are rejected here too.
    """
    if not np.all((0.0 < v_start) & (v_start < np.inf)):
        raise ValueError("v_start must be finite and > 0")
    if not np.all((0.0 <= v_end) & (v_end < np.inf)):
        raise ValueError("v_end must be finite and >= 0")
    raw = 1.0 - v_end / v_start
    negative = raw < 0.0
    if rho_s is None:
        return raw, negative, np.zeros_like(negative)
    if rho_s < 0.0:
        raise ValueError(f"rho_s must be >= 0, got {rho_s}")
    rho_v = v_end / v_start
    if not np.all(rho_v > 0.0):
        raise ValueError("rho_v must be > 0")
    rho = 1.0 - rho_s / rho_v
    return _c_hat(rho_s, rho_v) * raw, negative, ~((0.0 <= rho) & (rho <= 1.0))
