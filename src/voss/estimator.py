"""Voltage-only loss estimation from segment endpoint voltages.

The core estimate for one line segment is the relative voltage drop
``1 - v_end/v_start`` computed from voltage magnitudes alone.  For a line
with distributed extraction along its length the drop overestimates the
loss fraction; a correction factor derived from the ratio of power and
voltage at the two ends scales the estimate back.  ``voss_estimate`` is
that policy, written once, the only entry to the clamped correction:
the studies and the sensor curves call it with rho_s, voss_single takes
its raw drop, and voss_corrected calls it twice (the factor of its
params, the drop of its segment).

All functions here are pure and operate on plain floats/complex numbers;
rho_from_ratios, clamp_rho, voss_estimate, small_angle_error_bound,
magnitude and angle also take numpy arrays, and first_broken_rule takes
them only.  All are safe to call concurrently.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .ioutil import json_number


class EstimateFlag(Enum):
    """Quality flags of a loss estimate, a sensor curve point or a solve.

    The values are the strings written to every output.

    NEGATIVE_DROP: the raw voltage drop was negative (end voltage above
        start voltage, e.g. capacitor support or sensor noise).  The value
        is reported as-is, never clamped.
    NEAR_ZERO_POWER: input power at the segment head is below the
        near-zero threshold; the ratio is numerically meaningless and the
        row is excluded from comparisons.
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
        check_ends(self.v_start, self.v_end)


def check_ends(v_start, v_end) -> None:
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


def magnitude(z: np.ndarray) -> np.ndarray:
    """|z| per element, with the bits of abs() on each complex: a NaN's
    payload aside, and inf where abs() raises OverflowError.

    Not ``np.abs``: on numpy 2.4 with AVX-512 it differed from abs() on
    35% of 200,000 random complexes, where ``np.hypot`` of the parts
    matched all of them.
    """
    return np.hypot(z.real, z.imag)


# cmath.phase element by element, as an object array
_phase = np.frompyfunc(cmath.phase, 1, 1)


def angle(z: np.ndarray) -> np.ndarray:
    """cmath.phase of each element, as a float array (a float for a complex).

    Not ``np.angle`` or ``np.arctan2``: they differed from cmath.phase on
    7% of 200,000 random complexes, so each element goes through
    cmath.phase itself.
    """
    phase = _phase(z)
    return phase.astype(float) if isinstance(phase, np.ndarray) else phase


def voss_single(seg: SegmentVoltages) -> float:
    """Relative voltage drop across one segment, from magnitudes only:
    voss_estimate's raw drop of the ratio v_end/v_start."""
    return voss_estimate(seg.v_end / seg.v_start)[0]


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


def small_angle_error_bound(v_start, v_end):
    """Upper bound on |loss_fraction_exact - voss_single| for one segment.

    The bound is 2 * (|v_end|/|v_start|) * |sin(dtheta/2)| where dtheta is
    the angle difference across the segment.  It holds whenever
    |v_end| <= |v_start| (the normal direction of power flow).  Takes two
    complexes, or two complex arrays element by element; magnitudes and
    angles are ``magnitude`` and ``angle``.
    """
    v1 = magnitude(v_start)
    if (v1 == 0.0).any():
        raise ValueError("v_start must be nonzero")
    dtheta = angle(v_end) - angle(v_start)
    return 2.0 * (magnitude(v_end) / v1) * np.abs(np.sin(dtheta / 2.0))


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
    ``voss_estimate``'s clamped factor, and this ratio form is its reference.
    """
    rho_s, rho_v = params.rho_s, params.rho_v
    rho_from_ratios(rho_s, rho_v)  # the rho_v > 0 rule
    if rho_s < 0.0:
        raise ValueError(f"rho_s must be >= 0, got {rho_s}")
    return 1.0 - ((rho_v - rho_s) / (rho_v + rho_s)) * ((rho_v + 2.0 * rho_s) / (3.0 * rho_v))


def rho_from_ratios(rho_s, rho_v):
    """Leakage fraction ``1 - rho_s/rho_v`` from power and voltage ratios.

    rho_v must be > 0.  Unclamped: noise or model mismatch can push it
    outside [0, 1] (see ``voss_estimate``).  Takes numpy arrays too.
    """
    if not np.all(np.greater(rho_v, 0.0)):
        raise ValueError(f"rho_v must be > 0, got {np.min(rho_v)}")
    return 1.0 - np.divide(rho_s, rho_v)


def clamp_rho(rho):
    """Clamp a leakage fraction into the model's [0, 1] domain; NaN stays NaN."""
    return np.clip(rho, 0.0, 1.0)


def check_rho(rho, name: str = "rho") -> Optional[float]:
    """rho, or a supplied power ratio rho_s, as a float if it is a number
    (ioutil.json_number: never a bool) in [0, 1]; None passes."""
    if rho is None:
        return None
    number = json_number(rho)
    if number is None or not 0.0 <= number <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {rho if number is None else number}")
    return number


def voss_estimate(rho_v, rho_s=None) -> tuple:
    """(raw drop, factor, loss fraction, NEGATIVE_DROP mask,
    CORRECTION_OUT_OF_RANGE mask) of voltage ratios rho_v = v_end/v_start.

    The raw drop is ``1 - rho_v`` (no squared magnitudes: no cancellation
    for small drops); a negative one is flagged, never clamped.  With no
    rho_s, the factor is 1.0, the mask False and the loss the raw drop
    itself.  Else the factor is c(rho) = 1 - rho(3 - 2 rho)/(6 - 3 rho) of
    the leakage fraction ``rho_from_ratios(rho_s, rho_v)`` clamped into
    [0, 1] by ``clamp_rho``, and the loss is factor times raw drop.  The
    clamp turns the epsilon-negative rho of angle effects on
    extraction-free paths into an exact factor of 1.  A rho outside
    [0, 1] (the model does not fit) is marked in the mask and gets the
    clamped factor, 1 below the range and 2/3 above it (rho_s <= 0); a
    NaN rho_s gives NaN.  Floats or numpy arrays, same bits either way.
    """
    raw = 1.0 - rho_v
    if rho_s is None:
        return raw, 1.0, raw, raw < 0.0, False
    rho = rho_from_ratios(rho_s, rho_v)
    factor = _c(clamp_rho(rho))
    return raw, factor, factor * raw, raw < 0.0, ~((0.0 <= rho) & (rho <= 1.0))


def first_broken_rule(v_start, v_end, rho_s=None) -> Optional[tuple]:
    """(index, message) of the first ends in two arrays that check_ends, or
    voss_estimate of their ratio with rho_s, refuses; None if none.  Runs
    element by element: for error paths only."""
    for k, (start, end) in enumerate(zip(v_start.tolist(), v_end.tolist())):
        try:
            check_ends(start, end)
            voss_estimate(end / start, rho_s)
        except ValueError as exc:
            return k, str(exc)


def voss_corrected(seg: SegmentVoltages, params: CorrectionParams) -> LossEstimate:
    """One segment's raw drop (``voss_estimate`` of its ratio), times the
    factor ``voss_estimate`` gives the ratios in ``params``, with its
    flags; a flagged value is still reported."""
    _, factor, _, _, out_of_range = voss_estimate(params.rho_v, params.rho_s)
    raw, _, _, negative, _ = voss_estimate(seg.v_end / seg.v_start)
    flags = ((EstimateFlag.NEGATIVE_DROP, negative),
             (EstimateFlag.CORRECTION_OUT_OF_RANGE, out_of_range))
    return LossEstimate(float(factor * raw), frozenset(f for f, on in flags if on))
