"""Estimator identities, bounds, and flag behavior.

The exact loss fraction has an independent law-of-cosines oracle, and
the small-angle error bound is checked on its proven domain (end
magnitude at or below start magnitude) plus a counterexample showing
why rising-voltage pairs are outside it.
"""

import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from voss.estimator import (
    CorrectionParams,
    EstimateFlag,
    SegmentVoltages,
    angle,
    clamp_rho,
    correction_factor,
    correction_factor_hat,
    first_broken_rule,
    loss_fraction_exact,
    magnitude,
    rho_from_ratios,
    small_angle_error_bound,
    voss_corrected,
    voss_estimate,
    voss_single,
)

magnitudes = st.floats(min_value=1e-2, max_value=1e4)
angles = st.floats(min_value=-math.pi, max_value=math.pi)


def test_drop_fraction_from_magnitudes():
    assert voss_single(SegmentVoltages(240.0, 228.0)) == pytest.approx(0.05, abs=1e-12)


def test_equal_endpoints_give_exact_zero():
    assert voss_single(SegmentVoltages(233.7, 233.7)) == 0.0


def test_negative_drop_reported_not_clamped():
    value = voss_single(SegmentVoltages(228.0, 240.0))
    assert value == pytest.approx(1.0 - 240.0 / 228.0, abs=1e-15)
    assert value < 0.0


@pytest.mark.parametrize(
    "v_start,v_end",
    [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.1), (math.nan, 1.0), (1.0, math.inf)],
)
def test_segment_voltages_rejects_bad_values(v_start, v_end):
    with pytest.raises(ValueError):
        SegmentVoltages(v_start, v_end)


@given(
    mag=magnitudes,
    theta=angles,
    r=st.floats(min_value=1e-3, max_value=3.0),
    delta=angles,
)
@example(mag=1.0, theta=0.0, r=1.0, delta=1e-8)
def test_exact_loss_matches_law_of_cosines(mag, theta, r, delta):
    v1 = cmath.rect(mag, theta)
    v2 = cmath.rect(mag * r, theta + delta)
    # 1 + r^2 - 2r cos(delta) rewritten without its cancellation at r ~ 1,
    # delta ~ 0, where the textbook form rounds tiny drops to zero
    expected = math.sqrt((1.0 - r) ** 2 + 4.0 * r * math.sin(delta / 2.0) ** 2)
    assert loss_fraction_exact(v1, v2) == pytest.approx(expected, rel=1e-9, abs=1e-12)


@given(
    mag=magnitudes,
    theta=angles,
    r=st.floats(min_value=0.0, max_value=3.0),
    delta=angles,
)
def test_exact_loss_never_below_magnitude_only_drop(mag, theta, r, delta):
    # |1 - r e^{j d}| >= |1 - r|: with angle information the drop can
    # only grow, so the magnitude-only estimate cannot overshoot the
    # exact value on a tap-free segment.
    v1 = cmath.rect(mag, theta)
    v2 = cmath.rect(mag * r, theta + delta)
    assert loss_fraction_exact(v1, v2) >= abs(1.0 - r) - 1e-12


@given(
    mag=magnitudes,
    theta=angles,
    r=st.floats(min_value=1e-3, max_value=1.0),
    delta_deg=st.floats(min_value=-3.0, max_value=3.0),
)
def test_angle_error_bound_holds_when_voltage_does_not_rise(mag, theta, r, delta_deg):
    v1 = cmath.rect(mag, theta)
    v2 = cmath.rect(mag * r, theta + math.radians(delta_deg))
    voss = voss_single(SegmentVoltages(abs(v1), abs(v2)))
    gap = abs(loss_fraction_exact(v1, v2) - voss)
    assert gap <= small_angle_error_bound(v1, v2) + 1e-12


def test_angle_error_bound_fails_for_rising_voltage():
    # The bound's derivation needs v_end <= v_start.  With a 5% rise and
    # a 3 degree swing the gap exceeds the formula, which is why
    # rising-voltage rows are flagged instead of bound-checked.
    v1 = 1.0 + 0j
    v2 = cmath.rect(1.05, math.radians(3.0))
    gap = abs(loss_fraction_exact(v1, v2) - voss_single(SegmentVoltages(1.0, 1.05)))
    assert gap > small_angle_error_bound(v1, v2)


@pytest.mark.parametrize("function", [loss_fraction_exact, small_angle_error_bound])
def test_phasor_forms_reject_a_zero_start(function):
    with pytest.raises(ValueError, match="v_start must be nonzero"):
        function(0j, 1.0 + 0j)


def test_bound_uses_end_to_start_ratio():
    v1 = 2.0 + 0j
    v2 = cmath.rect(1.0, math.radians(2.0))
    expected = 2.0 * 0.5 * abs(math.sin(math.radians(1.0)))
    assert small_angle_error_bound(v1, v2) == pytest.approx(expected, rel=1e-12)


def test_correction_factor_endpoints():
    assert correction_factor(0.0) == 1.0
    assert correction_factor(1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("rho", [-0.01, 1.01, math.nan])
def test_correction_factor_rejects_out_of_domain(rho):
    with pytest.raises(ValueError):
        correction_factor(rho)


@given(a=st.floats(min_value=0.0, max_value=1.0), b=st.floats(min_value=0.0, max_value=1.0))
def test_correction_factor_monotone_and_bounded(a, b):
    lo, hi = sorted((a, b))
    c_lo, c_hi = correction_factor(lo), correction_factor(hi)
    assert c_hi <= c_lo + 1e-12
    assert 2.0 / 3.0 - 1e-12 <= c_hi <= 1.0 + 1e-12


@given(
    rho_v=st.floats(min_value=1e-6, max_value=1.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_hat_form_equals_leakage_form(rho_v, frac):
    # The measurable-ratio form must be the same polynomial as the
    # leakage-fraction form after substituting rho = 1 - rho_s/rho_v.
    rho_s = rho_v * frac
    hat = correction_factor_hat(CorrectionParams(rho_s=rho_s, rho_v=rho_v))
    direct = correction_factor(clamp_rho(rho_from_ratios(rho_s, rho_v)))
    assert hat == pytest.approx(direct, abs=1e-12)


def test_rho_from_ratios_is_unclamped():
    assert rho_from_ratios(1.2, 1.0) == pytest.approx(-0.2, abs=1e-15)
    assert clamp_rho(rho_from_ratios(1.2, 1.0)) == 0.0
    assert clamp_rho(2.5) == 1.0


def test_ratio_forms_reject_degenerate_inputs():
    with pytest.raises(ValueError):
        rho_from_ratios(0.5, 0.0)
    with pytest.raises(ValueError):
        correction_factor_hat(CorrectionParams(rho_s=-0.1, rho_v=0.9))
    with pytest.raises(ValueError):
        correction_factor_hat(CorrectionParams(rho_s=0.5, rho_v=-1.0))


def test_corrected_estimate_scales_raw_drop():
    seg = SegmentVoltages(240.0, 228.0)
    params = CorrectionParams(rho_s=0.8, rho_v=0.95)
    est = voss_corrected(seg, params)
    c_hat = correction_factor_hat(params)
    assert est.loss_fraction == pytest.approx(c_hat * voss_single(seg), abs=0.0)
    assert not est.flags


def test_corrected_estimate_flags_negative_drop():
    est = voss_corrected(SegmentVoltages(228.0, 240.0), CorrectionParams(0.9, 0.95))
    assert est.has_flag(EstimateFlag.NEGATIVE_DROP)
    assert est.loss_fraction < 0.0


def test_corrected_estimate_flags_out_of_range_leakage():
    # rho_s above rho_v implies negative inferred extraction: the model
    # does not fit, but the number is still reported.
    est = voss_corrected(SegmentVoltages(240.0, 228.0), CorrectionParams(0.99, 0.95))
    assert est.has_flag(EstimateFlag.CORRECTION_OUT_OF_RANGE)
    assert math.isfinite(est.loss_fraction)


def test_out_of_range_leakage_gets_the_clamped_factor():
    # below the range the factor is exactly 1, so the estimate is the raw
    # drop; above it (rho_s < 0, reverse power at the tail) it is c(1)
    seg = SegmentVoltages(240.0, 228.0)
    below = voss_corrected(seg, CorrectionParams(rho_s=0.99, rho_v=0.95))
    assert below.loss_fraction == voss_single(seg)
    assert below.flags == {EstimateFlag.CORRECTION_OUT_OF_RANGE}
    above = voss_corrected(seg, CorrectionParams(rho_s=-0.2, rho_v=0.95))
    assert above.loss_fraction == correction_factor(1.0) * voss_single(seg)
    assert above.flags == {EstimateFlag.CORRECTION_OUT_OF_RANGE}


@given(
    rho_s=st.floats(min_value=-2.0, max_value=2.0),
    rho_v=st.floats(min_value=1e-3, max_value=1.5),
)
def test_clamped_correction_is_the_closed_form_of_the_clamped_fraction(rho_s, rho_v):
    _, factor, _, _, out_of_range = voss_estimate(rho_v, rho_s)
    rho = rho_from_ratios(rho_s, rho_v)
    assert factor == correction_factor(clamp_rho(rho))
    assert out_of_range == (not 0.0 <= rho <= 1.0)
    _, array_factor, _, _, array_mask = voss_estimate(np.array([rho_v]), np.array([rho_s]))
    assert array_factor[0] == factor and array_mask[0] == out_of_range


def test_clamped_correction_passes_nan_and_rejects_bad_voltage_ratio():
    assert math.isnan(voss_estimate(0.95, math.nan)[1])
    for rho_v in (0.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="rho_v"):
            voss_estimate(rho_v, 0.5)


@given(
    rho_v=st.floats(min_value=1e-3, max_value=1.5),
    rho_s=st.one_of(st.none(), st.floats(min_value=-2.0, max_value=2.0)),
)
def test_estimate_policy_has_the_same_bits_on_floats_and_arrays(rho_v, rho_s):
    # (raw drop, factor, loss, NEGATIVE_DROP mask, CORRECTION_OUT_OF_RANGE mask)
    scalar = voss_estimate(rho_v, rho_s)
    array = voss_estimate(np.array([rho_v]), rho_s)
    for got, want in zip(array, scalar):
        assert np.broadcast_to(got, (1,))[0] == want
    raw, factor, loss, negative, out_of_range = scalar
    assert raw == 1.0 - rho_v and negative == (raw < 0.0)
    if rho_s is None:
        # no correction: the raw drop itself, not a product with 1
        assert (factor, out_of_range) == (1.0, False) and array[2] is array[0]
    else:
        rho = rho_from_ratios(rho_s, rho_v)
        assert factor == correction_factor(clamp_rho(rho))
        assert out_of_range == (not 0.0 <= rho <= 1.0) and loss == factor * raw


def test_corrected_estimate_takes_the_correction_ratio_from_its_params():
    # the drop is the segment's; the factor is that of the params' rho_v
    seg = SegmentVoltages(240.0, 228.0)
    est = voss_corrected(seg, CorrectionParams(rho_s=0.5, rho_v=0.8))
    factor = voss_estimate(0.8, 0.5)[1]
    assert est.loss_fraction == factor * voss_single(seg) and not est.flags


def _float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


ends = {
    "v_start": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "v_end": st.floats(min_value=0.0, allow_infinity=False),
}


@given(
    **ends,
    rho_s=st.one_of(st.none(), st.just(math.nan), st.floats(min_value=-2.0, max_value=2.0)),
    rho_v=st.floats(min_value=0.0, max_value=1.5, exclude_min=True),
)
@example(v_start=240.0, v_end=228.0, rho_s=0.99, rho_v=0.95)
@example(v_start=228.0, v_end=240.0, rho_s=-0.2, rho_v=0.95)
@example(v_start=1.0, v_end=0.0, rho_s=math.nan, rho_v=5e-324)
def test_corrected_estimate_is_the_clamped_closed_form_bit_for_bit(v_start, v_end, rho_s, rho_v):
    # the drop is the segment's own; the factor is that of the params'
    # ratios, whatever the segment's ratio; both written out here
    with np.errstate(over="ignore"):  # rho_s / rho_v may overflow to inf
        est = voss_corrected(SegmentVoltages(v_start, v_end), CorrectionParams(rho_s, rho_v))
    raw = 1.0 - v_end / v_start
    if rho_s is None:
        factor, out_of_range = 1.0, False
    else:
        rho = 1.0 - rho_s / rho_v
        clamped = min(max(rho, 0.0), 1.0)
        factor = 1.0 - clamped * (3.0 - 2.0 * clamped) / (6.0 - 3.0 * clamped)
        out_of_range = not 0.0 <= rho <= 1.0
    assert _float_bits(est.loss_fraction) == _float_bits(factor * raw)
    assert est.has_flag(EstimateFlag.NEGATIVE_DROP) == (raw < 0.0)
    assert est.has_flag(EstimateFlag.CORRECTION_OUT_OF_RANGE) == out_of_range
    assert len(est.flags) == (raw < 0.0) + out_of_range


@given(
    **ends,
    rho_s=st.one_of(st.just(math.nan), st.floats(min_value=-2.0, max_value=2.0)),
    rho_v=st.one_of(st.just(math.nan), st.floats(max_value=0.0)),
)
def test_corrected_estimate_rejects_a_params_voltage_ratio_not_above_zero(
        v_start, v_end, rho_s, rho_v):
    with pytest.raises(ValueError, match="rho_v must be > 0"):
        voss_corrected(SegmentVoltages(v_start, v_end), CorrectionParams(rho_s, rho_v))


def test_first_broken_rule_names_the_first_ends_a_rule_refuses():
    # a 0 V end passes the ends' rule but breaks the ratio's once rho_s is given
    v_start, v_end = np.array([1.0, 2.0, 0.0, 2.0]), np.array([0.5, 0.0, 1.0, 1.0])
    assert first_broken_rule(v_start, v_end) == (2, "v_start must be finite and > 0, got 0.0")
    assert first_broken_rule(v_start, v_end, 0.5) == (1, "rho_v must be > 0, got 0.0")
    assert first_broken_rule(v_start[:2], v_end[:2]) is None


@given(st.lists(st.tuples(
    st.builds(cmath.rect, magnitudes, angles),
    st.one_of(st.just(0j), st.builds(cmath.rect, magnitudes, angles)),
), min_size=1, max_size=10))
def test_angle_bound_takes_complex_arrays_element_by_element(pairs):
    v1, v2 = (np.array(column, dtype=complex) for column in zip(*pairs))
    bounds = small_angle_error_bound(v1, v2)
    assert bounds.tolist() == [float(small_angle_error_bound(a, b)) for a, b in pairs]
    with pytest.raises(ValueError, match="v_start must be nonzero"):
        small_angle_error_bound(np.append(v1, 0j), np.append(v2, 1.0))


PAYLOAD_NAN = float(np.array([0x7FF8000000000001]).view(np.float64)[0])


@given(st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), max_size=40))
@example([complex(0.0, PAYLOAD_NAN), complex(1.27e308, 1.27e308),
          complex(5.258254097303389e71, 1.2989613532907898e-252)])
def test_magnitude_and_angle_keep_the_bits_of_abs_and_phase(values):
    # the studies and the solver's outputs rest on these bits (see their
    # docstrings); a NaN's payload is not kept, and no output shows it
    def bits(x):
        return np.where(np.isnan(x), np.nan, x).tobytes()

    def size(x):  # abs() raises where |x| overflows, and magnitude gives inf
        try:
            return abs(x)
        except OverflowError:
            return math.inf

    z = np.array(values, dtype=complex)
    with np.errstate(over="ignore"):
        assert bits(magnitude(z)) == bits(np.array([size(x) for x in values]))
    try:
        phases = np.array([cmath.phase(x) for x in values], dtype=float)
    except OverflowError:  # cmath.phase of 5.3e71+1.3e-252j: the angle underflows
        with pytest.raises(OverflowError):
            angle(z)
    else:
        assert bits(angle(z)) == bits(phases)
