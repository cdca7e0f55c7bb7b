"""Discretized uniform-extraction line vs the closed-form correction.

The oracle never uses the closed form internally, so agreement between
the two is evidence for the formula, and the convergence-rate check
pins the discretization down to its midpoint-rule order.
"""

import csv
import math

import pytest

from voss.estimator import correction_factor
from voss.line_oracle import (
    UniformLineModel,
    simulate_uniform_line,
    sweep_rho,
    write_sweep_csv,
)

RHOS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def make(rho, zeta=0.3 + 0.2j, i_in=1.0, length=1.0):
    return UniformLineModel(length=length, zeta=zeta, i_in=i_in, rho=rho)


def test_ratio_converges_to_closed_form():
    for rho in RHOS:
        result = simulate_uniform_line(make(rho), 10_000)
        c = correction_factor(rho)
        assert abs(result.ratio - c) / c <= 1e-3, f"rho={rho}"


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
def test_deviation_at_least_halves_when_n_doubles(rho):
    c = correction_factor(rho)
    n = 100
    prev = abs(simulate_uniform_line(make(rho), n).ratio - c)
    for _ in range(5):
        n *= 2
        cur = abs(simulate_uniform_line(make(rho), n).ratio - c)
        if prev < 1e-12:  # at the floating-point floor, rate is meaningless
            break
        assert cur <= 0.5 * prev + 1e-15, f"n={n}"
        prev = cur


def test_no_extraction_means_no_correction():
    result = simulate_uniform_line(make(0.0), 50)
    assert result.ratio == pytest.approx(1.0, abs=1e-12)
    assert result.i_out == pytest.approx(1.0, abs=1e-12)


def test_output_current_matches_extraction_fraction():
    for rho in (0.25, 0.5, 1.0):
        result = simulate_uniform_line(make(rho, i_in=2.0), 400)
        assert result.i_out == pytest.approx((1.0 - rho) * 2.0, abs=1e-12)


def test_voltage_profile_spans_line():
    model = make(0.5)
    result = simulate_uniform_line(model, 16)
    assert len(result.v_profile) == 17
    assert result.v_profile[0] == model.head_voltage()
    # magnitude drops along the run for an impedance with positive real part
    mags = [abs(v) for v in result.v_profile]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_results_compare_and_hash_without_the_profile():
    a = simulate_uniform_line(make(0.5), 16)
    b = simulate_uniform_line(make(0.5), 16)
    assert a == b and hash(a) == hash(b)
    assert a != simulate_uniform_line(make(0.4), 16)
    assert not a.v_profile.flags.writeable


def test_ratio_invariant_under_scaling():
    base = simulate_uniform_line(make(0.4), 500).ratio
    for zeta, i_in, length in [
        (3.0 + 2.0j, 1.0, 1.0),
        (0.3 + 0.2j, 7.5, 1.0),
        (0.03 + 0.02j, 2.0, 10.0),
    ]:
        scaled = simulate_uniform_line(
            UniformLineModel(length=length, zeta=zeta, i_in=i_in, rho=0.4), 500
        ).ratio
        assert scaled == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(length=0.0, zeta=1 + 1j, i_in=1.0, rho=0.5),
        dict(length=1.0, zeta=0j, i_in=1.0, rho=0.5),
        dict(length=1.0, zeta=1 + 1j, i_in=0.0, rho=0.5),
        dict(length=1.0, zeta=1 + 1j, i_in=1.0, rho=1.5),
        dict(length=math.inf, zeta=1 + 1j, i_in=1.0, rho=0.5),
    ],
)
def test_model_rejects_degenerate_parameters(kwargs):
    with pytest.raises(ValueError):
        UniformLineModel(**kwargs)


def test_sweep_rows_and_csv_round_trip(tmp_path):
    rows = sweep_rho(RHOS, 2_000)
    assert [r.rho for r in rows] == RHOS
    for row in rows:
        assert row.deviation == pytest.approx(
            abs(row.oracle_ratio - row.c_formula), abs=0.0
        )
        assert row.c_formula == pytest.approx(correction_factor(row.rho), abs=0.0)

    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    with path.open(newline="") as handle:
        parsed = list(csv.DictReader(handle))
    assert len(parsed) == len(rows)
    for got, row in zip(parsed, rows):
        assert float(got["rho"]) == row.rho
        assert float(got["oracle_ratio"]) == pytest.approx(row.oracle_ratio, rel=1e-10)
