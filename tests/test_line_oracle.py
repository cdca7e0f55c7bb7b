"""Discretized uniform-extraction line vs the closed-form correction.

The oracle's ratio never uses the closed form, so agreement between
the two is evidence for the formula, and the convergence-rate check
pins the discretization down to its midpoint-rule order.
"""

import csv
from unittest import mock

import pytest

from voss.estimator import correction_factor
from voss import line_oracle
from voss.line_oracle import sweep_rho, write_sweep_csv

RHOS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def ratio(rho, n):
    return sweep_rho([rho], n)[0].oracle_ratio


def test_ratio_converges_to_closed_form():
    for rho in RHOS:
        c = correction_factor(rho)
        assert abs(ratio(rho, 10_000) - c) / c <= 1e-3, f"rho={rho}"


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
def test_deviation_at_least_halves_when_n_doubles(rho):
    c = correction_factor(rho)
    n = 100
    prev = abs(ratio(rho, n) - c)
    for _ in range(5):
        n *= 2
        cur = abs(ratio(rho, n) - c)
        if prev < 1e-12:  # at the floating-point floor, rate is meaningless
            break
        assert cur <= 0.5 * prev + 1e-15, f"n={n}"
        prev = cur


def test_no_extraction_means_no_correction():
    assert ratio(0.0, 50) == pytest.approx(1.0, abs=1e-12)


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


def test_a_sweep_past_memory_is_a_value_error_naming_the_segment_count():
    # numpy raises MemoryError (its _ArrayMemoryError) for an allocation
    # the address space refuses; mocked here, so nothing is allocated
    with mock.patch.object(line_oracle.np, "arange", side_effect=MemoryError):
        with pytest.raises(ValueError) as exc:
            sweep_rho([0.1, 0.5], 10**12)
    assert str(exc.value) == "an oracle sweep of 1000000000000 segments does not fit in memory"
