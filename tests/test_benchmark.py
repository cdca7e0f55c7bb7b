"""Feeder-wide comparison studies: row inventory, exclusions, corrections."""

import math
from dataclasses import fields, replace

import pytest

from voss.benchmark import (
    COMPARISON_HEADER,
    excluded_lines,
    run_multi_segment_study,
    run_single_segment_study,
    solve_end_split,
    write_comparison_csv,
    write_plot_long_csv,
)
from voss.estimator import EstimateFlag, clamp_rho, correction_factor, rho_from_ratios
from voss.feeder import SegmentKind
from voss.powerflow import SolveOptions

STRESSED_PATHS = [("800", "814"), ("816", "822"), ("828", "854")]


def test_single_study_covers_every_line_phase(rows13, rows34):
    assert len(rows13) == 23
    assert len({r.line_or_path for r in rows13}) == 10
    assert len(rows34) == 74
    assert len({r.line_or_path for r in rows34}) == 30
    assert all(r.feeder == "ieee13" for r in rows13)
    assert all(r.feeder == "ieee34" for r in rows34)


def test_near_zero_lines_are_fully_excluded(rows13, rows34):
    assert excluded_lines(rows13) == ["671-680"]
    assert excluded_lines(rows34) == ["854-856", "858-864"]
    for row in rows13 + rows34:
        if row.line_or_path in ("671-680", "854-856", "858-864"):
            assert row.excluded
            assert row.reason == EstimateFlag.NEAR_ZERO_POWER.value
            assert math.isnan(row.abs_error)


def test_exclusion_is_per_phase_not_per_line(rows34):
    by_phase = {r.phase: r for r in rows34 if r.line_or_path == "836-862"}
    assert by_phase["A"].excluded and by_phase["C"].excluded
    assert not by_phase["B"].excluded
    # dead phases carry no usable power ratio either
    assert math.isnan(by_phase["A"].c_hat)
    assert math.isnan(by_phase["A"].rho_s)
    assert not math.isnan(by_phase["B"].c_hat)
    assert "836-862" not in excluded_lines(rows34)


def test_voltage_rise_rows_are_annotated(rows13, rows34):
    negative = EstimateFlag.NEGATIVE_DROP.value
    neg13 = {(r.line_or_path, r.phase) for r in rows13 if r.reason == negative}
    neg34 = {(r.line_or_path, r.phase) for r in rows34 if r.reason == negative}
    assert neg13 == {("632-671", "B"), ("692-675", "B")}
    assert neg34 == {
        ("844-846", "A"),
        ("844-846", "C"),
        ("846-848", "A"),
        ("846-848", "B"),
        ("846-848", "C"),
    }
    for row in rows13 + rows34:
        if row.reason == negative:
            assert row.voss_single < 0.0
            assert not row.excluded
        elif not row.excluded:
            assert row.reason == ""
            assert row.voss_single >= 0.0


def test_correction_factor_stays_in_proven_band(rows13, rows34):
    for row in rows13 + rows34:
        if math.isnan(row.c_hat):
            continue
        assert 2.0 / 3.0 <= row.c_hat <= 1.0
        assert row.voss_corrected == row.c_hat * row.voss_single


def test_angle_bound_covers_sagging_rows(rows13, rows34, solved13, solved34):
    # |v1 - v2|/|v1| vs 1 - |v2|/|v1|: the bound is proven only when the
    # magnitude does not rise, so annotated rise rows are out of scope
    for rows, sol in ((rows13, solved13), (rows34, solved34)):
        for row in rows:
            if row.excluded or row.voss_single < 0.0:
                continue
            flow = sol.segment_flows[row.line_or_path]
            k = flow.phases.index(row.phase)
            exact = abs(flow.v_from[k] - flow.v_to[k]) / abs(flow.v_from[k])
            assert abs(exact - row.voss_single) <= row.angle_bound + 1e-12


def test_multi_study_emits_shared_phase_rows(ieee34_stressed, solved34_stressed):
    rows = run_multi_segment_study(
        ieee34_stressed, STRESSED_PATHS, solution=solved34_stressed
    )
    assert [(r.line_or_path, r.phase) for r in rows] == [
        ("800-814", "A"),
        ("800-814", "B"),
        ("800-814", "C"),
        ("816-822", "A"),
        ("828-854", "A"),
        ("828-854", "B"),
        ("828-854", "C"),
    ]
    for row in rows:
        assert not row.excluded
        assert math.isfinite(row.rho_s)
        assert row.c_hat <= 1.0


def test_external_rho_estimate_overrides_simulated(ieee34_stressed, solved34_stressed):
    rows = run_multi_segment_study(
        ieee34_stressed,
        [("800", "814")],
        rho_s=0.5,
        solution=solved34_stressed,
    )
    for row in rows:
        assert row.rho_s == 0.5
        expected = correction_factor(clamp_rho(rho_from_ratios(0.5, row.rho_v)))
        assert row.c_hat == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("rho_s", [1.5, -0.1, math.nan])
def test_rho_s_estimate_must_lie_in_unit_interval(
    ieee34_stressed, solved34_stressed, rho_s
):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        run_multi_segment_study(
            ieee34_stressed, [("800", "814")], rho_s=rho_s, solution=solved34_stressed
        )


def test_multi_study_rejects_unknown_nodes(ieee13, solved13):
    with pytest.raises(KeyError, match="unknown node"):
        run_multi_segment_study(ieee13, [("650", "nope")], solution=solved13)


def test_comparison_csv_round_trip_format(rows13, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_comparison_csv(rows13, a)
    write_comparison_csv(rows13, b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == ",".join(COMPARISON_HEADER)
    assert len(lines) == 1 + len(rows13)
    excluded = [ln for ln in lines[1:] if ",true," in ln]
    assert len(excluded) == 3
    assert all(ln.endswith(EstimateFlag.NEAR_ZERO_POWER.value) for ln in excluded)
    assert all(ln.split(",")[-2] in ("true", "false") for ln in lines[1:])


def test_plot_csv_is_long_format(rows13, tmp_path):
    path = tmp_path / "plot.csv"
    write_plot_long_csv(rows13, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "feeder,line_or_path,phase,series,value,excluded"
    assert len(lines) == 1 + 3 * len(rows13)
    series = {ln.split(",")[3] for ln in lines[1:]}
    assert series == {"voss_single", "voss_corrected", "true_loss"}


@pytest.mark.parametrize(
    "feeder,solved",
    [
        ("ieee13", "solved13"),
        ("ieee34", "solved34"),
        ("ieee34_stressed", "solved34_stressed"),
    ],
)
def test_one_segment_paths_match_single_study(request, feeder, solved):
    model = request.getfixturevalue(feeder)
    sol = request.getfixturevalue(solved)
    single = run_single_segment_study(model, solution=sol)
    lines = [s for s in model.segments if s.kind == SegmentKind.LINE]
    paths = run_multi_segment_study(
        model, [(s.from_node, s.to_node) for s in lines], solution=sol
    )
    assert len(paths) == len(single)
    for path_row, row in zip(paths, single):
        relabelled = replace(path_row, line_or_path=row.line_or_path)
        for field in fields(row):
            got, want = getattr(relabelled, field.name), getattr(row, field.name)
            assert got == want or (got != got and want != want), field.name


def test_rows_follow_the_head_segment_phase_order(two_bus):
    model = two_bus(
        kw=[30.0, 20.0], kvar=[10.0, 5.0], r_ohm=0.4, x_ohm=0.8, phases="CA"
    )
    sol = solve_end_split(model, SolveOptions())
    single = run_single_segment_study(model, solution=sol)
    paths = run_multi_segment_study(model, [("src", "end")], solution=sol)
    for rows in (single, paths):
        assert [r.phase for r in rows] == ["C", "A"]
        for row in rows:
            v_src, v_end = sol.voltage("src", row.phase), sol.voltage("end", row.phase)
            assert row.voss_single == 1.0 - abs(v_end) / abs(v_src)
