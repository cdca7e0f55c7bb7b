"""Feeder-wide comparison studies: row inventory, exclusions, corrections."""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_powerflow import RESIDUAL, REWRITES, _bits, radial_feeders
from voss.benchmark import (
    COMPARISON_HEADER,
    NEAR_ZERO_POWER_FRACTION,
    ComparisonRow,
    excluded_lines,
    run_multi_segment_study,
    run_single_segment_study,
    solve_end_split,
    write_comparison_csv,
    write_plot_long_csv,
)
from voss.estimator import (
    EstimateFlag,
    clamp_rho,
    clamped_correction,
    correction_factor,
    rho_from_ratios,
    small_angle_error_bound,
)
from voss.feeder import SegmentKind, parse_feeder_dict
from voss.powerflow import SolveOptions, solve

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
    with pytest.raises(ValueError, match="unknown node"):
        run_multi_segment_study(ieee13, [("650", "nope")], solution=solved13)


@pytest.mark.parametrize(
    "head,tail,message",
    [("650", "650", "has no segments"), ("671", "650", "not downstream")],
    ids=["same-node", "upstream-tail"],
)
def test_paths_without_segments_are_rejected(ieee13, solved13, head, tail, message):
    with pytest.raises(ValueError, match=message):
        run_multi_segment_study(ieee13, [(head, tail)], solution=solved13)


def test_path_loss_counts_only_series_dissipation(ieee13, solved13):
    segs = ieee13.path_segments("650", "671")
    assert [s.id for s in segs] == ["650-632", "632-671"]
    rows = run_multi_segment_study(ieee13, [("650", "671")], solution=solved13)
    row = next(r for r in rows if r.phase == "A")
    # complex series dissipation: its magnitude is the quantity a sag
    # ratio estimates, unlike the real-power-only fraction; the load
    # tapped at 632 is not loss
    per_seg = sum(solved13.segment_flows[s.id].loss("A") for s in segs)
    s_in = solved13.segment_flows["650-632"].s_from[0]
    assert row.true_loss == pytest.approx(abs(per_seg) / abs(s_in), rel=1e-9)
    s_out = solved13.segment_flows["632-671"].s_to[0]
    assert row.true_loss < abs(s_in - s_out) / abs(s_in)
    assert not row.excluded


def test_dead_phase_yields_nan_true_loss(rows34):
    # A and C exist on 836-862 but feed nothing downstream
    rows = [r for r in rows34 if r.line_or_path == "836-862"]
    assert [r.phase for r in rows] == ["A", "B", "C"]
    for row in rows:
        dead = row.phase in "AC"
        assert row.excluded == dead
        assert math.isnan(row.true_loss) == dead


def test_zero_input_power_is_near_zero_at_any_threshold(ieee13, solved13):
    # 671-680 feeds nothing: with a zero threshold its phases are still
    # excluded, with NaN loss, instead of dividing zero by zero
    rows = run_single_segment_study(ieee13, solution=solved13, near_zero_fraction=0.0)
    dead = [r for r in rows if r.line_or_path == "671-680"]
    assert [r.phase for r in dead] == ["A", "B", "C"]
    for row in dead:
        assert row.excluded
        assert row.reason == EstimateFlag.NEAR_ZERO_POWER.value
        assert math.isnan(row.true_loss) and math.isnan(row.abs_error)
    assert not any(r.excluded for r in rows if r.line_or_path != "671-680")


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


# Study oracle: the path comparison as it ran before the array study, one
# path and one phase at a time in Python floats, on the same solution.
# Every field of every row must have the same bits, NaN payloads too.


def _scalar_compare_path(solution, label, segs, near_zero_fraction, rho_s):
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
        rows.append(ComparisonRow(
            model.name, label, ph, voss, c_hat, corrected, true_loss, abs_error,
            small_angle_error_bound(v1, v2), row_rho_s, rho_v, excluded, reason))
    return rows


def _scalar_single(model, solution, near_zero_fraction=NEAR_ZERO_POWER_FRACTION):
    return [row for seg in model.segments if seg.kind == SegmentKind.LINE
            for row in _scalar_compare_path(solution, seg.id, [seg], near_zero_fraction, None)]


def _scalar_multi(model, paths, solution, rho_s=None):
    return [row for head, tail in paths for row in _scalar_compare_path(
        solution, f"{head}-{tail}", model.path_segments(head, tail),
        NEAR_ZERO_POWER_FRACTION, rho_s)]


def _assert_same_rows(got, want):
    assert len(got) == len(want)
    for row, oracle in zip(got, want):
        for f in fields(ComparisonRow):
            a, b = getattr(row, f.name), getattr(oracle, f.name)
            assert type(a) is type(b) and _bits(a) == _bits(b), (oracle, f.name)


@pytest.mark.parametrize("feeder,solved", [
    ("ieee13", "solved13"), ("ieee34", "solved34"), ("ieee34_stressed", "solved34_stressed"),
])
def test_array_study_matches_the_scalar_oracle_on_bundled_feeders(request, feeder, solved):
    model, sol = request.getfixturevalue(feeder), request.getfixturevalue(solved)
    _assert_same_rows(run_single_segment_study(model, solution=sol), _scalar_single(model, sol))
    for fraction in (0.0, 0.05):
        _assert_same_rows(
            run_single_segment_study(model, solution=sol, near_zero_fraction=fraction),
            _scalar_single(model, sol, fraction))


@pytest.mark.parametrize("rho_s", [None, 0.7, 0.0, 1.0])
def test_array_study_matches_the_scalar_oracle_on_stressed_paths(
    ieee34_stressed, solved34_stressed, rho_s
):
    got = run_multi_segment_study(
        ieee34_stressed, STRESSED_PATHS, rho_s=rho_s, solution=solved34_stressed)
    _assert_same_rows(got, _scalar_multi(ieee34_stressed, STRESSED_PATHS, solved34_stressed, rho_s))


@settings(max_examples=30, deadline=None)
@given(radial_feeders(), st.data())
def test_array_study_matches_the_scalar_oracle_on_random_paths(doc, data):
    model = parse_feeder_dict(doc)
    for rewrite in REWRITES:
        spot = rewrite(model)
        sol = solve(spot, RESIDUAL)
        _assert_same_rows(run_single_segment_study(spot, solution=sol), _scalar_single(spot, sol))
        # a tail anywhere and a head any number of levels above it
        paths = []
        for _ in range(data.draw(st.integers(1, 8))):
            chain = [data.draw(st.sampled_from([n.id for n in spot.nodes[1:]]))]
            while spot.segment_into(chain[-1]) is not None:
                chain.append(spot.segment_into(chain[-1]).from_node)
            paths.append((data.draw(st.sampled_from(chain[1:])), chain[0]))
        for rho_s in (None, data.draw(st.sampled_from([0.0, 0.35, 1.0]))):
            got = run_multi_segment_study(spot, paths, rho_s=rho_s, solution=sol)
            _assert_same_rows(got, _scalar_multi(spot, paths, sol, rho_s))


def test_array_study_matches_the_scalar_oracle_at_zero_input_power(two_bus):
    model = two_bus(kw=[0.0, 0.0], kvar=[0.0, 0.0], r_ohm=0.4, x_ohm=0.8, phases="AB")
    sol = solve_end_split(model, SolveOptions())
    rows = run_single_segment_study(model, solution=sol)
    assert all(r.excluded and math.isnan(r.true_loss) and math.isnan(r.rho_s) for r in rows)
    _assert_same_rows(rows, _scalar_single(model, sol))
    paths = [("src", "end")]
    _assert_same_rows(run_multi_segment_study(model, paths, solution=sol),
                      _scalar_multi(model, paths, sol))


def test_collapsed_endpoint_fails_as_the_scalar_form_does(two_bus):
    model = two_bus(kw=[30.0, 20.0], kvar=[10.0, 5.0], r_ohm=0.4, x_ohm=0.8, phases="CA")
    sol = solve_end_split(model, SolveOptions())
    sol.slots.v[sol.slots.first["end"] + 1] = 0j  # phase A at the end node
    assert sol.voltage("end", "A") == 0j
    with pytest.raises(ValueError) as want:
        _scalar_single(model, sol)
    with pytest.raises(ValueError) as got:
        run_single_segment_study(model, solution=sol)
    assert str(got.value) == str(want.value) == "rho_v must be > 0, got 0.0"
    with pytest.raises(ValueError) as got:
        run_multi_segment_study(model, [("src", "end")], solution=sol)
    assert str(got.value) == str(want.value)
