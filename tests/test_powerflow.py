"""Sweep solver checks against closed-form two-bus solutions and invariants."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_bus_doc
from voss.estimator import EstimateFlag
from voss.feeder import (
    Connection,
    SegmentKind,
    expand_distributed_loads,
    parse_feeder_dict,
    serialize_feeder,
    split_distributed_loads_to_ends,
)
from voss.powerflow import (
    PowerFlowError,
    SolveOptions,
    loss_from_currents,
    path_segment_ids,
    solve,
    true_loss_fractions,
    write_flows_csv,
    write_voltages_csv,
)

TIGHT = SolveOptions(tol=1e-12)


def quartic_pq_voltage(p_w, q_var, r_ohm, x_ohm, vs):
    """Receiving-end |v| for one constant-PQ load behind Z, from the exact
    two-bus relation |vs|^2 |v|^2 = (|v|^2 + RP + XQ)^2 + (XP - RQ)^2."""
    b = 2.0 * (r_ohm * p_w + x_ohm * q_var) - vs * vs
    c = (r_ohm * r_ohm + x_ohm * x_ohm) * (p_w * p_w + q_var * q_var)
    disc = b * b - 4.0 * c
    assert disc > 0, "infeasible operating point"
    return math.sqrt((-b + math.sqrt(disc)) / 2.0)


def test_pq_load_matches_quartic_solution():
    model = parse_feeder_dict(two_bus_doc(kw=[150.0], kvar=[60.0], r_ohm=0.8, x_ohm=0.5))
    sol = solve(model, TIGHT)
    vs = 4.16e3 / math.sqrt(3.0)
    expected = quartic_pq_voltage(150e3, 60e3, 0.8, 0.5, vs)
    assert abs(sol.voltage("end", "A")) == pytest.approx(expected, rel=5e-10)


@settings(max_examples=40, deadline=None)
@given(
    kw=st.floats(5.0, 250.0),
    kvar=st.floats(0.0, 120.0),
    r=st.floats(0.05, 1.5),
    x=st.floats(0.02, 1.5),
)
def test_pq_quartic_holds_across_operating_points(kw, kvar, r, x):
    model = parse_feeder_dict(two_bus_doc(kw=[kw], kvar=[kvar], r_ohm=r, x_ohm=x))
    sol = solve(model, TIGHT)
    vs = 4.16e3 / math.sqrt(3.0)
    expected = quartic_pq_voltage(kw * 1e3, kvar * 1e3, r, x, vs)
    assert abs(sol.voltage("end", "A")) == pytest.approx(expected, rel=1e-9)


def test_constant_z_load_matches_linear_solution():
    # fixed admittance conj(S0)/v0^2 referenced to the nominal voltage,
    # so an off-nominal source separates v0 from vs
    model = parse_feeder_dict(
        two_bus_doc(kw=[120.0], kvar=[50.0], r_ohm=0.6, x_ohm=0.9,
                    model="z", source_pu=1.03)
    )
    sol = solve(model, TIGHT)
    v0 = 4.16e3 / math.sqrt(3.0)
    vs = 1.03 * v0
    y = complex(120e3, -50e3) / (v0 * v0)
    expected = vs / (1.0 + complex(0.6, 0.9) * y)
    got = sol.voltage("end", "A")
    assert got == pytest.approx(expected, rel=1e-10)
    # drawn power scales with |v/v0|^2
    flow = sol.segment_flows["src-end"]
    assert flow.s_to[0] == pytest.approx(
        complex(120e3, 50e3) * abs(got / v0) ** 2, rel=1e-10
    )


def test_constant_i_load_holds_magnitude_and_pf_angle():
    model = parse_feeder_dict(
        two_bus_doc(kw=[90.0], kvar=[40.0], r_ohm=0.7, x_ohm=0.4,
                    model="i", source_pu=0.97)
    )
    sol = solve(model, TIGHT)
    v0 = 4.16e3 / math.sqrt(3.0)
    s0 = complex(90e3, 40e3)
    i = sol.segment_flows["src-end"].i_to[0]
    assert abs(i) == pytest.approx(abs(s0) / v0, rel=1e-10)
    v = sol.voltage("end", "A")
    assert cmath.phase(i) == pytest.approx(
        cmath.phase(v) - cmath.phase(s0), abs=1e-9
    )


def test_delta_branch_is_a_pure_phase_to_phase_transfer():
    model = parse_feeder_dict(
        two_bus_doc(kw=[50.0], kvar=[20.0], r_ohm=0.5, x_ohm=0.8,
                    conn="delta", phases="AB")
    )
    sol = solve(model, TIGHT)
    flow = sol.segment_flows["src-end"]
    ia, ib = flow.i_to
    assert ia == -ib  # KCL: one branch, nothing else at the node
    vab = sol.voltage("end", "A") - sol.voltage("end", "B")
    assert vab * ia.conjugate() == pytest.approx(complex(50e3, 20e3), rel=1e-10)


def test_no_load_feeder_stays_flat():
    model = parse_feeder_dict(two_bus_doc(kw=[0.0], kvar=[0.0], r_ohm=0.8, x_ohm=0.5))
    sol = solve(model)
    assert sol.iterations == 1
    assert sol.voltage("end", "A") == sol.voltage("src", "A")
    assert sol.total_loss_va == 0j
    assert sol.power_balance_residual_pu() == 0.0


def test_benchmark_feeders_converge_cleanly(solved13, solved34):
    for sol in (solved13, solved34):
        assert sol.iterations <= 15
        assert sol.max_mismatch < 1e-8
        assert sol.power_balance_residual_pu() < 1e-12
        assert sol.flags == ()
    assert abs(solved13.voltage_pu("650", "A")) == pytest.approx(1.0, rel=1e-12)


def test_tightening_tolerance_never_reduces_iterations(ieee13):
    model = split_distributed_loads_to_ends(ieee13)
    counts = [
        solve(model, SolveOptions(tol=tol)).iterations
        for tol in (1e-4, 1e-8, 1e-12)
    ]
    assert counts == sorted(counts)
    assert counts[0] < counts[-1]


def test_series_loss_matches_ihzi_on_every_segment(solved13, solved34):
    for sol in (solved13, solved34):
        base_va = sol.model.base.power_kva * 1e3
        for seg in sol.model.segments:
            if seg.kind != SegmentKind.LINE:
                continue
            flow = sol.segment_flows[seg.id]
            direct = loss_from_currents(sol, seg.id)
            assert abs(flow.loss_total() - direct) / base_va < 1e-9


def test_device_current_transfer_ratios(solved13, solved34):
    xfmr = solved13.segment_flows["633-634"]
    ratio = solved13.model.segment("633-634").ratio
    for i_from, i_to in zip(xfmr.i_from, xfmr.i_to):
        assert i_from == pytest.approx(i_to / ratio, rel=1e-12)

    reg = solved34.segment_flows["814-850"]
    taps = solved34.model.segment("814-850").taps
    for t, i_from, i_to in zip(taps, reg.i_from, reg.i_to):
        assert i_from == pytest.approx(t * i_to, rel=1e-12)

    line = solved13.segment_flows["632-645"]
    assert line.i_from == line.i_to


def test_zero_impedance_switch_passes_voltage_exactly(solved13):
    for ph in "ABC":
        assert solved13.voltage("671", ph) == solved13.voltage("692", ph)


def test_flow_endpoint_voltages_index_parent_phases(solved13):
    # 684 carries A and C; the C-only lateral must pick the right column
    flow = solved13.segment_flows["684-611"]
    assert flow.phases == "C"
    assert flow.v_from[0] == solved13.voltage("684", "C")
    assert flow.v_to[0] == solved13.voltage("611", "C")


def test_depressed_feeder_is_flagged_not_rejected(solved34_stressed):
    sol = solved34_stressed
    assert sol.max_mismatch < 1e-8
    collapse = EstimateFlag.VOLTAGE_COLLAPSE_SUSPECT.value
    assert any(f.startswith(collapse) for f in sol.flags)
    assert f"{collapse}:890.A" in sol.flags


def test_iteration_cap_raises_with_mismatch_trace(ieee13):
    model = split_distributed_loads_to_ends(ieee13)
    with pytest.raises(PowerFlowError, match="no convergence in 5 sweeps") as err:
        solve(model, SolveOptions(max_iter=5))
    assert len(err.value.trace) == 5
    assert all(math.isfinite(m) for m in err.value.trace)


def test_solve_rejects_unplaced_distributed_loads(ieee13):
    with pytest.raises(ValueError, match="distributed"):
        solve(ieee13)


def test_path_loss_counts_only_series_dissipation(solved13):
    ids = path_segment_ids(solved13.model, "650", "671")
    assert ids == ["650-632", "632-671"]
    est = true_loss_fractions(solved13, ids, "A")
    # complex series dissipation: its magnitude is the quantity a sag
    # ratio estimates, unlike the real-power-only fraction
    per_seg = sum(solved13.segment_flows[sid].loss("A") for sid in ids)
    s_in = solved13.segment_flows["650-632"].s_from[0]
    assert est.loss_fraction == pytest.approx(abs(per_seg) / abs(s_in), rel=1e-9)
    assert not est.flags


def test_path_validation_errors():
    # reuse a tiny model; the checks fire before any flow lookup
    model = parse_feeder_dict(two_bus_doc(kw=[10.0], kvar=[5.0], r_ohm=0.5, x_ohm=0.5))
    sol = solve(model)
    with pytest.raises(ValueError, match="empty path"):
        true_loss_fractions(sol, [], "A")
    with pytest.raises(ValueError, match="phase B"):
        true_loss_fractions(sol, ["src-end"], "B")


def test_non_contiguous_path_is_rejected(solved13):
    with pytest.raises(ValueError, match="not contiguous"):
        true_loss_fractions(solved13, ["650-632", "671-692"], "A")


def test_dead_phase_yields_nan_with_near_zero_flag(solved34):
    # A and C exist on 836-862 but feed nothing downstream
    for ph, dead in (("A", True), ("B", False), ("C", True)):
        est = true_loss_fractions(solved34, ["836-862"], ph)
        assert (EstimateFlag.NEAR_ZERO_POWER in est.flags) == dead
        assert math.isnan(est.loss_fraction) == dead


def test_csv_writers_are_deterministic(solved13, tmp_path):
    for writer, name, header in (
        (write_voltages_csv, "v.csv", "node,phase,magnitude_v,angle_deg"),
        (write_flows_csv, "f.csv", "segment,phase,p_in_kw,q_in_kvar,p_out_kw,q_out_kvar"),
    ):
        a, b = tmp_path / ("a" + name), tmp_path / ("b" + name)
        writer(solved13, a)
        writer(solved13, b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == header


def test_zero_input_power_is_near_zero_at_any_threshold(solved13):
    # 671-680 feeds nothing: with a zero threshold its phases are still
    # excluded, with NaN loss, instead of dividing zero by zero
    for ph in "ABC":
        est = true_loss_fractions(solved13, ["671-680"], ph, near_zero_fraction=0.0)
        assert est.has_flag(EstimateFlag.NEAR_ZERO_POWER)
        assert math.isnan(est.loss_fraction)


@pytest.mark.parametrize(
    "field,value",
    [("tol", math.nan), ("tol", math.inf), ("tol", -1.0), ("tol", 0.0),
     ("max_iter", 0), ("max_iter", -3)],
)
def test_solve_options_reject_values_that_cannot_converge(field, value):
    with pytest.raises(ValueError, match=field):
        SolveOptions(**{field: value})


def test_segment_phase_order_is_matched_by_name():
    # nodes list A then C; the segment lists C then A, and the load draws
    # on A only
    doc = two_bus_doc(kw=[30.0], kvar=[10.0], r_ohm=0.4, x_ohm=0.8, phases="CA")
    for node in doc["nodes"]:
        node["phases"] = "AC"
    doc["loads"][0].update(phases="A", kw=[30.0], kvar=[10.0])
    sol = solve(parse_feeder_dict(doc), TIGHT)
    flow = sol.segment_flows["src-end"]
    a, c = flow.phases.index("A"), flow.phases.index("C")
    assert flow.s_from[a].real / 1e3 == pytest.approx(30.07, abs=0.005)
    assert flow.s_from[c] == 0j and flow.s_to[c] == 0j
    assert flow.s_to[a] == pytest.approx(complex(30e3, 10e3), rel=1e-9)
    assert list(sol.node_voltages["end"]) == ["A", "C"]
    assert sol.voltage("end", "C") == sol.voltage("src", "C")

    # a capacitor's first entry belongs to the segment's first phase, C
    doc["segments"][0]["shunt_kvar"] = [50.0, 0.0]
    sol = solve(parse_feeder_dict(doc), TIGHT)
    flow = sol.segment_flows["src-end"]
    assert flow.s_to[c] == pytest.approx(complex(0.0, -50e3), rel=1e-9)
    assert flow.s_to[a] == pytest.approx(complex(30e3, 10e3), rel=1e-9)
    for k, ph in enumerate(flow.phases):
        assert flow.v_from[k] == sol.voltage("src", ph)
        assert flow.v_to[k] == sol.voltage("end", ph)
    assert abs(sol.voltage("end", "C")) > abs(sol.voltage("src", "C"))
    assert sol.power_balance_residual_pu() < 1e-12


def _reversed_segment_phases(model):
    """The same feeder with every multi-phase segment's phases reversed."""
    doc = serialize_feeder(model)
    for seg in doc["segments"]:
        if len(seg["phases"]) < 2:
            continue
        seg["phases"] = seg["phases"][::-1]
        if "z_ohm_per_mile" in seg:
            seg["z_ohm_per_mile"] = [row[::-1] for row in seg["z_ohm_per_mile"][::-1]]
        for key in ("taps", "shunt_kvar"):
            if key in seg:
                seg[key] = seg[key][::-1]
    return parse_feeder_dict(doc)


@pytest.mark.parametrize("feeder,solved", [("ieee13", "solved13"), ("ieee34", "solved34")])
def test_solution_is_invariant_under_segment_phase_order(request, feeder, solved):
    want = request.getfixturevalue(solved)
    model = _reversed_segment_phases(
        split_distributed_loads_to_ends(request.getfixturevalue(feeder))
    )
    assert any(s.phases != want.model.segment(s.id).phases for s in model.segments)
    _assert_same_state(solve(model), want)


def _assert_same_state(got, want):
    """Every node voltage and segment flow, read by phase name, within 1e-9."""

    def close(a, b):
        return abs(a - b) <= 1e-9 * abs(b)

    for node_id, volts in want.node_voltages.items():
        assert list(got.node_voltages[node_id]) == list(volts)
        for ph, u in volts.items():
            assert close(got.voltage(node_id, ph), u), (node_id, ph)
    for seg_id, flow in want.segment_flows.items():
        other = got.segment_flows[seg_id]
        for ph in flow.phases:
            j, k = other.phases.index(ph), flow.phases.index(ph)
            for name in ("v_from", "v_to", "i_from", "i_to", "s_from", "s_to"):
                a, b = getattr(other, name)[j], getattr(flow, name)[k]
                assert close(a, b), (seg_id, ph, name, a, b)


def _permuted_load_phases(model):
    """The same feeder with every load's phase string reordered: each
    multi-phase wye load rotated together with its kw/kvar, each two-phase
    delta load reversed ("AB" is the same branch as "BA")."""
    doc = serialize_feeder(model)
    for load in doc["loads"]:
        if len(load["phases"]) < 2:
            continue
        if load["conn"] == Connection.WYE.value:
            load["phases"] = load["phases"][1:] + load["phases"][:1]
            for key in ("kw", "kvar"):
                load[key] = load[key][1:] + load[key][:1]
        elif len(load["phases"]) == 2:
            load["phases"] = load["phases"][::-1]
    return parse_feeder_dict(doc)


@pytest.mark.parametrize("feeder,solved", [("ieee13", "solved13"), ("ieee34", "solved34")])
def test_solution_is_invariant_under_load_phase_order(request, feeder, solved):
    want = request.getfixturevalue(solved)
    model = _permuted_load_phases(
        split_distributed_loads_to_ends(request.getfixturevalue(feeder))
    )
    before = {ld.id: ld for ld in want.model.loads}
    moved = [ld for ld in model.loads if ld.phases != before[ld.id].phases]
    assert {ld.conn for ld in moved} == {Connection.WYE, Connection.DELTA}
    assert any(len(set(ld.kw)) > 1 for ld in moved)
    _assert_same_state(solve(model), want)


def test_load_at_the_source_node_is_supplied_by_the_source():
    doc = two_bus_doc(kw=[50.0], kvar=[20.0], r_ohm=0.5, x_ohm=0.8)
    doc["loads"].append(dict(doc["loads"][0], id="at-src", node="src", kw=[100.0]))
    sol = solve(parse_feeder_dict(doc), TIGHT)
    flow = sol.segment_flows["src-end"]
    at_src = sol.total_source_va - sum(flow.s_from)
    assert at_src == pytest.approx(complex(100e3, 20e3), rel=1e-12)
    assert sol.power_balance_residual_pu() < 1e-12


@pytest.mark.parametrize(
    "rewrite", [split_distributed_loads_to_ends, expand_distributed_loads]
)
def test_distributed_load_on_a_source_segment_balances(rewrite):
    # the end split puts half of this load on the source node
    doc = two_bus_doc(kw=[100.0], kvar=[40.0], r_ohm=0.6, x_ohm=0.9)
    del doc["loads"][0]["node"]
    doc["loads"][0]["segment"] = "src-end"
    sol = solve(rewrite(parse_feeder_dict(doc)), TIGHT)
    assert sol.total_load_va.real == pytest.approx(100e3, rel=1e-9)
    assert sol.power_balance_residual_pu() < 1e-12
