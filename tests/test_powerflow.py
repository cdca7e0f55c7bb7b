"""Sweep solver checks against closed-form two-bus solutions and invariants."""

import cmath
import functools
import json
import math
import struct
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_bus_doc
from voss import powerflow
from voss.benchmark import run_single_segment_study
from voss.estimator import (
    EstimateFlag,
    clamped_correction,
    loss_fraction_exact,
    voss_elementwise,
)
from voss.feeder import (
    Connection,
    LoadModel,
    SegmentKind,
    bundled_feeder_path,
    expand_distributed_loads,
    parse_feeder_dict,
    serialize_feeder,
    split_distributed_loads_to_ends,
)
from voss.powerflow import (
    PowerFlowError,
    SolveOptions,
    loss_from_currents,
    solve,
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_sweep_is_a_blow_up_not_a_nan_solution():
    # a constant-Z load far past what the line can carry makes the sweep
    # diverge until the voltages overflow into inf and NaN; a NaN update
    # must end the solve, not read as a zero mismatch
    model = parse_feeder_dict(
        two_bus_doc(kw=[1e7], kvar=[5e6], r_ohm=0.5, x_ohm=0.8, model="z")
    )
    with pytest.raises(PowerFlowError, match="numerical blow-up") as err:
        solve(model)
    assert not math.isfinite(err.value.trace[-1])
    assert all(math.isfinite(m) for m in err.value.trace[:-1])


def test_solve_rejects_unplaced_distributed_loads(ieee13):
    with pytest.raises(ValueError, match="distributed"):
        solve(ieee13)


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


@pytest.mark.parametrize(
    "rewrite", [split_distributed_loads_to_ends, expand_distributed_loads]
)
def test_bundled_feeders_converge_in_pinned_sweep_counts(
    rewrite, ieee13, ieee34, ieee34_stressed
):
    # a change to rounding or to the order of the sweep moves these
    got = [solve(rewrite(m)).iterations for m in (ieee13, ieee34, ieee34_stressed)]
    assert got == [9, 13, 93]


@pytest.mark.parametrize(
    "feeder,solved", [("ieee13", "solved13"), ("ieee34_stressed", "solved34_stressed")]
)
def test_converged_solution_keeps_its_mismatch_trace(request, feeder, solved):
    sol = request.getfixturevalue(solved)
    assert len(sol.trace) == sol.iterations
    assert sol.trace[-1] == sol.max_mismatch < SolveOptions().tol
    assert all(m >= SolveOptions().tol for m in sol.trace[:-1])
    # a capped solve fails on the same path
    model = split_distributed_loads_to_ends(request.getfixturevalue(feeder))
    with pytest.raises(PowerFlowError) as err:
        solve(model, SolveOptions(max_iter=sol.iterations - 1))
    assert err.value.trace == list(sol.trace[:-1])


# Residual oracle: the network equations checked from the converged
# voltages alone, with load and capacitor currents recomputed here from
# the feeder model instead of through the solver's tables.

RESIDUAL = SolveOptions(tol=1e-10, max_iter=1000)


def _load_current(model, s0, u, v0):
    """Current drawn by one wye phase or delta branch at voltage u."""
    if model is LoadModel.CONSTANT_PQ:
        return (s0 / u).conjugate()
    if model is LoadModel.CONSTANT_Z:
        return u / (v0 * v0 / s0.conjugate()) if s0 else 0j
    return abs(s0) / v0 * cmath.exp(1j * (cmath.phase(u) - cmath.phase(s0)))


def _transfer(seg):
    """Per-phase ratio k in i_from = k i_to and v_to = k v_from - Z i_to."""
    if seg.kind is SegmentKind.REGULATOR:
        return list(seg.taps)
    if seg.kind is SegmentKind.TRANSFORMER:
        return [1.0 / seg.ratio] * len(seg.phases)
    return [1.0] * len(seg.phases)


def assert_network_equations_hold(sol, limit=1e-8):
    """KVL on every segment, KCL at every node and i^H Z i on every
    segment, each in per unit, from the solution's node voltages."""
    model, v = sol.model, sol.node_voltages
    base_va = model.base.power_kva * 1e3
    order = model.bfs_segments()
    base = {model.source.node: model.source.nominal_kv_ll * 1e3 / math.sqrt(3.0)}
    for seg in order:
        ratio = seg.ratio if seg.kind is SegmentKind.TRANSFORMER else 1.0
        base[seg.to_node] = base[seg.from_node] / ratio
    assert base == sol.node_base_v

    drawn = {n.id: dict.fromkeys(n.phases, 0j) for n in model.nodes}
    for ld in model.loads:
        if ld.conn is Connection.WYE:
            pairs, v0 = [(p, None) for p in ld.phases], base[ld.node]
        else:
            pairs, v0 = ld.branches(), base[ld.node] * math.sqrt(3.0)
        for (p, q), kw, kvar in zip(pairs, ld.kw, ld.kvar):
            u = v[ld.node][p] - (v[ld.node][q] if q else 0j)
            i = _load_current(ld.model, complex(kw, kvar) * 1e3, u, v0)
            drawn[ld.node][p] += i
            if q:
                drawn[ld.node][q] -= i
    for seg in model.segments:
        for p, kvar in zip(seg.phases, seg.shunt_kvar or ()):
            drawn[seg.to_node][p] += (-1j * kvar * 1e3 / v[seg.to_node][p]).conjugate()

    # KCL from the leaves up: each segment's i_to from voltages alone
    i_to = {}
    fed = {n.id: dict(drawn[n.id]) for n in model.nodes}
    for seg in reversed(order):
        i_to[seg.id] = fed[seg.to_node]
        for p, k in zip(seg.phases, _transfer(seg)):
            fed[seg.from_node][p] += k * i_to[seg.id][p]

    for seg in order:
        z, k = seg.z_total(), _transfer(seg)
        flow = sol.segment_flows[seg.id]
        for j, p in enumerate(seg.phases):
            drop = sum(z[j][m] * i_to[seg.id][q] for m, q in enumerate(seg.phases))
            kvl = v[seg.to_node][p] - (k[j] * v[seg.from_node][p] - drop)
            assert abs(kvl) / base[seg.to_node] < limit, (seg.id, p, "KVL")
        # the solver's own currents balance at the to node
        out = dict(drawn[seg.to_node])
        for child in model.segments_from(seg.to_node):
            for p, i in zip(child.phases, sol.segment_flows[child.id].i_from):
                out[p] += i
        for p, i in zip(seg.phases, flow.i_to):
            kcl = i - out[p]
            assert abs(kcl) * base[seg.to_node] / base_va < limit, (seg.id, p, "KCL")
        loss = loss_from_currents(sol, seg.id) - flow.loss_total()
        assert abs(loss) / base_va < limit, (seg.id, "loss")


@pytest.mark.parametrize(
    "rewrite", [split_distributed_loads_to_ends, expand_distributed_loads]
)
@pytest.mark.parametrize("feeder", ["ieee13", "ieee34", "ieee34_stressed"])
def test_bundled_solutions_satisfy_the_network_equations(request, feeder, rewrite):
    model = rewrite(request.getfixturevalue(feeder))
    assert_network_equations_hold(solve(model, RESIDUAL))


def _constant_z(model):
    """The end-split model with every load constant-Z and no capacitor bank
    (the solver treats banks as constant-PQ), so its solution is linear."""
    model = split_distributed_loads_to_ends(model)
    return replace(
        model,
        segments=tuple(replace(seg, shunt_kvar=None) for seg in model.segments),
        loads=tuple(replace(ld, model=LoadModel.CONSTANT_Z) for ld in model.loads),
    )


def assert_linear_oracle_agrees(model, limit=1e-9):
    """Solve a constant-Z feeder without the sweep, as one dense modified
    nodal system, and compare with the sweep in per unit.

    The unknowns are the non-source node-phase voltages and the link
    currents i_to: one KVL row v_to = k v_from - Z i_to per link phase and
    one KCL row per node phase.  With the currents as unknowns a
    zero-impedance switch or an impedance-free regulator stays solvable."""
    src = model.source
    base = {src.node: src.nominal_kv_ll * 1e3 / math.sqrt(3.0)}
    for seg in model.bfs_segments():
        ratio = seg.ratio if seg.kind is SegmentKind.TRANSFORMER else 1.0
        base[seg.to_node] = base[seg.from_node] / ratio
    fixed = {
        (src.node, p): pu * base[src.node] * cmath.exp(1j * math.radians(deg))
        for p, pu, deg in zip("ABC", src.voltage_pu, src.angles_deg)
    }
    keys = [(n.id, p) for n in model.nodes if n.id != src.node for p in n.phases]
    volt = {key: k for k, key in enumerate(keys)}
    links = [(seg.id, p) for seg in model.segments for p in seg.phases]
    cur = {key: len(keys) + k for k, key in enumerate(links)}
    a = np.zeros((len(volt) + len(cur),) * 2, dtype=complex)
    b = np.zeros(len(volt) + len(cur), dtype=complex)

    def add(row, key, coeff):
        """coeff * v[key] on row; a source voltage moves to the right side."""
        if key in volt:
            a[row, volt[key]] += coeff
        else:
            b[row] -= coeff * fixed[key]

    for seg in model.segments:
        z, k = seg.z_total(), _transfer(seg)
        for j, p in enumerate(seg.phases):
            row = cur[seg.id, p]  # KVL, and i_to's column in the KCL rows
            add(row, (seg.to_node, p), 1.0)
            add(row, (seg.from_node, p), -k[j])
            for m, q in enumerate(seg.phases):
                a[row, cur[seg.id, q]] += z[j][m]
            a[volt[seg.to_node, p], row] += 1.0
            if (seg.from_node, p) in volt:
                a[volt[seg.from_node, p], row] -= k[j]
    for ld in model.loads:
        if ld.node == src.node:
            continue
        if ld.conn is Connection.WYE:
            pairs, v0 = [(p, None) for p in ld.phases], base[ld.node]
        else:
            pairs, v0 = ld.branches(), base[ld.node] * math.sqrt(3.0)
        for (p, q), kw, kvar in zip(pairs, ld.kw, ld.kvar):
            y = complex(kw, -kvar) * 1e3 / (v0 * v0)  # conj(s0) / v0^2
            ends = [(p, 1.0)] + ([(q, -1.0)] if q else [])
            for row_phase, row_sign in ends:
                for col_phase, col_sign in ends:
                    row = volt[ld.node, row_phase]
                    add(row, (ld.node, col_phase), -row_sign * col_sign * y)

    v = np.linalg.solve(a, b)
    sol = solve(model, TIGHT)
    for (node, p), k in volt.items():
        gap = abs(sol.node_voltages[node][p] - v[k]) / base[node]
        assert gap < limit, (node, p, gap)


@pytest.mark.parametrize("feeder", ["ieee13", "ieee34", "ieee34_stressed"])
def test_bundled_constant_z_feeders_match_the_linear_oracle(request, feeder):
    assert_linear_oracle_agrees(_constant_z(request.getfixturevalue(feeder)))


@functools.cache
def _line_codes():
    """Per-mile impedance matrices of the bundled line segments, by width."""
    codes = {1: [], 2: [], 3: []}
    for name in ("ieee13.feeder", "ieee34.feeder"):
        for seg in json.loads(bundled_feeder_path(name).read_text())["segments"]:
            z = seg.get("z_ohm_per_mile")
            if z is not None and z not in codes[len(z)]:
                codes[len(z)].append(z)
    return codes


@functools.cache
def _strategy(make, *args):
    """make(*args), built once: a deep tree draws thousands of times, and
    building a strategy per draw took most of the test's time."""
    return make(*args)


@st.composite
def radial_feeders(draw):
    """A random radial feeder document built from the bundled line codes.

    The root feeds a regulator, a transformer (both three-phase), a
    two-phase and a one-phase line; below that, up to 59 more levels of
    1-4 links each (lines, some of them regulators without impedance)
    hang off random nodes of the level above with any subset of their
    parent's phases, in any order, and any node may list its phases in
    another order than its feeding segment.  Capacitors sit on
    random segments and on the regulator.  Every load model appears both
    wye and delta, and the source carries a load.  Loads sit at nodes,
    and on 1-10 line segments loads are distributed along the segment.
    """
    codes = _line_codes()

    def integer(low, high):
        return draw(_strategy(st.integers, low, high))

    def one_of(*values):
        return draw(_strategy(st.sampled_from, values))

    def coin():
        return draw(_strategy(st.booleans))

    def subset(avail, n):
        return "".join(draw(_strategy(st.permutations, avail))[:n])

    def taps(n):
        return [draw(_strategy(st.floats, 0.95, 1.08)) for _ in range(n)]

    root = "n0"
    doc = {
        "name": "random",
        "base": {"power_kva": 2500.0, "voltage_kv_ll": 24.9},
        "source": {"node": root, "nominal_kv_ll": 24.9,
                   "voltage_pu": [draw(st.floats(0.98, 1.05))] * 3},
        "nodes": [{"id": root, "phases": subset("ABC", 3)}],
        "segments": [],
        "loads": [],
    }
    phases = {root: doc["nodes"][0]["phases"]}

    def link(parent, seg_phases, **kind):
        node = f"n{len(doc['nodes'])}"
        node_phases = subset(seg_phases, 3)
        doc["nodes"].append({"id": node, "phases": node_phases})
        phases[node] = node_phases
        seg = {"id": f"{parent}-{node}", "from": parent, "to": node,
               "phases": seg_phases}
        if kind:
            seg.update(kind)
        else:
            width = len(seg_phases)
            seg.update(kind="line", length=draw(_strategy(st.floats, 0.01, 0.3)),
                       unit="mi", z_ohm_per_mile=codes[width][
                           integer(0, len(codes[width]) - 1)])
        if integer(0, 4) == 0:
            seg["shunt_kvar"] = [one_of(0.0, 25.0, 100.0) for _ in seg_phases]
        doc["segments"].append(seg)
        return node

    level = [
        link(root, subset("ABC", 3), kind="regulator", taps=taps(3),
             length=0.01, unit="mi", z_ohm_per_mile=codes[3][0],
             shunt_kvar=[50.0, 0.0, 50.0]),
        link(root, subset("ABC", 3), kind="transformer", ratio=2.0,
             series_z_ohm=[0.4, 1.2]),
        link(root, subset(phases[root], 2)),
        link(root, subset(phases[root], 1)),
    ]
    for _ in range(integer(0, 59)):
        parents = st.sampled_from(level)
        level = [draw(parents) for _ in range(integer(1, 4))]
        for j, parent in enumerate(level):
            seg_phases = subset(phases[parent], integer(1, len(phases[parent])))
            if integer(0, 7) == 0:
                level[j] = link(parent, seg_phases, kind="regulator",
                                taps=taps(len(seg_phases)))
            else:
                level[j] = link(parent, seg_phases)

    def load(node, conn, model, segment=None):
        """A spot load at node, or a load distributed along the segment."""
        avail = segment["phases"] if segment else phases[node]
        if conn == "delta":
            ph = "ABC" if len(avail) == 3 and coin() else subset(avail, 2)
        else:
            ph = subset(avail, integer(1, len(avail)))
        n = 1 if conn == "delta" and len(ph) == 2 else len(ph)
        doc["loads"].append({
            "id": f"load{len(doc['loads'])}", "conn": conn, "model": model,
            "phases": ph, **({"segment": segment["id"]} if segment else {"node": node}),
            "kw": [one_of(0.0, 5.0, 20.0) for _ in range(n)],
            "kvar": [one_of(-5.0, 0.0, 10.0) for _ in range(n)],
        })

    def conn_for(avail):
        return "delta" if len(avail) >= 2 and coin() else "wye"

    nodes = st.sampled_from(list(phases))
    multi = st.sampled_from([n for n in phases if len(phases[n]) >= 2])
    load(root, one_of("wye", "delta"), one_of("pq", "z", "i"))
    for model in ("pq", "z", "i"):
        load(draw(nodes), "wye", model)
        load(draw(multi), "delta", model)
    for _ in range(integer(0, 20)):
        node = draw(nodes)
        load(node, conn_for(phases[node]), one_of("pq", "z", "i"))
    lines = [seg for seg in doc["segments"] if seg["kind"] == "line"]
    for seg in draw(st.lists(st.sampled_from(lines), min_size=1, max_size=10,
                             unique_by=lambda seg: seg["id"])):
        load(None, conn_for(seg["phases"]), one_of("pq", "z", "i"), segment=seg)
    return doc


# every random tree runs under both distributed-load conventions
REWRITES = (split_distributed_loads_to_ends, expand_distributed_loads)


@settings(max_examples=60, deadline=None)
@given(radial_feeders())
def test_random_radial_feeders_satisfy_the_network_equations(doc):
    model = parse_feeder_dict(doc)
    for rewrite in REWRITES:
        assert_network_equations_hold(solve(rewrite(model), RESIDUAL))


@settings(max_examples=20, deadline=None)
@given(radial_feeders())
def test_random_constant_z_feeders_match_the_linear_oracle(doc):
    assert_linear_oracle_agrees(_constant_z(parse_feeder_dict(doc)))


@settings(max_examples=60, deadline=None)
@given(radial_feeders())
def test_estimator_identities_hold_on_every_line_of_random_feeders(doc):
    # criterion 6 beyond the bundled feeders: on a tap-free line the true
    # loss fraction is the phasor drop, the sag ratio is within the angle
    # bound of it, and the study's correction is the sensor pipeline's
    model = parse_feeder_dict(doc)
    assert parse_feeder_dict(serialize_feeder(model)) == model
    for rewrite in REWRITES:
        spot = rewrite(model)
        sol = solve(spot, RESIDUAL)
        for row in run_single_segment_study(spot, solution=sol):
            if row.excluded:
                continue
            seg = spot.segment(row.line_or_path)
            v1 = sol.voltage(seg.from_node, row.phase)
            v2 = sol.voltage(seg.to_node, row.phase)
            exact = loss_fraction_exact(v1, v2)
            # true_loss takes s_from - s_to, which cancels to ~1e-16 absolute
            assert row.true_loss == pytest.approx(exact, rel=1e-12, abs=1e-14)
            if row.voss_single >= 0.0:
                assert abs(exact - row.voss_single) <= row.angle_bound + 1e-12
            assert 2.0 / 3.0 <= row.c_hat <= 1.0
            up, down = np.array([abs(v1)]), np.array([abs(v2)])
            loss, _, _ = voss_elementwise(up, down, row.rho_s)
            assert loss[0] == row.voss_corrected
            assert clamped_correction(row.rho_s, down / up)[0][0] == row.c_hat


# Sweep oracle: the sweep as every level ran before the per-level choice,
# one np.add.at over the level's links in reversed BFS order going up and
# one v_to = v_from * k - drop going down, with Z stacked from z_total().
# The per-level steps of the array kernel, and the scalar kernel, must
# give the same bits after every sweep.


class _OracleNetwork(powerflow._Network):
    def __init__(self, model):
        super().__init__(model)
        by_width = {}
        for seg, at in self.links:
            rows, zs = by_width.setdefault(len(seg.phases), ([], []))
            rows.append(range(at, at + len(seg.phases)))
            zs.append(seg.z_total())
        self.z_groups = [(np.array(rows), np.array(zs, dtype=complex))
                         for rows, zs in by_width.values()]

    def currents(self, e):
        i = np.zeros(self.n_slots, dtype=complex)
        np.add.at(i, self.eslot_node, e)
        for lo, hi, *_ in reversed(self.levels):
            to = slice(hi - 1, lo - 1, -1)
            np.add.at(i, self.up[to], i[to] * self.k[to])
        return i

    def forward(self, v, i):
        drop = np.empty(self.n_slots, dtype=complex)
        for rows, z in self.z_groups:
            drop[rows] = (z @ i[rows][:, :, None])[:, :, 0]
        for lo, hi, *_ in self.levels:
            to = slice(hi - 1, lo - 1, -1)
            v[to] = v[self.up[to]] * self.k[to] - drop[to]


def _bits(x):
    """x with every float and complex as its IEEE bit patterns."""
    if isinstance(x, (tuple, list)):
        return tuple(map(_bits, x))
    if isinstance(x, dict):
        return tuple((k, _bits(v)) for k, v in x.items())
    if isinstance(x, (float, complex)):
        return struct.pack("<dd", x.real, x.imag)
    return x


def _oracle_solve(model, options=SolveOptions()):
    """The solve as it assembled its solution before the state arrays: one
    SegmentFlow and one node dict per element, on the oracle sweep."""
    net = _OracleNetwork(model)
    v = net.flat_start(model.source)
    trace = []
    with np.errstate(all="ignore"):
        for iterations in range(1, options.max_iter + 1):
            before = v.copy()
            net.forward(v, net.currents(net.injections(v)))
            trace.append(net.mismatch(v, before))
            if trace[-1] < options.tol:
                break
    e = net.injections(v)
    i = net.currents(e)
    s = slice(net.n_source, net.n_slots)
    v_from, i_to = v[net.up[s]], i[s]
    i_from = i_to * net.k[s]
    s_from = np.multiply(v_from, np.conj(i_from))
    s_to = np.multiply(v[s], np.conj(i_to))
    loss = np.zeros(len(net.links), dtype=complex)
    np.add.at(loss, net.link_of_slot, s_from - s_to)
    cols = [x.tolist() for x in (v_from, v[s], i_from, i_to, s_from, s_to)]
    flows = {}
    for seg, at in net.links:
        r = slice(at - net.n_source, at - net.n_source + len(seg.phases))
        flows[seg.id] = powerflow.SegmentFlow(seg.id, seg.phases, *(tuple(c[r]) for c in cols))
    src = model.source.node
    total_source = sum((sum(flows[s.id].s_from) for s in model.segments_from(src)), 0j)
    total_load = 0j
    for (node, shunt), drawn in zip(net.elements, net.drawn(v, e)):
        if shunt:
            continue
        total_load += drawn
        if node == src:
            total_source += drawn
    node_voltages, flags, volts = {}, [], v.tolist()
    for n in model.nodes:
        at = net.first[n.id]
        by_phase = dict(zip(net.phases[n.id], volts[at:at + len(n.phases)]))
        node_voltages[n.id] = {ph: by_phase[ph] for ph in n.phases}
        flags += [f"{EstimateFlag.VOLTAGE_COLLAPSE_SUSPECT.value}:{n.id}.{ph}"
                  for ph in n.phases if abs(by_phase[ph]) < 0.5 * net.bases[n.id]]
    return powerflow.PowerFlowSolution(
        model, node_voltages, net.bases, flows, iterations, trace[-1], tuple(flags),
        tuple(trace), total_source, total_load, net.shunt_va, sum(loss.tolist(), 0j))


def assert_sweeps_match_the_oracle(model, sweeps):
    """Bit-equal Z, v after each of `sweeps` sweeps, and solutions, on
    each kernel: every _Network built under the patch takes it."""
    for scalar in (True, False):
        with mock.patch.object(powerflow, "_SCALAR_WIDTH", math.inf if scalar else 0.0):
            _assert_kernel_matches_the_oracle(model, sweeps, scalar)


def _assert_kernel_matches_the_oracle(model, sweeps, scalar):
    net, oracle = powerflow._Network(model), _OracleNetwork(model)
    assert net.scalar == scalar
    for (rows, z), (want_rows, want_z) in zip(net.z_groups, oracle.z_groups):
        assert np.array_equal(rows, want_rows)
        assert z.tobytes() == want_z.tobytes()
    v = net.flat_start(model.source)
    want = v.copy()
    with np.errstate(all="ignore"):
        for _ in range(sweeps):
            net.forward(v, net.currents(net.injections(v)))
            oracle.forward(want, oracle.currents(oracle.injections(want)))
            assert v.tobytes() == want.tobytes()
    got, want = solve(model), _oracle_solve(model)
    for name in ("iterations", "max_mismatch", "flags", "trace", "node_base_v",
                 "total_source_va", "total_load_va", "total_shunt_va", "total_loss_va"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert list(got.node_voltages) == list(want.node_voltages)
    assert list(got.segment_flows) == list(want.segment_flows)
    for node_id, volts in want.node_voltages.items():
        assert _bits(got.node_voltages[node_id]) == _bits(volts)
    for seg_id, flow in want.segment_flows.items():
        assert _bits(astuple(got.segment_flows[seg_id])) == _bits(astuple(flow))


def _fan_and_tap_doc():
    """Node a feeds three links at one level, one of them a tapped
    regulator; node b feeds two plain lines on phase A one level down."""
    doc = two_bus_doc([30.0, 20.0, 25.0], [10.0, 5.0, 15.0], 0.3, 0.6, phases="ABC")
    z = doc["segments"][0]["z_ohm_per_mile"]
    doc["nodes"] = [{"id": n, "phases": p} for n, p in (
        ("src", "ABC"), ("a", "ABC"), ("b", "ABC"), ("c", "AC"), ("d", "ABC"),
        ("e", "AB"), ("f", "A"))]

    def line(frm, to, phases, **kind):
        n = len(phases)
        return {"id": f"{frm}-{to}", "from": frm, "to": to, "phases": phases,
                "kind": "line", "length": 0.4, "unit": "mi",
                "z_ohm_per_mile": [row[:n] for row in z[:n]], **kind}

    doc["segments"] = [
        line("src", "a", "ABC"), line("a", "b", "ABC"),
        line("a", "c", "CA", shunt_kvar=[50.0, 50.0]),
        line("a", "d", "ABC", kind="regulator", taps=[1.05, 1.025, 0.99]),
        line("b", "e", "BA"), line("b", "f", "A"),
    ]
    doc["loads"] = [
        {"id": f"L{n}", "node": n, "model": m, "conn": "wye", "phases": p,
         "kw": [40.0] * len(p), "kvar": [12.0] * len(p)}
        for n, m, p in (("b", "pq", "ABC"), ("c", "z", "AC"), ("d", "i", "ABC"),
                        ("e", "pq", "AB"), ("f", "z", "A"))
    ]
    return doc


def test_fused_sweep_matches_the_oracle_on_a_fan_with_a_tap():
    model = parse_feeder_dict(_fan_and_tap_doc())
    levels = powerflow._Network(model).levels
    # (fans out, has taps) per level: the fan with a tap, then a plain fan
    assert [(fan, k is not None) for *_, k, fan in levels] == [
        (False, False), (True, True), (True, False)]
    assert_sweeps_match_the_oracle(model, 120)


@pytest.mark.parametrize("feeder", ["ieee13", "ieee34", "ieee34_stressed"])
@pytest.mark.parametrize("rewrite", REWRITES)
def test_fused_sweep_matches_the_oracle_on_bundled_feeders(request, feeder, rewrite):
    assert_sweeps_match_the_oracle(rewrite(request.getfixturevalue(feeder)), 120)


@settings(max_examples=30, deadline=None)
@given(radial_feeders())
def test_fused_sweep_matches_the_oracle_on_random_feeders(doc):
    model = parse_feeder_dict(doc)
    for rewrite in REWRITES:
        assert_sweeps_match_the_oracle(rewrite(model), 40)


@pytest.mark.parametrize("rewrite", REWRITES)
def test_bundled_feeders_take_the_scalar_kernel(ieee13, ieee34, ieee34_stressed, rewrite):
    for model in (ieee13, ieee34, ieee34_stressed):
        assert powerflow._Network(rewrite(model)).scalar


def _star_doc(arms):
    """The source feeds `arms` loaded three-phase lines: one level of
    3 * arms slots."""
    doc = two_bus_doc([30.0, 20.0, 25.0], [10.0, 5.0, 15.0], 0.3, 0.6, phases="ABC")
    line, load = doc["segments"][0], doc["loads"][0]
    doc["nodes"] = [{"id": "src", "phases": "ABC"}] + [
        {"id": f"n{j}", "phases": "ABC"} for j in range(arms)]
    doc["segments"] = [dict(line, id=f"src-n{j}", to=f"n{j}") for j in range(arms)]
    doc["loads"] = [dict(load, id=f"L{j}", node=f"n{j}") for j in range(arms)]
    return doc


def test_a_wide_star_takes_the_array_kernel():
    model = parse_feeder_dict(_star_doc(20))
    assert not powerflow._Network(model).scalar
    assert_sweeps_match_the_oracle(model, 40)


def assert_levels_follow_node_depth(model):
    """_Network's level bounds against the ones derived, as the network
    once derived them, from each node's depth along bfs_segments(); and
    bfs_segments() against a frontier walk over segments_from()."""
    order, frontier = [], [model.source.node]
    while frontier:
        level = [seg for node_id in frontier for seg in model.segments_from(node_id)]
        order += level
        frontier = [seg.to_node for seg in level]
    assert model.bfs_segments() == order
    net = powerflow._Network(model)
    depth, ends, at = {model.source.node: 0}, [], net.n_source
    for seg in model.bfs_segments():
        depth[seg.to_node] = depth[seg.from_node] + 1
        if depth[seg.to_node] > len(ends):
            ends.append(0)
        at += len(seg.phases)
        ends[-1] = at
    assert [(lo, hi) for lo, hi, *_ in net.levels] == list(zip([net.n_source] + ends, ends))
    assert [seg for seg, _ in net.links] == model.bfs_segments()


@pytest.mark.parametrize("feeder", ["ieee13", "ieee34", "ieee34_stressed"])
@pytest.mark.parametrize("rewrite", REWRITES)
def test_network_levels_follow_node_depth_on_bundled_feeders(request, feeder, rewrite):
    assert_levels_follow_node_depth(rewrite(request.getfixturevalue(feeder)))


@settings(max_examples=30, deadline=None)
@given(radial_feeders())
def test_network_levels_follow_node_depth_on_random_feeders(doc):
    model = parse_feeder_dict(doc)
    for rewrite in REWRITES:
        assert_levels_follow_node_depth(rewrite(model))
