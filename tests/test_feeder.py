"""Feeder file parsing, validation, and load-placement rewrites."""

import ast
import copy
import json
import math
from dataclasses import fields, replace
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import document_of, json_values
from voss import feeder as feeder_module
from voss.benchmark import solve_end_split
from voss.feeder import (
    FEET_PER_MILE,
    Connection,
    FeederFormatError,
    FeederModel,
    LoadModel,
    NodeDef,
    NotRadialError,
    SegmentKind,
    bundled_feeder_path,
    expand_distributed_loads,
    parse_feeder,
    parse_feeder_dict,
    split_distributed_loads_to_ends,
)
from voss.powerflow import PowerFlowError, SolveOptions

Z1 = [[[0.3, 0.6]]]
Z2 = [[[0.3, 0.6], [0.05, 0.1]], [[0.05, 0.1], [0.31, 0.59]]]
Z2_MODEL = ((0.3 + 0.6j, 0.05 + 0.1j), (0.05 + 0.1j, 0.31 + 0.59j))  # Z2 in a model


def minimal_doc():
    return {
        "name": "mini",
        "base": {"power_kva": 100.0, "voltage_kv_ll": 4.16},
        "source": {
            "node": "a",
            "nominal_kv_ll": 4.16,
            "voltage_pu": [1.0, 1.0, 1.0],
            "angles_deg": [0.0, -120.0, 120.0],
        },
        "load_scale": 1.0,
        "nodes": [
            {"id": "a", "phases": "AB"},
            {"id": "b", "phases": "AB"},
            {"id": "c", "phases": "A"},
        ],
        "segments": [
            {
                "id": "a-b",
                "from": "a",
                "to": "b",
                "phases": "AB",
                "kind": "line",
                "length": 528.0,
                "unit": "ft",
                "z_ohm_per_mile": Z2,
            },
            {
                "id": "b-c",
                "from": "b",
                "to": "c",
                "phases": "A",
                "kind": "line",
                "length": 0.5,
                "unit": "mi",
                "z_ohm_per_mile": Z1,
            },
        ],
        "loads": [
            {
                "id": "spot-c",
                "node": "c",
                "conn": "wye",
                "model": "pq",
                "phases": "A",
                "kw": [10.0],
                "kvar": [4.0],
            },
            {
                "id": "dist-ab",
                "segment": "a-b",
                "conn": "wye",
                "model": "z",
                "phases": "AB",
                "kw": [6.0, 8.0],
                "kvar": [2.0, 3.0],
            },
        ],
    }


def test_bundled_fixtures_parse_with_expected_shape(ieee13, ieee34, ieee34_stressed):
    assert (len(ieee13.nodes), len(ieee13.segments), len(ieee13.loads)) == (13, 12, 9)
    assert (len(ieee34.nodes), len(ieee34.segments), len(ieee34.loads)) == (34, 33, 25)
    assert ieee34_stressed.name == "ieee34-stressed"
    assert len(ieee34_stressed.loads) == len(ieee34.loads)
    # the stressed variant is the same circuit with heavier loads
    base_total = sum(sum(ld.kw) for ld in ieee34.loads)
    stressed_total = sum(sum(ld.kw) for ld in ieee34_stressed.loads)
    assert stressed_total > 2.0 * base_total


def test_round_trip_serialization_is_identity(ieee13, ieee34):
    for model in (ieee13, ieee34):
        doc = document_of(model)
        assert doc["load_scale"] == 1.0
        assert parse_feeder_dict(doc) == model


def test_length_units_convert_to_miles():
    model = parse_feeder_dict(minimal_doc())
    seg = model.segment("a-b")
    assert seg.length_miles == pytest.approx(528.0 / FEET_PER_MILE, rel=1e-12)
    assert model.segment("b-c").length_miles == 0.5
    z = seg.z_total()
    assert z[0][0] == pytest.approx((0.3 + 0.6j) * 0.1, rel=1e-12)


def test_load_scale_multiplies_demands():
    doc = minimal_doc()
    doc["load_scale"] = 2.5
    model = parse_feeder_dict(doc)
    spot = next(ld for ld in model.loads if ld.id == "spot-c")
    assert spot.kw == (25.0,)
    assert spot.kvar == (10.0,)


def test_json_syntax_error_reports_location(tmp_path):
    path = tmp_path / "broken.feeder"
    path.write_text('{"name": "x",\n  "base": }\n')
    with pytest.raises(FeederFormatError) as err:
        parse_feeder(path)
    # location is reported compiler-style as path:line:column
    assert ":2:" in str(err.value)
    assert "broken.feeder" in str(err.value)


def mutate(edit):
    doc = minimal_doc()
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "edit,needle",
    [
        (lambda d: d["nodes"].append({"id": "a", "phases": "AB"}), "duplicate"),
        (lambda d: d["segments"][0].update({"id": "b-c"}), "duplicate"),
        (lambda d: d["segments"][1].update({"to": "zz"}), "unknown node"),
        (lambda d: d["loads"][0].update({"node": "zz"}), "unknown"),
        (lambda d: d["loads"][1].update({"segment": "zz"}), "unknown"),
        (lambda d: d["segments"][1].update({"phases": "B"}), "phases"),
        (lambda d: d["nodes"][2].update({"phases": "AB"}), "phases"),
        (lambda d: d["loads"][0].update({"phases": "B"}), "phase"),
        (lambda d: d["loads"][0].update({"kw": [-1.0]}), "kw"),
        (lambda d: d["loads"][0].update({"kw": [1.0, 2.0]}), "kw"),
        (lambda d: d["segments"][0].update({"unit": "km"}), "unit"),
        (lambda d: d["segments"][0].update({"unit": ["ft"]}), "'ft' or 'mi'"),
        (lambda d: d["segments"][0].update({"z_ohm_per_mile": Z1}), "z_ohm_per_mile"),
        (lambda d: d["segments"][0].pop("length"), "length"),
        (lambda d: d["base"].update({"power_kva": 0.0}), "power_kva"),
        (lambda d: d["source"].update({"voltage_pu": [1.0, 1.0]}), "voltage_pu"),
        (lambda d: d["nodes"][1].update({"phases": "AA"}), "repeated phase 'A'"),
        (lambda d: d["segments"][1].update({"length": -1.0}),
         "length must be finite and >= 0, got -1.0"),
        (lambda d: d["source"].update({"node": "zz"}), "source node 'zz' not defined"),
        (lambda d: d["nodes"][0].update({"phases": "A"}), "not available at upstream"),
        (lambda d: d.update({"base": 5}), "expected an object, got 5 [base]"),
        # an unknown key at each level, named with the element's path
        (lambda d: d.update({"comment": ""}), "unknown keys ['comment'] [<dict>]"),
        (lambda d: d["base"].update({"kva": 1.0}), "unknown keys ['kva'] [base]"),
        (lambda d: d["source"].update({"kv": 1.0}), "unknown keys ['kv'] [source]"),
        (lambda d: d["nodes"][1].update({"x": 0}), "unknown keys ['x'] [nodes[1]]"),
        (
            lambda d: d["segments"][0].update({"lenght": 1.0}),
            "line segments take no 'lenght' [segments[0] (id=a-b)]",
        ),
        (
            lambda d: d["loads"][0].update({"pf": 0.9}),
            "unknown keys ['pf'] [loads[0] (id=spot-c)]",
        ),
    ],
)
def test_validation_rejects_malformed_documents(edit, needle):
    with pytest.raises(FeederFormatError) as err:
        parse_feeder_dict(mutate(edit))
    assert needle.lower() in str(err.value).lower()


def test_delta_load_needs_two_phases():
    doc = mutate(lambda d: d["loads"][0].update({"conn": "delta"}))
    with pytest.raises(FeederFormatError, match="delta"):
        parse_feeder_dict(doc)


def test_distributed_load_only_on_line_segments():
    doc = minimal_doc()
    doc["segments"][0] = {
        "id": "a-b",
        "from": "a",
        "to": "b",
        "phases": "AB",
        "kind": "transformer",
        "ratio": 2.0,
        "series_z_ohm": [0.01, 0.02],
    }
    with pytest.raises(FeederFormatError, match="distributed"):
        parse_feeder_dict(doc)


def test_regulator_taps_limited_to_sane_band():
    doc = minimal_doc()
    doc["segments"][0].update({"kind": "regulator", "taps": [1.2, 1.0]})
    with pytest.raises(FeederFormatError, match="tap"):
        parse_feeder_dict(doc)


def test_two_parents_is_not_radial():
    doc = minimal_doc()
    doc["segments"].append(
        {
            "id": "a-c",
            "from": "a",
            "to": "c",
            "phases": "A",
            "kind": "line",
            "length": 1.0,
            "unit": "mi",
            "z_ohm_per_mile": Z1,
        }
    )
    with pytest.raises(NotRadialError, match="not radial"):
        parse_feeder_dict(doc)


def test_cycle_island_is_not_radial():
    doc = minimal_doc()
    doc["nodes"] += [{"id": "p", "phases": "A"}, {"id": "q", "phases": "A"}]
    doc["segments"] += [
        {
            "id": "p-q",
            "from": "p",
            "to": "q",
            "phases": "A",
            "kind": "line",
            "length": 1.0,
            "unit": "mi",
            "z_ohm_per_mile": Z1,
        },
        {
            "id": "q-p",
            "from": "q",
            "to": "p",
            "phases": "A",
            "kind": "line",
            "length": 1.0,
            "unit": "mi",
            "z_ohm_per_mile": Z1,
        },
    ]
    with pytest.raises(NotRadialError, match="not radial"):
        parse_feeder_dict(doc)


def test_feeding_the_source_is_not_radial():
    doc = minimal_doc()
    doc["segments"][1].update(
        {"from": "b", "to": "a", "id": "b-a", "phases": "AB", "z_ohm_per_mile": Z2}
    )
    with pytest.raises(NotRadialError, match="feeds the source"):
        parse_feeder_dict(doc)


def test_delta_branch_expansion():
    doc = minimal_doc()
    # a two-phase delta load is a single phase-to-phase branch
    doc["loads"][1].update({"conn": "delta", "kw": [6.0], "kvar": [2.0]})
    model = parse_feeder_dict(doc)
    dist = next(ld for ld in model.loads if ld.segment is not None)
    assert dist.conn is Connection.DELTA
    assert dist.branches() == ("AB",)
    assert dist.kw == (6.0,)
    three = next(
        ld for ld in parse_feeder(bundled_feeder_path("ieee13.feeder")).loads
        if ld.conn is Connection.DELTA and len(ld.phases) == 3
    )
    assert three.branches() == ("AB", "BC", "CA")
    wye = next(ld for ld in model.loads if ld.conn is Connection.WYE)
    with pytest.raises(ValueError, match="only applies to delta loads"):
        wye.branches()


@pytest.mark.parametrize(
    "phases,kw,accepted",
    [("ABC", [10.0, 20.0, 30.0], True), ("CBA", [10.0, 20.0, 30.0], False),
     ("BCA", [10.0, 20.0, 30.0], False), ("AB", [10.0], True), ("BA", [10.0], True)],
)
def test_three_phase_delta_loads_list_phases_in_abc_order(phases, kw, accepted):
    # kw/kvar of a three-phase delta load are the AB, BC, CA branches, so
    # any other order would silently move power between branches
    doc = json.loads(bundled_feeder_path("ieee13.feeder").read_text())
    load = next(ld for ld in doc["loads"] if ld["id"] == "671")
    assert load["conn"] == "delta" and load["phases"] == "ABC"
    load.update(phases=phases, kw=kw, kvar=kw)
    if accepted:
        model = parse_feeder_dict(doc)
        assert next(ld for ld in model.loads if ld.id == "671").phases == phases
        return
    with pytest.raises(FeederFormatError, match="ABC") as err:
        parse_feeder_dict(doc)
    assert err.value.context == "load 671"


def test_midpoint_expansion_moves_distributed_load():
    model = parse_feeder_dict(minimal_doc())
    out = expand_distributed_loads(model)
    mid = out.node("a-b~mid")
    assert mid.phases == "AB"
    first, second = out.segment("a-b~a"), out.segment("a-b~b")
    assert first.length_miles == pytest.approx(second.length_miles, rel=1e-12)
    assert first.length_miles == pytest.approx(
        model.segment("a-b").length_miles / 2.0, rel=1e-12
    )
    moved = [ld for ld in out.loads if ld.node == "a-b~mid"]
    assert len(moved) == 1
    assert moved[0].kw == (6.0, 8.0)
    assert all(ld.segment is None for ld in out.loads)


def test_midpoint_expansion_keeps_shunt_at_far_end():
    doc = minimal_doc()
    doc["segments"][0]["shunt_kvar"] = [30.0, 30.0]
    out = expand_distributed_loads(parse_feeder_dict(doc))
    assert out.segment("a-b~a").shunt_kvar is None
    assert out.segment("a-b~b").shunt_kvar == (30.0, 30.0)


def test_end_split_halves_demand_at_both_ends():
    model = parse_feeder_dict(minimal_doc())
    out = split_distributed_loads_to_ends(model)
    halves = [ld for ld in out.loads if ld.id.startswith("dist-ab~")]
    assert {ld.node for ld in halves} == {"a", "b"}
    assert all(ld.kw == (3.0, 4.0) and ld.kvar == (1.0, 1.5) for ld in halves)
    assert len(out.nodes) == len(model.nodes)
    assert len(out.segments) == len(model.segments)
    total_kw = sum(sum(ld.kw) for ld in out.loads)
    assert total_kw == pytest.approx(sum(sum(ld.kw) for ld in model.loads), rel=1e-12)


def test_rewrites_leave_spot_only_models_unchanged(ieee13):
    spot_only = parse_feeder_dict(
        {**document_of(ieee13), "loads": [
            l for l in document_of(ieee13)["loads"] if "node" in l
        ]}
    )
    assert expand_distributed_loads(spot_only) == spot_only
    assert split_distributed_loads_to_ends(spot_only) == spot_only


def test_model_lookups(ieee13):
    assert ieee13.segment_into("632").id == "650-632"
    assert ieee13.segment_into("650") is None
    chain = [s.id for s in ieee13.path_segments("650", "675")]
    assert chain == ["650-632", "632-671", "671-692", "692-675"]
    with pytest.raises(ValueError):
        ieee13.path_segments("675", "650")
    with pytest.raises(ValueError, match="unknown node"):
        ieee13.path_segments("650", "nope")
    kinds = {s.kind for s in ieee13.segments}
    assert kinds == {SegmentKind.LINE, SegmentKind.TRANSFORMER, SegmentKind.REGULATOR}
    assert {ld.model for ld in ieee13.loads} == {
        LoadModel.CONSTANT_PQ,
        LoadModel.CONSTANT_Z,
        LoadModel.CONSTANT_I,
    }


def test_bfs_order_parents_before_children(ieee34):
    seen = {ieee34.source.node}
    for seg in ieee34.bfs_segments():
        assert seg.from_node in seen
        seen.add(seg.to_node)
    assert len(seen) == len(ieee34.nodes)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["loads"][0].update({"segment": "b-c"}),
        lambda d: d["loads"][1].update({"node": "a"}),
        lambda d: d["loads"][0].pop("node"),
    ],
    ids=["spot-with-segment", "distributed-with-node", "neither"],
)
def test_load_sits_at_exactly_one_of_node_and_segment(edit):
    with pytest.raises(FeederFormatError, match="exactly one of 'node' and 'segment'"):
        parse_feeder_dict(mutate(edit))


@pytest.mark.parametrize(
    "pair", [[True, False], [0.3, True], ["0.3", 0.6], [0.3], [float("nan"), 0.6]]
)
def test_impedance_pair_parts_are_numbers(pair):
    doc = minimal_doc()
    doc["segments"][1]["z_ohm_per_mile"] = [[pair]]
    with pytest.raises(FeederFormatError, match="number|pair"):
        parse_feeder_dict(doc)


TRANSFORMER = {
    "id": "b-c",
    "from": "b",
    "to": "c",
    "phases": "A",
    "kind": "transformer",
    "ratio": 2.0,
    "series_z_ohm": [0.01, 0.02],
}


LINE = minimal_doc()["segments"][1]
REGULATOR = {**LINE, "kind": "regulator", "taps": [1.0]}


@pytest.mark.parametrize(
    "segment,needle",
    [
        ({**LINE, "ratio": 2.0}, "line segments take no 'ratio' \\["),
        ({**LINE, "taps": [1.0]}, "line segments take no 'taps' \\["),
        ({**LINE, "series_z_ohm": [0.1, 0.2]}, "take no 'series_z_ohm' \\["),
        ({**TRANSFORMER, "length": 1.0}, "transformer segments take no 'length' \\["),
        (
            {**TRANSFORMER, "length": 1.0, "unit": "mi"},
            "transformer segments take no 'length' or 'unit' \\[",
        ),
        ({**TRANSFORMER, "taps": [1.0]}, "transformer segments take no 'taps' \\["),
        ({**REGULATOR, "ratio": 2.0}, "regulator segments take no 'ratio' \\["),
        ({**TRANSFORMER, "ratio": None}, "transformer segments need 'ratio' \\["),
        ({**REGULATOR, "taps": None}, "regulator segments need 'taps' \\["),
        ({**LINE, "unit": None}, "line segments need 'unit' \\["),
        ({**REGULATOR, "length": None}, "missing required key 'length' \\["),
        ({**LINE, "kind": "bus"}, "expected one of 'line', 'transformer', 'regulator'"),
        ({**REGULATOR, "tap": 1.0}, "regulator segments take no 'tap' \\["),
    ],
)
def test_segment_kind_takes_only_its_keys(segment, needle):
    doc = minimal_doc()
    doc["segments"][1] = {k: v for k, v in segment.items() if v is not None}
    with pytest.raises(FeederFormatError, match=needle):
        parse_feeder_dict(doc)


def test_regulator_length_and_impedance_are_optional():
    doc = minimal_doc()
    raw = doc["segments"][1]
    for key in ("length", "unit", "z_ohm_per_mile"):
        del raw[key]
    raw.update(kind="regulator", taps=[1.05])
    model = parse_feeder_dict(doc)
    assert model.segment("b-c").length_miles == 0.0
    assert parse_feeder_dict(document_of(model)) == model


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d["loads"][0].update({"kw": [10**400]}),
         "non-finite number inf [load spot-c kw]"),
        (lambda d: d["segments"][1].update({"length": 10**400}),
         "length must be finite and >= 0, got inf [segment b-c]"),
        (lambda d: d["segments"][1].update({"z_ohm_per_mile": [[[0.3, 10**400]]]}),
         "non-finite number (0.3+infj) [segment b-c]"),
        (lambda d: d.update({"load_scale": 10**400}),
         "expected a number > 0, got inf [load_scale]"),
        (lambda d: d["loads"][0].update({"kvar": [-(10**400)]}),
         "non-finite number -inf [load spot-c kvar]"),
        (lambda d: d.update({"load_scale": 1e300}) or d["loads"][0].update({"kw": [1e10]}),
         "non-finite number inf [load spot-c kw]"),
    ],
    ids=["kw", "length", "z_ohm_per_mile", "load_scale", "kvar", "scaled-kw"],
)
def test_numbers_past_the_float_range_are_rejected(edit, message):
    with pytest.raises(FeederFormatError) as err:
        parse_feeder_dict(mutate(edit))
    assert str(err.value) == message


def test_feeder_file_may_start_with_a_byte_order_mark(tmp_path, ieee13):
    path = tmp_path / "bom.feeder"
    text = bundled_feeder_path("ieee13.feeder").read_text(encoding="utf-8")
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert parse_feeder(path) == ieee13


@pytest.mark.parametrize(
    "data,needle",
    [
        (b'{"name": "x\xff"}', "can't decode byte 0xff"),
        (b'{"load_scale": ' + b"9" * 5000 + b"}", "digits"),
    ],
    ids=["not-utf8", "integer-digit-limit"],
)
def test_unreadable_feeder_file_names_its_path(tmp_path, data, needle):
    path = tmp_path / "bad.feeder"
    path.write_bytes(data)
    with pytest.raises(FeederFormatError, match=needle) as err:
        parse_feeder(path)
    assert err.value.context == str(path)


def fuzz_base_doc():
    """minimal_doc() plus a transformer and a regulator, all lists fresh."""
    doc = minimal_doc()
    doc["nodes"] += [{"id": "d", "phases": "AB"}, {"id": "e", "phases": "AB"}]
    doc["segments"] += [
        {**TRANSFORMER, "id": "b-d", "to": "d", "phases": "AB"},
        {"id": "d-e", "from": "d", "to": "e", "phases": "AB", "kind": "regulator",
         "taps": [1.0, 1.05], "length": 10.0, "unit": "ft", "z_ohm_per_mile": Z2},
    ]
    return copy.deepcopy(doc)


TOP_KEYS = ["name", "base", "source", "load_scale", "nodes", "segments", "loads"]
SEGMENT_KEYS = [
    "id", "from", "to", "phases", "kind", "shunt_kvar",
    "length", "unit", "z_ohm_per_mile", "ratio", "series_z_ohm", "taps",
]
LOAD_KEYS = ["id", "node", "segment", "conn", "model", "phases", "kw", "kvar"]

# any JSON value, or one the schema gives a meaning to
feeder_values = json_values | st.sampled_from(
    ["line", "transformer", "regulator", "delta", "z", "ft", "mi", "AB", "b", "a-b",
     [0.3, 0.6], [1.0, 1.05], [True, False]]
)


@st.composite
def feeder_documents(draw):
    """fuzz_base_doc() with a few keys, at any level, dropped or set to any value.

    A set key may be one the schema does not know, which must fail.
    """
    doc = fuzz_base_doc()
    targets = [
        (doc, TOP_KEYS),
        (doc["base"], ["power_kva", "voltage_kv_ll"]),
        (doc["source"], ["node", "nominal_kv_ll", "voltage_pu", "angles_deg"]),
        *((node, ["id", "phases"]) for node in doc["nodes"]),
        *((seg, SEGMENT_KEYS) for seg in doc["segments"]),
        *((ld, LOAD_KEYS) for ld in doc["loads"]),
        (doc["segments"][0]["z_ohm_per_mile"][1][0], [0, 1]),
        (doc["loads"][1]["kw"], [0, 1]),
    ]
    for target, keys in draw(st.lists(st.sampled_from(targets), max_size=4)):
        if isinstance(target, dict):
            keys = keys + ["unknown"]  # a key at no level of the schema
        key = draw(st.sampled_from(keys))
        if isinstance(target, list) or draw(st.booleans()):
            target[key] = draw(feeder_values)
        else:
            target.pop(key, None)
    return doc


def _with_kw(value):
    doc = fuzz_base_doc()
    doc["loads"][0]["kw"] = [value]
    return doc


@settings(max_examples=400, deadline=None)
@given(doc=feeder_documents() | json_values)
@example(doc=_with_kw(10**400))
@example(doc=_with_kw(True))
def test_feeder_parser_fails_only_with_format_errors(doc):
    try:
        model = parse_feeder_dict(doc)
    except FeederFormatError:
        return
    assert '"unknown":' not in json.dumps(doc)
    # a model that parses is finite and canonical
    assert parse_feeder_dict(document_of(model)) == model


def _chain_doc(z_bc, z_cd):
    """minimal_doc with one more phase-A line, c-d, after b-c."""
    doc = minimal_doc()
    doc["nodes"].append({"id": "d", "phases": "A"})
    doc["segments"][1]["z_ohm_per_mile"] = z_bc
    doc["segments"].append(dict(doc["segments"][1], id="c-d", to="d", z_ohm_per_mile=z_cd))
    doc["segments"][2]["from"] = "c"
    return doc


@pytest.mark.parametrize("z_bc,z_cd,message", [
    ([[[1, 0.6]]], [[[True, 0.6]]], "expected a number, got True [segments[2] (id=c-d).z[0]]"),
    ([[[0.3, 0.6]]], [[[0.3, math.nan]]], "non-finite number (0.3+nanj) [segment c-d]"),
    ([[[0.3, math.nan]]], [[[0.3, math.nan]]], "non-finite number (0.3+nanj) [segment b-c]"),
    ([[[0.3, 0.6]]], [[[0.3, 0.6], [0.3, 0.6]]],
     "z_ohm_per_mile must be a 1x1 matrix [segment c-d]"),
], ids=["true-for-1", "nan", "nan-twice", "shape"])
def test_a_matrix_like_an_earlier_one_fails_with_its_own_context(z_bc, z_cd, message):
    # neither the reader's parsed-matrix memo nor the model's checked-matrix
    # memo may pass a matrix that only compares equal to an earlier good one
    with pytest.raises(FeederFormatError) as err:
        parse_feeder_dict(_chain_doc(z_bc, z_cd))
    assert str(err.value) == message


def test_a_matrix_sound_for_one_phase_count_is_checked_again_for_another():
    doc = minimal_doc()
    doc["segments"].reverse()  # b-c, one phase, comes first
    doc["segments"][1]["z_ohm_per_mile"] = Z1  # parsed once, for both segments
    with pytest.raises(FeederFormatError) as err:
        parse_feeder_dict(doc)
    assert str(err.value) == "z_ohm_per_mile must be a 2x2 matrix [segment a-b]"


def test_equal_matrices_are_parsed_once_and_signed_zeros_kept_apart():
    model = parse_feeder_dict(_chain_doc([[[0.3, 0.0]]], [[[0.3, -0.0]]]))
    z_bc, z_cd = (model.segment(s).z_per_mile[0][0] for s in ("b-c", "c-d"))
    assert math.copysign(1.0, z_bc.imag) == 1.0 and math.copysign(1.0, z_cd.imag) == -1.0
    model = parse_feeder_dict(_chain_doc([[[1, 0.6]]], [[[1.0, 0.6]]]))
    assert model.segment("b-c").z_per_mile == model.segment("c-d").z_per_mile == ((1 + 0.6j,),)


class _Float(float):
    """A float that marshal cannot dump, as no JSON document holds."""


def test_matrices_marshal_cannot_key_parse_as_plain_ones(ieee13):
    doc = json.loads(bundled_feeder_path("ieee13.feeder").read_text())
    for seg in doc["segments"]:
        if "z_ohm_per_mile" in seg:
            seg["z_ohm_per_mile"] = [
                [[_Float(x) for x in pair] for pair in row] for row in seg["z_ohm_per_mile"]
            ]
    assert parse_feeder_dict(doc) == ieee13
    doc["segments"][0]["z_ohm_per_mile"][0][0][0] = Decimal("0.3")
    with pytest.raises(FeederFormatError) as err:
        parse_feeder_dict(doc)
    assert str(err.value) == (
        "expected a number, got Decimal('0.3') [segments[0] (id=650-632).z[0]]"
    )


@pytest.mark.parametrize("name", [["x", 1], "sub/ieee13", "a\0b", "", 13, None, True])
def test_feeder_name_is_a_nonempty_string_without_a_path_separator(name):
    with pytest.raises(FeederFormatError) as err:
        parse_feeder_dict(mutate(lambda d: d.update(name=name)))
    assert err.value.context == "name"
    assert str(err.value) == (
        f"expected a nonempty name without a path separator or NUL, got {name!r} [name]"
    )
    assert parse_feeder_dict(mutate(lambda d: d.pop("name"))).name == "feeder"
    assert parse_feeder_dict(mutate(lambda d: d.update(name="ieee13 v2.1"))).name == "ieee13 v2.1"


# A model checks itself however it is built: by hand, each broken model
# below fails with the message and context the parser gives its document.
GOOD = parse_feeder_dict(minimal_doc())
A_C = {**minimal_doc()["segments"][1], "id": "a-c", "from": "a"}


@pytest.mark.parametrize(
    "edit,change,error,message",
    [
        (lambda d: d["nodes"].append({"id": "a", "phases": "AB"}),
         {"nodes": GOOD.nodes + (NodeDef("a", "AB"),)},
         FeederFormatError, "duplicate node ids ['a']"),
        (lambda d: d["segments"].append(A_C),
         {"segments": GOOD.segments + (replace(GOOD.segment("b-c"), id="a-c", from_node="a"),)},
         NotRadialError, "not radial: node c fed by both b-c and a-c"),
        (lambda d: d["nodes"].append({"id": "z", "phases": "A"}),
         {"nodes": GOOD.nodes + (NodeDef("z", "A"),)},
         NotRadialError, "not radial: nodes not reachable from source (cycle or island): z"),
        (lambda d: d["loads"][1].update(segment="zz"),
         {"loads": (GOOD.loads[0], replace(GOOD.loads[1], segment="zz"))},
         FeederFormatError, "unknown load segment 'zz' [load dist-ab]"),
    ],
    ids=["duplicate-node", "two-parents", "unreachable", "unknown-load-segment"],
)
def test_a_model_built_by_hand_checks_itself_as_the_parser_does(edit, change, error, message):
    with pytest.raises(error) as parsed:
        parse_feeder_dict(mutate(edit))
    with pytest.raises(error) as built:
        FeederModel(**{**{f.name: getattr(GOOD, f.name) for f in fields(FeederModel)}, **change})
    assert str(parsed.value) == str(built.value) == message
    assert parsed.value.context == built.value.context
    assert type(parsed.value) is type(built.value)


def test_a_replaced_model_checks_itself(ieee13):
    at = next(i for i, ld in enumerate(ieee13.loads) if ld.node is not None)
    loads = list(ieee13.loads)
    loads[at] = replace(loads[at], node="zz")
    with pytest.raises(FeederFormatError) as err:
        replace(ieee13, loads=tuple(loads))
    assert str(err.value) == f"unknown load node 'zz' [load {loads[at].id}]"
    assert err.value.context == f"load {loads[at].id}"


def _ieee13_doc(section, element_id=None, **change):
    """The ieee13 document with one base, source, node, segment or load edited."""
    doc = json.loads(bundled_feeder_path("ieee13.feeder").read_text())
    target = doc[section]
    if element_id is not None:
        target = next(x for x in target if x["id"] == element_id)
    target.update(change)
    return doc


def _replaced(model, section, element_id=None, /, **change):
    """model with one base, source, node, segment or load changed by replace
    (model is positional-only, so a load's model field can be changed)."""
    value = getattr(model, section)
    if element_id is None:
        return replace(model, **{section: replace(value, **change)})
    items = tuple(replace(x, **change) if x.id == element_id else x for x in value)
    return replace(model, **{section: items})


# each value rule the model's pass states, broken in a document and in a model
@pytest.mark.parametrize(
    "section,element_id,in_doc,in_model",
    [
        ("segments", "650-632", {"taps": [5.0, 1.05, 1.06875]}, {"taps": (5.0, 1.05, 1.06875)}),
        ("segments", "632-633", {"length": -1.0, "unit": "mi"}, {"length_miles": -1.0}),
        ("segments", "632-633", {"length": math.nan, "unit": "mi"}, {"length_miles": math.nan}),
        ("segments", "632-633", {"length": math.inf, "unit": "mi"}, {"length_miles": math.inf}),
        ("base", None, {"power_kva": -5.0}, {"power_kva": -5.0}),
        ("base", None, {"voltage_kv_ll": math.nan}, {"voltage_kv_ll": math.nan}),
        ("source", None, {"voltage_pu": [1.0, 1.0]}, {"voltage_pu": (1.0, 1.0)}),
        ("segments", "633-634", {"ratio": 0.0}, {"ratio": 0.0}),
        ("nodes", "650", {"phases": "ABCA"}, {"phases": "ABCA"}),
        ("loads", "634", {"kw": []}, {"kw": ()}),
        ("loads", "634", {"kw": [160.0, math.inf, 120.0]}, {"kw": (160.0, math.inf, 120.0)}),
        ("segments", "684-652", {"z_ohm_per_mile": [[[math.nan, 1.0]]]},
         {"z_per_mile": ((complex(math.nan, 1.0),),)}),
        ("segments", "632-633", {"z_ohm_per_mile": Z2}, {"z_per_mile": Z2_MODEL}),
        ("nodes", "650", {"phases": ["A", "B", "C"]}, {"phases": ["A", "B", "C"]}),
    ],
    ids=["tap", "negative-length", "nan-length", "inf-length", "power-base", "nan-voltage-base",
         "two-voltages", "zero-ratio", "repeated-phase", "no-kw", "inf-kw", "nan-z", "z-2x2",
         "phases-list"],
)
def test_a_replaced_model_fails_as_its_document_does(ieee13, section, element_id, in_doc,
                                                     in_model):
    with pytest.raises(FeederFormatError) as built:
        _replaced(ieee13, section, element_id, **in_model)
    with pytest.raises(FeederFormatError) as parsed:
        parse_feeder_dict(_ieee13_doc(section, element_id, **in_doc))
    assert str(built.value) == str(parsed.value)
    assert built.value.context == parsed.value.context


# a value of a type no document can give fails naming its element
@pytest.mark.parametrize(
    "section,element_id,change,message",
    [
        ("loads", "634", {"kw": None}, "expected a list of 3 numbers, got None [load 634 kw]"),
        ("base", None, {"power_kva": "5000"},
         "expected a number > 0, got '5000' [base.power_kva]"),
        ("loads", "634", {"kvar": ("1", 2.0, 3.0)},
         "expected a list of 3 numbers, got ('1', 2.0, 3.0) [load 634 kvar]"),
        ("segments", "650-632", {"taps": (1.0, None, 1.0)},
         "expected a list of 3 numbers, got (1.0, None, 1.0) [segment 650-632]"),
        ("segments", "632-633", {"length_miles": "0.1"},
         "length must be finite and >= 0, got '0.1' [segment 632-633]"),
        ("segments", "633-634", {"ratio": None},
         "expected a number > 0, got None [segment 633-634 ratio]"),
        ("segments", "650-632", {"taps": None},
         "expected a list of 3 numbers, got None [segment 650-632]"),
        ("segments", "632-633", {"z_per_mile": None},
         "z_ohm_per_mile must be a 3x3 matrix [segment 632-633]"),
        ("segments", "684-652", {"z_per_mile": ((True,),)},
         "expected a real or complex number, got True [segment 684-652]"),
        ("segments", "633-634", {"series_z_ohm": None},
         "expected a real or complex number, got None [segment 633-634]"),
        ("segments", "633-634", {"series_z_ohm": "0.1"},
         "expected a real or complex number, got '0.1' [segment 633-634]"),
        ("source", None, {"angles_deg": 0.0},
         "expected a list of 3 numbers, got 0.0 [source.angles_deg]"),
        ("segments", "632-633", {"kind": "line"},
         "expected a SegmentKind, got 'line' [segment 632-633 kind]"),
        ("loads", "646", {"conn": "delta"}, "expected a Connection, got 'delta' [load 646 conn]"),
        ("loads", "634", {"model": "z"}, "expected a LoadModel, got 'z' [load 634 model]"),
        ("nodes", "650", {"id": ["650"]}, "expected a string id, got ['650'] [node]"),
        ("segments", "632-633", {"to_node": ["633"]}, "unknown node ['633'] [segment 632-633]"),
        ("loads", "632-671", {"segment": ["632-671"]},
         "unknown load segment ['632-671'] [load 632-671]"),
        ("source", None, {"node": ["650"]}, "source node ['650'] not defined"),
        ("segments", "632-633", {"taps": (1.0, 1.0, 1.0)},
         "line segments take no 'taps' [segment 632-633]"),
        ("segments", "632-633", {"ratio": 2.0}, "line segments take no 'ratio' [segment 632-633]"),
        ("segments", "632-633", {"series_z_ohm": 0.1j},
         "line segments take no 'series_z_ohm' [segment 632-633]"),
        ("segments", "633-634", {"taps": (1.0, 1.0, 1.0)},
         "transformer segments take no 'taps' [segment 633-634]"),
        ("segments", "633-634", {"z_per_mile": Z2_MODEL},
         "transformer segments take no 'z_ohm_per_mile' [segment 633-634]"),
        ("segments", "633-634", {"length_miles": 1.0},
         "transformer segments take no 'length' [segment 633-634]"),
        ("segments", "650-632", {"ratio": 1.0},
         "regulator segments take no 'ratio' [segment 650-632]"),
        ("segments", "650-632", {"series_z_ohm": 0.1j},
         "regulator segments take no 'series_z_ohm' [segment 650-632]"),
    ],
    ids=["kw-none", "power-base-text", "kvar-text", "tap-none", "length-text",
         "transformer-no-ratio", "regulator-no-taps", "line-no-z", "z-bool",
         "transformer-no-series-z", "series-z-text", "angles-number", "kind-text", "conn-text",
         "model-text", "id-list", "to-node-list", "load-segment-list", "source-node-list",
         "line-taps", "line-ratio", "line-series-z", "transformer-taps", "transformer-z",
         "transformer-length", "regulator-ratio", "regulator-series-z"],
)
def test_a_replaced_model_with_a_wrong_type_fails_naming_its_element(ieee13, section,
                                                                     element_id, change, message):
    with pytest.raises(FeederFormatError) as built:
        _replaced(ieee13, section, element_id, **change)
    assert str(built.value) == message


# NaN and inf fail as the number rule fails them in a document
@pytest.mark.parametrize(
    "section,element_id,change,message",
    [
        ("loads", "634", {"kw": (math.nan, 120.0, 120.0)}, "non-finite number nan [load 634 kw]"),
        ("loads", "634", {"kvar": (110.0, -math.inf, 90.0)},
         "non-finite number -inf [load 634 kvar]"),
        ("segments", "692-675", {"shunt_kvar": (200.0, math.inf, 200.0)},
         "non-finite number inf [segment 692-675]"),
        ("source", None, {"angles_deg": (0.0, math.nan, 120.0)},
         "non-finite number nan [source.angles_deg]"),
        ("segments", "684-652", {"z_per_mile": ((complex(math.nan, 1.0),),)},
         "non-finite number (nan+1j) [segment 684-652]"),
        ("segments", "633-634", {"series_z_ohm": complex(0.005, math.inf)},
         "non-finite number (0.005+infj) [segment 633-634]"),
        ("segments", "633-634", {"series_z_ohm": 10**400},
         "non-finite number inf [segment 633-634]"),
    ],
    ids=["kw-nan", "kvar-inf", "shunt-inf", "angle-nan", "z-nan", "series-z-inf", "series-z-huge"],
)
def test_a_replaced_model_with_a_non_finite_number_fails_naming_its_element(
        ieee13, section, element_id, change, message):
    with pytest.raises(FeederFormatError) as built:
        _replaced(ieee13, section, element_id, **change)
    assert str(built.value) == message


# the messages of the value rules FeederModel states, which the reader must not
MODEL_RULES = ("unknown phase", "repeated phase", "phase string", "finite", "matrix",
               "real or complex", "tap ", "expected a number > 0")


def test_the_reader_states_none_of_the_model_value_rules():
    tree = ast.parse(Path(feeder_module.__file__).read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    # parse_feeder_dict and every module function it names, and so on
    reader, todo = set(), ["parse_feeder_dict"]
    while todo:
        name = todo.pop()
        if name not in reader:
            reader.add(name)
            todo += [n.id for n in ast.walk(functions[name])
                     if isinstance(n, ast.Name) and n.id in functions]
    assert {"_numbers", "_number", "_complex_from_pair", "_objects"} <= reader
    stated = []
    for name in sorted(reader):
        for stmt in ast.walk(functions[name]):
            if not isinstance(stmt, ast.stmt) or hasattr(stmt, "body"):
                continue  # a compound statement's parts are visited on their own
            texts = [c.value for c in ast.walk(stmt)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)]
            stated += [(name, rule, "load_scale" in texts) for rule in MODEL_RULES
                       if any(rule in t for t in texts)]
    # the reader's own rule is load_scale > 0
    assert stated == [("parse_feeder_dict", "expected a number > 0", True)]


BUNDLED = {name: parse_feeder(bundled_feeder_path(f"{name}.feeder"))
           for name in ("ieee13", "ieee34", "ieee34-stressed")}
Z3_REAL = ((0.3, 0.1, 0.1), (0.1, 0.3, 0.1), (0.1, 0.1, 0.3))
# values no model field should take, and a few it may
HOSTILE = [None, True, False, "0.1", {"re": 0.1}, (), (1.0, 2.0), ((1.0,), (2.0,), (3.0,)),
           math.nan, math.inf, -math.inf, complex(math.nan, 1.0), 10**400, 1.0,
           Z2_MODEL, ((0.3,),), Z3_REAL]


@st.composite
def replaced_fields(draw):
    """(feeder, section, element id, {field: value}) for _replaced on a bundled model."""
    name = draw(st.sampled_from(sorted(BUNDLED)))
    section = draw(st.sampled_from(["nodes", "segments", "loads", "base", "source"]))
    element = getattr(BUNDLED[name], section)
    element_id = None
    if isinstance(element, tuple):
        element = draw(st.sampled_from(element))
        element_id = element.id
    field = draw(st.sampled_from([f.name for f in fields(element)]))
    return name, section, element_id, {field: draw(st.sampled_from(HOSTILE))}


@settings(max_examples=500, deadline=None)
@given(case=replaced_fields())
@example(case=("ieee13", "segments", "632-633", {"z_per_mile": Z2_MODEL}))
@example(case=("ieee13", "segments", "633-634", {"series_z_ohm": 10**400}))
@example(case=("ieee13", "segments", "633-634", {"series_z_ohm": "0.1"}))
@example(case=("ieee13", "segments", "684-652", {"z_per_mile": ((True,),)}))
@example(case=("ieee13", "segments", "632-633", {"z_per_mile": Z3_REAL}))
@example(case=("ieee13", "segments", "632-633", {"taps": (1.0, 1.0, 1.0)}))
@example(case=("ieee13", "segments", "632-633", {"ratio": 2.0}))
@example(case=("ieee13", "segments", "632-633", {"series_z_ohm": 0.1j}))
@example(case=("ieee13", "segments", "650-632", {"ratio": 1.0}))
@example(case=("ieee13", "segments", "633-634", {"length_miles": 1.0}))
def test_a_replaced_model_fails_checked_or_solves_and_reads_back(case):
    name, section, element_id, change = case
    try:
        model = _replaced(BUNDLED[name], section, element_id, **change)
    except FeederFormatError:
        return
    try:
        solve_end_split(model, SolveOptions())
    except PowerFlowError:
        pass
    assert parse_feeder_dict(json.loads(json.dumps(document_of(model)))) == model
