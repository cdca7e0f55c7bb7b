"""Shared fixtures (parsed bundled feeders, cached solutions), inputs, and
the test-side feeder writer.

Session scope keeps the suite fast; everything here is immutable
(frozen dataclasses), so sharing across tests is safe.
"""

import pytest
from hypothesis import strategies as st

from voss.benchmark import run_single_segment_study
from voss.feeder import (
    SegmentKind,
    bundled_feeder_path,
    parse_feeder,
    parse_feeder_dict,
    split_distributed_loads_to_ends,
)
from voss.powerflow import solve

# any JSON value: NaN, Infinity and integers past the float range too
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="session")
def ieee13():
    return parse_feeder(bundled_feeder_path("ieee13.feeder"))


@pytest.fixture(scope="session")
def ieee34():
    return parse_feeder(bundled_feeder_path("ieee34.feeder"))


@pytest.fixture(scope="session")
def ieee34_stressed():
    return parse_feeder(bundled_feeder_path("ieee34-stressed.feeder"))


@pytest.fixture(scope="session")
def solved13(ieee13):
    return solve(split_distributed_loads_to_ends(ieee13))


@pytest.fixture(scope="session")
def solved34(ieee34):
    return solve(split_distributed_loads_to_ends(ieee34))


@pytest.fixture(scope="session")
def solved34_stressed(ieee34_stressed):
    return solve(split_distributed_loads_to_ends(ieee34_stressed))


@pytest.fixture(scope="session")
def rows13(ieee13, solved13):
    return run_single_segment_study(ieee13, solution=solved13)


@pytest.fixture(scope="session")
def rows34(ieee34, solved34):
    return run_single_segment_study(ieee34, solution=solved34)


def document_of(model):
    """model as a feeder document, spelled out key by key: every set field
    under its file key, a length in miles, impedances as [re, im] pairs and
    loads already scaled."""
    def pair(z):
        return [z.real, z.imag]

    doc = {
        "name": model.name,
        "base": {"power_kva": model.base.power_kva, "voltage_kv_ll": model.base.voltage_kv_ll},
        "source": {
            "node": model.source.node,
            "nominal_kv_ll": model.source.nominal_kv_ll,
            "voltage_pu": list(model.source.voltage_pu),
            "angles_deg": list(model.source.angles_deg),
        },
        "load_scale": 1.0,
        "nodes": [{"id": n.id, "phases": n.phases} for n in model.nodes],
        "segments": [],
        "loads": [],
    }
    for s in model.segments:
        raw = {"id": s.id, "from": s.from_node, "to": s.to_node, "phases": s.phases,
               "kind": s.kind.value}
        if s.kind != SegmentKind.TRANSFORMER:
            raw["length"] = s.length_miles
            raw["unit"] = "mi"
        if s.z_per_mile is not None:
            raw["z_ohm_per_mile"] = [[pair(z) for z in row] for row in s.z_per_mile]
        if s.ratio is not None:
            raw["ratio"] = s.ratio
        if s.series_z_ohm is not None:
            raw["series_z_ohm"] = pair(s.series_z_ohm)
        if s.taps is not None:
            raw["taps"] = list(s.taps)
        if s.shunt_kvar is not None:
            raw["shunt_kvar"] = list(s.shunt_kvar)
        doc["segments"].append(raw)
    for ld in model.loads:
        raw = {"id": ld.id, "conn": ld.conn.value, "model": ld.model.value,
               "phases": ld.phases, "kw": list(ld.kw), "kvar": list(ld.kvar)}
        if ld.node is not None:
            raw["node"] = ld.node
        if ld.segment is not None:
            raw["segment"] = ld.segment
        doc["loads"].append(raw)
    return doc


def two_bus_doc(
    kw,
    kvar,
    r_ohm,
    x_ohm,
    model="pq",
    conn="wye",
    phases="A",
    kv_ll=4.16,
    source_pu=1.0,
):
    """Minimal one-segment feeder document for analytic solver checks."""
    n = len(phases)
    z = [
        [[r_ohm, x_ohm] if i == j else [0.0, 0.0] for j in range(n)]
        for i in range(n)
    ]
    return {
        "name": "twobus",
        "base": {"power_kva": 1000.0, "voltage_kv_ll": kv_ll},
        "source": {
            "node": "src",
            "nominal_kv_ll": kv_ll,
            # source arrays are always A, B, C regardless of which phases exist
            "voltage_pu": [source_pu] * 3,
            "angles_deg": [0.0, -120.0, 120.0],
        },
        "load_scale": 1.0,
        "nodes": [{"id": "src", "phases": phases}, {"id": "end", "phases": phases}],
        "segments": [
            {
                "id": "src-end",
                "from": "src",
                "to": "end",
                "phases": phases,
                "kind": "line",
                "length": 1.0,
                "unit": "mi",
                "z_ohm_per_mile": z,
            }
        ],
        "loads": [
            {
                "id": "end",
                "node": "end",
                "conn": conn,
                "model": model,
                "phases": phases,
                "kw": list(kw),
                "kvar": list(kvar),
            }
        ],
    }


@pytest.fixture
def two_bus():
    def build(**kwargs):
        return parse_feeder_dict(two_bus_doc(**kwargs))

    return build
