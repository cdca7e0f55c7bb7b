"""Radial feeder data model and its on-disk format.

A feeder file is a JSON document with top-level keys ``name``, ``base``,
``source``, ``nodes``, ``segments``, ``loads`` and an optional
``load_scale``.  Impedances are row-major ``[[re, im], ...]`` matrices in
ohms per mile ordered like the segment's phase string; lengths carry an
explicit unit (``ft`` or ``mi``).  See docs/feeder_schema.md for the full
schema.  The bundled IEEE 13-node and 34-node definitions live in
``voss/data`` and are loaded with :func:`bundled_feeder_path`.

Models are immutable; transformations return new models.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources
from typing import Optional

FEET_PER_MILE = 5280.0
PHASE_ORDER = "ABC"

# Regulator taps are per-phase ratio multipliers; standard 32-step
# regulators cover +-10%.
TAP_MIN = 0.9
TAP_MAX = 1.1


class FeederFormatError(ValueError):
    """A feeder file failed to parse or validate.

    ``context`` points at the offending element (JSON location for syntax
    errors, element path like ``segments[3] (id=632-671)`` otherwise).
    """

    def __init__(self, message: str, context: str = ""):
        self.context = context
        super().__init__(f"{message}{f' [{context}]' if context else ''}")


class NotRadialError(FeederFormatError):
    """The segment graph is not a tree rooted at the source."""


class SegmentKind(Enum):
    LINE = "line"
    TRANSFORMER = "transformer"
    REGULATOR = "regulator"


class Placement(Enum):
    SPOT = "spot"
    DISTRIBUTED = "distributed"


class Connection(Enum):
    WYE = "wye"
    DELTA = "delta"


class LoadModel(Enum):
    CONSTANT_PQ = "pq"
    CONSTANT_Z = "z"
    CONSTANT_I = "i"


@dataclass(frozen=True)
class NodeDef:
    id: str
    phases: str


@dataclass(frozen=True)
class SegmentDef:
    """One series element of the tree.

    ``z_per_mile`` is ordered like ``phases``.  A regulator applies its
    per-phase taps at the from end and then its series impedance, so the
    published "regulator on segment X-Y" data maps onto a single segment.
    A transformer applies ``ratio`` (from-side voltage over to-side) and a
    per-phase ``series_z_ohm`` referred to the to side.  ``shunt_kvar`` is
    a wye constant-Q capacitor bank connected at the to node.
    """

    id: str
    from_node: str
    to_node: str
    phases: str
    kind: SegmentKind = SegmentKind.LINE
    length_miles: float = 0.0
    z_per_mile: Optional[tuple] = None  # tuple of tuples of complex
    ratio: Optional[float] = None
    series_z_ohm: Optional[complex] = None
    taps: Optional[tuple] = None  # per-phase ratio multipliers
    shunt_kvar: Optional[tuple] = None

    def z_total(self) -> tuple:
        """Series impedance matrix in ohms for the whole segment."""
        if self.kind == SegmentKind.TRANSFORMER:
            z = self.series_z_ohm or 0j
            n = len(self.phases)
            return tuple(
                tuple(z if i == j else 0j for j in range(n)) for i in range(n)
            )
        if self.z_per_mile is None:
            n = len(self.phases)
            return tuple(tuple(0j for _ in range(n)) for _ in range(n))
        return tuple(
            tuple(zij * self.length_miles for zij in row) for row in self.z_per_mile
        )


@dataclass(frozen=True)
class LoadDef:
    """A spot load at a node or a load distributed along a segment.

    For wye loads ``phases`` lists phase-to-neutral connections; for delta
    loads a 3-character string means the three branches AB, BC, CA and a
    2-character string a single branch between the named phases.  kw/kvar
    are per connection, ordered to match.
    """

    id: str
    placement: Placement
    conn: Connection
    model: LoadModel
    phases: str
    kw: tuple
    kvar: tuple
    node: Optional[str] = None
    segment: Optional[str] = None

    def branches(self) -> tuple:
        """Delta branch phase pairs, e.g. ('AB', 'BC', 'CA')."""
        if self.conn != Connection.DELTA:
            raise ValueError("branches() only applies to delta loads")
        if len(self.phases) == 3:
            return ("AB", "BC", "CA")
        return (self.phases,)


@dataclass(frozen=True)
class SourceDef:
    node: str
    nominal_kv_ll: float
    voltage_pu: tuple  # per phase A, B, C
    angles_deg: tuple = (0.0, -120.0, 120.0)


@dataclass(frozen=True)
class BaseDef:
    power_kva: float
    voltage_kv_ll: float


@dataclass(frozen=True)
class FeederModel:
    name: str
    base: BaseDef
    source: SourceDef
    nodes: tuple
    segments: tuple
    loads: tuple

    def __post_init__(self):
        object.__setattr__(self, "_node_by_id", {n.id: n for n in self.nodes})
        object.__setattr__(self, "_seg_by_id", {s.id: s for s in self.segments})
        object.__setattr__(
            self, "_seg_into", {s.to_node: s for s in self.segments}
        )
        children: dict = {n.id: [] for n in self.nodes}
        for s in self.segments:
            children.setdefault(s.from_node, []).append(s)
        object.__setattr__(self, "_children", children)

    def node(self, node_id: str) -> NodeDef:
        return self._node_by_id[node_id]

    def segment(self, seg_id: str) -> SegmentDef:
        return self._seg_by_id[seg_id]

    def segment_into(self, node_id: str) -> Optional[SegmentDef]:
        return self._seg_into.get(node_id)

    def segments_from(self, node_id: str) -> list:
        return list(self._children.get(node_id, ()))

    def bfs_segments(self) -> list:
        """Segments in breadth-first order from the source."""
        order = []
        frontier = [self.source.node]
        while frontier:
            nxt = []
            for node_id in frontier:
                for seg in self._children.get(node_id, ()):
                    order.append(seg)
                    nxt.append(seg.to_node)
            frontier = nxt
        return order

    def path_segments(self, from_node: str, to_node: str) -> list:
        """The downstream segment chain from one node to a descendant."""
        if from_node not in self._node_by_id or to_node not in self._node_by_id:
            raise KeyError(f"unknown node in path {from_node}-{to_node}")
        path = []
        cur = to_node
        while cur != from_node:
            seg = self._seg_into.get(cur)
            if seg is None:
                raise ValueError(
                    f"{to_node} is not downstream of {from_node}"
                )
            path.append(seg)
            cur = seg.from_node
        path.reverse()
        return path


def _complex_from_pair(value, ctx: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) for x in value)
    ):
        raise FeederFormatError(f"expected [re, im] pair, got {value!r}", ctx)
    re, im = float(value[0]), float(value[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise FeederFormatError(f"non-finite impedance entry {value!r}", ctx)
    return complex(re, im)


def _pair_from_complex(z: complex) -> list:
    return [z.real, z.imag]


def _objects(doc: dict, key: str, ctx: str) -> list:
    """The list of objects under key (nodes, segments, loads)."""
    value = _require(doc, key, ctx)
    if not isinstance(value, list):
        raise FeederFormatError(f"expected a list of objects, got {value!r}", key)
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            raise FeederFormatError(f"expected an object, got {item!r}", f"{key}[{i}]")
    return value


def _require(mapping: dict, key: str, ctx: str):
    if not isinstance(mapping, dict):
        raise FeederFormatError(f"expected an object, got {mapping!r}", ctx)
    if key not in mapping:
        raise FeederFormatError(f"missing required key '{key}'", ctx)
    return mapping[key]


def _number(value, ctx: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise FeederFormatError(f"expected a number, got {value!r}", ctx)
    x = float(value)
    if not math.isfinite(x):
        raise FeederFormatError(f"non-finite number {value!r}", ctx)
    return x


def _positive(value, ctx: str) -> float:
    x = _number(value, ctx)
    if x <= 0:
        raise FeederFormatError(f"expected a number > 0, got {x}", ctx)
    return x


def _phase_string(value, ctx: str) -> str:
    if not isinstance(value, str) or value == "":
        raise FeederFormatError(f"expected a phase string, got {value!r}", ctx)
    seen = set()
    for ch in value:
        if ch not in PHASE_ORDER:
            raise FeederFormatError(f"unknown phase '{ch}'", ctx)
        if ch in seen:
            raise FeederFormatError(f"repeated phase '{ch}'", ctx)
        seen.add(ch)
    return value


def _numbers(value, count: int, ctx: str, rule=_number) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise FeederFormatError(
            f"expected a list of {count} numbers, got {value!r}", ctx
        )
    return tuple(rule(x, ctx) for x in value)


def parse_feeder_dict(doc: dict, origin: str = "<dict>") -> FeederModel:
    """Build and validate a FeederModel from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise FeederFormatError("feeder document must be a JSON object", origin)

    name = doc.get("name", "feeder")
    base_raw = _require(doc, "base", "base")
    base = BaseDef(
        power_kva=_positive(_require(base_raw, "power_kva", "base"), "base.power_kva"),
        voltage_kv_ll=_positive(
            _require(base_raw, "voltage_kv_ll", "base"), "base.voltage_kv_ll"
        ),
    )

    src_raw = _require(doc, "source", "source")
    node = str(_require(src_raw, "node", "source"))
    v_pu = src_raw.get("voltage_pu", 1.0)
    if not isinstance(v_pu, (list, tuple)):
        v_pu = [v_pu] * 3
    angles = src_raw.get("angles_deg", [0.0, -120.0, 120.0])
    source = SourceDef(
        node=node,
        nominal_kv_ll=_positive(
            _require(src_raw, "nominal_kv_ll", "source"), "source.nominal_kv_ll"
        ),
        voltage_pu=_numbers(v_pu, 3, "source.voltage_pu", _positive),
        angles_deg=_numbers(angles, 3, "source.angles_deg"),
    )

    load_scale = _positive(doc.get("load_scale", 1.0), "load_scale")

    nodes = []
    for i, raw in enumerate(_objects(doc, "nodes", origin)):
        ctx = f"nodes[{i}]"
        nodes.append(
            NodeDef(
                id=str(_require(raw, "id", ctx)),
                phases=_phase_string(_require(raw, "phases", ctx), ctx),
            )
        )

    segments = []
    for i, raw in enumerate(_objects(doc, "segments", origin)):
        ctx = f"segments[{i}] (id={raw.get('id', '?')})"
        seg_id = str(_require(raw, "id", ctx))
        phases = _phase_string(_require(raw, "phases", ctx), ctx)
        kind_raw = raw.get("kind", "line")
        try:
            kind = SegmentKind(kind_raw)
        except ValueError:
            raise FeederFormatError(f"unknown segment kind {kind_raw!r}", ctx)

        length_miles = 0.0
        if "length" in raw:
            length = _number(raw["length"], ctx)
            unit = raw.get("unit")
            if unit == "ft":
                length_miles = length / FEET_PER_MILE
            elif unit == "mi":
                length_miles = length
            else:
                raise FeederFormatError(
                    f"length requires unit 'ft' or 'mi', got {unit!r}", ctx
                )
            if length_miles < 0:
                raise FeederFormatError("length must be >= 0", ctx)

        z_per_mile = None
        if "z_ohm_per_mile" in raw:
            zraw = raw["z_ohm_per_mile"]
            n = len(phases)
            if not isinstance(zraw, list) or len(zraw) != n:
                raise FeederFormatError(
                    f"z_ohm_per_mile must be a {n}x{n} matrix", ctx
                )
            rows = []
            for r, rrow in enumerate(zraw):
                if not isinstance(rrow, list) or len(rrow) != n:
                    raise FeederFormatError(
                        f"z_ohm_per_mile must be a {n}x{n} matrix", ctx
                    )
                rows.append(
                    tuple(_complex_from_pair(e, f"{ctx}.z[{r}]") for e in rrow)
                )
            z_per_mile = tuple(rows)

        ratio = None
        if "ratio" in raw:
            ratio = _positive(raw["ratio"], f"{ctx} ratio")

        series_z = None
        if "series_z_ohm" in raw:
            series_z = _complex_from_pair(raw["series_z_ohm"], ctx)

        taps = None
        if "taps" in raw:
            taps = _numbers(raw["taps"], len(phases), ctx)
            for t in taps:
                if not (TAP_MIN <= t <= TAP_MAX):
                    raise FeederFormatError(
                        f"tap {t} outside [{TAP_MIN}, {TAP_MAX}]", ctx
                    )

        shunt = None
        if "shunt_kvar" in raw:
            shunt = _numbers(raw["shunt_kvar"], len(phases), ctx)

        if kind == SegmentKind.TRANSFORMER:
            if ratio is None or series_z is None:
                raise FeederFormatError(
                    "transformer segments need 'ratio' and 'series_z_ohm'", ctx
                )
        if kind == SegmentKind.REGULATOR and taps is None:
            raise FeederFormatError("regulator segments need 'taps'", ctx)
        if kind == SegmentKind.LINE and z_per_mile is None:
            raise FeederFormatError("line segments need 'z_ohm_per_mile'", ctx)
        if kind == SegmentKind.LINE and "length" not in raw:
            raise FeederFormatError("line segments need 'length'", ctx)

        segments.append(
            SegmentDef(
                id=seg_id,
                from_node=str(_require(raw, "from", ctx)),
                to_node=str(_require(raw, "to", ctx)),
                phases=phases,
                kind=kind,
                length_miles=length_miles,
                z_per_mile=z_per_mile,
                ratio=ratio,
                series_z_ohm=series_z,
                taps=taps,
                shunt_kvar=shunt,
            )
        )

    loads = []
    for i, raw in enumerate(_objects(doc, "loads", origin)):
        ctx = f"loads[{i}] (id={raw.get('id', '?')})"
        placement = (
            Placement.DISTRIBUTED if "segment" in raw else Placement.SPOT
        )
        if "placement" in raw:
            try:
                placement = Placement(raw["placement"])
            except ValueError:
                raise FeederFormatError(
                    f"unknown placement {raw['placement']!r}", ctx
                )
        try:
            conn = Connection(raw.get("conn", "wye"))
            model = LoadModel(raw.get("model", "pq"))
        except ValueError as exc:
            raise FeederFormatError(str(exc), ctx)
        phases = _phase_string(_require(raw, "phases", ctx), ctx)
        count = 1 if (conn == Connection.DELTA and len(phases) == 2) else len(phases)
        kw = _numbers(_require(raw, "kw", ctx), count, f"{ctx} kw")
        kvar = _numbers(_require(raw, "kvar", ctx), count, f"{ctx} kvar")
        load_id = str(raw.get("id", f"load{i}"))
        loads.append(
            LoadDef(
                id=load_id,
                placement=placement,
                conn=conn,
                model=model,
                phases=phases,
                kw=tuple(x * load_scale for x in kw),
                kvar=tuple(x * load_scale for x in kvar),
                node=str(raw["node"]) if "node" in raw else None,
                segment=str(raw["segment"]) if "segment" in raw else None,
            )
        )

    model = FeederModel(
        name=str(name),
        base=base,
        source=source,
        nodes=tuple(nodes),
        segments=tuple(segments),
        loads=tuple(loads),
    )
    validate_feeder(model)
    return model


def parse_feeder(path) -> FeederModel:
    """Parse and validate a feeder file."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FeederFormatError(
            f"invalid JSON: {exc.msg}", f"{path}:{exc.lineno}:{exc.colno}"
        )
    return parse_feeder_dict(doc, origin=str(path))


def validate_feeder(model: FeederModel) -> None:
    """Check structural invariants; raises FeederFormatError on violation."""
    node_ids = [n.id for n in model.nodes]
    if len(set(node_ids)) != len(node_ids):
        dupes = sorted({x for x in node_ids if node_ids.count(x) > 1})
        raise FeederFormatError(f"duplicate node ids {dupes}")
    seg_ids = [s.id for s in model.segments]
    if len(set(seg_ids)) != len(seg_ids):
        dupes = sorted({x for x in seg_ids if seg_ids.count(x) > 1})
        raise FeederFormatError(f"duplicate segment ids {dupes}")

    known = set(node_ids)
    if model.source.node not in known:
        raise FeederFormatError(f"source node {model.source.node!r} not defined")

    incoming: dict = {}
    for s in model.segments:
        ctx = f"segment {s.id}"
        for end in (s.from_node, s.to_node):
            if end not in known:
                raise FeederFormatError(f"unknown node {end!r}", ctx)
        if s.to_node in incoming:
            raise NotRadialError(
                f"not radial: node {s.to_node} fed by both "
                f"{incoming[s.to_node]} and {s.id}"
            )
        if s.to_node == model.source.node:
            raise NotRadialError(
                f"not radial: segment {s.id} feeds the source node"
            )
        incoming[s.to_node] = s.id

        from_phases = set(model.node(s.from_node).phases)
        if not set(s.phases) <= from_phases:
            raise FeederFormatError(
                f"phases {s.phases} not available at upstream node {s.from_node}",
                ctx,
            )
        if set(model.node(s.to_node).phases) != set(s.phases):
            raise FeederFormatError(
                f"node {s.to_node} phases must match its feeding segment ({s.phases})",
                ctx,
            )

    # Reachability doubles as the cycle check: a connected graph where
    # every non-source node has exactly one parent and the source none is
    # a tree.  One parent per node also keeps the BFS finite.
    reached = {model.source.node} | {s.to_node for s in model.bfs_segments()}
    unreached = sorted(known - reached)
    if unreached:
        raise NotRadialError(
            f"not radial: nodes not reachable from source "
            f"(cycle or island): {', '.join(unreached)}"
        )

    for ld in model.loads:
        ctx = f"load {ld.id}"
        if ld.placement == Placement.SPOT:
            if ld.node is None or ld.node not in known:
                raise FeederFormatError(f"unknown load node {ld.node!r}", ctx)
            avail = set(model.node(ld.node).phases)
        else:
            seg = model._seg_by_id.get(ld.segment)
            if seg is None:
                raise FeederFormatError(f"unknown load segment {ld.segment!r}", ctx)
            if seg.kind != SegmentKind.LINE:
                raise FeederFormatError(
                    "distributed loads are only supported on line segments", ctx
                )
            avail = set(seg.phases)
        if not set(ld.phases) <= avail:
            raise FeederFormatError(
                f"load phases {ld.phases} not available ({''.join(sorted(avail))})",
                ctx,
            )
        if ld.conn == Connection.DELTA and len(ld.phases) < 2:
            raise FeederFormatError("delta loads need at least two phases", ctx)
        # kw/kvar of a three-phase delta load belong to AB, BC, CA
        three_phase_delta = ld.conn == Connection.DELTA and len(ld.phases) == 3
        if three_phase_delta and ld.phases != PHASE_ORDER:
            raise FeederFormatError(
                f"a three-phase delta load lists its phases as {PHASE_ORDER} "
                f"(branches AB, BC, CA), got {ld.phases!r}",
                ctx,
            )
        if any(x < 0 for x in ld.kw):
            raise FeederFormatError("load kW must be nonnegative", ctx)


def serialize_feeder(model: FeederModel) -> dict:
    """Canonical JSON-compatible dict; parse(serialize(m)) == m."""
    doc: dict = {
        "name": model.name,
        "base": {
            "power_kva": model.base.power_kva,
            "voltage_kv_ll": model.base.voltage_kv_ll,
        },
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
        raw: dict = {
            "id": s.id,
            "from": s.from_node,
            "to": s.to_node,
            "phases": s.phases,
            "kind": s.kind.value,
        }
        if s.kind != SegmentKind.TRANSFORMER:
            raw["length"] = s.length_miles
            raw["unit"] = "mi"
        if s.z_per_mile is not None:
            raw["z_ohm_per_mile"] = [
                [_pair_from_complex(z) for z in row] for row in s.z_per_mile
            ]
        if s.ratio is not None:
            raw["ratio"] = s.ratio
        if s.series_z_ohm is not None:
            raw["series_z_ohm"] = _pair_from_complex(s.series_z_ohm)
        if s.taps is not None:
            raw["taps"] = list(s.taps)
        if s.shunt_kvar is not None:
            raw["shunt_kvar"] = list(s.shunt_kvar)
        doc["segments"].append(raw)
    for ld in model.loads:
        raw = {
            "id": ld.id,
            "placement": ld.placement.value,
            "conn": ld.conn.value,
            "model": ld.model.value,
            "phases": ld.phases,
            "kw": list(ld.kw),
            "kvar": list(ld.kvar),
        }
        if ld.node is not None:
            raw["node"] = ld.node
        if ld.segment is not None:
            raw["segment"] = ld.segment
        doc["loads"].append(raw)
    return doc


def expand_distributed_loads(model: FeederModel) -> FeederModel:
    """Lump each distributed load at a synthetic midpoint node.

    Every segment carrying distributed loads is split into two half-length
    segments joined at a new node named ``<segment id>~mid``, and the full
    load becomes a spot load there.  Node count grows by exactly the
    number of segments that carry distributed loads; total load is
    preserved exactly.
    """
    dist_by_seg: dict = {}
    for ld in model.loads:
        if ld.placement == Placement.DISTRIBUTED:
            dist_by_seg.setdefault(ld.segment, []).append(ld)
    if not dist_by_seg:
        return model

    new_nodes = list(model.nodes)
    new_segments = []
    new_loads = [ld for ld in model.loads if ld.placement == Placement.SPOT]
    for seg in model.segments:
        if seg.id not in dist_by_seg:
            new_segments.append(seg)
            continue
        mid_id = f"{seg.id}~mid"
        new_nodes.append(NodeDef(id=mid_id, phases=seg.phases))
        half = seg.length_miles / 2.0
        new_segments.append(
            replace(seg, id=f"{seg.id}~a", to_node=mid_id, length_miles=half,
                    shunt_kvar=None)
        )
        new_segments.append(
            replace(seg, id=f"{seg.id}~b", from_node=mid_id, length_miles=half)
        )
        for ld in dist_by_seg[seg.id]:
            new_loads.append(
                replace(ld, placement=Placement.SPOT, node=mid_id, segment=None)
            )

    out = FeederModel(
        name=model.name,
        base=model.base,
        source=model.source,
        nodes=tuple(new_nodes),
        segments=tuple(new_segments),
        loads=tuple(new_loads),
    )
    validate_feeder(out)
    return out


def split_distributed_loads_to_ends(model: FeederModel) -> FeederModel:
    """Replace each distributed load by half-sized spot loads at both ends.

    Keeps every line segment internally tap-free (no synthetic nodes),
    which is the convention the reference distribution simulators use for
    these test feeders.  Total load is preserved exactly.
    """
    if not any(ld.placement == Placement.DISTRIBUTED for ld in model.loads):
        return model
    new_loads = []
    for ld in model.loads:
        if ld.placement != Placement.DISTRIBUTED:
            new_loads.append(ld)
            continue
        seg = model.segment(ld.segment)
        for tag, node_id in (("from", seg.from_node), ("to", seg.to_node)):
            new_loads.append(
                replace(
                    ld,
                    id=f"{ld.id}~{tag}",
                    placement=Placement.SPOT,
                    node=node_id,
                    segment=None,
                    kw=tuple(x / 2.0 for x in ld.kw),
                    kvar=tuple(x / 2.0 for x in ld.kvar),
                )
            )
    out = replace(model, loads=tuple(new_loads))
    validate_feeder(out)
    return out


def bundled_feeder_path(name: str):
    """Path to a feeder definition shipped with the package."""
    return resources.files("voss").joinpath("data", name)
