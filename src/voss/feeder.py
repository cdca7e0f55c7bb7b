"""Radial feeder data model and its on-disk format.

A feeder file is a UTF-8 JSON document (a leading byte-order mark is
skipped) with top-level keys ``name``, ``base``, ``source``, ``nodes``,
``segments``, ``loads`` and an optional ``load_scale``.  Impedances are
row-major matrices of ``[re, im]`` pairs in ohms per mile ordered like
the segment's phase string; lengths carry an explicit unit (``ft`` or
``mi``).  See docs/feeder_schema.md for the full schema.  The bundled
IEEE 13-node and 34-node definitions live in ``voss/data`` and are
loaded with :func:`bundled_feeder_path`.

A load sits at exactly one of its ``node`` and its ``segment``; a set
``segment`` is what "distributed" means.  Each element takes only the
keys the schema names for it: its dataclass's field names, but for the
segment fields ``_FILE_KEYS`` renames, and ``_KIND_KEYS`` names the keys
each segment kind adds to the common ones.  The reader checks a file's
keys against these tables.  A model rejects, in the reader's words, a
segment field whose key its kind does not take, unless the field holds
its default (None, or a length of 0).  The reader checks only the JSON
form (numbers follow :func:`voss.ioutil.json_number`, never a bool) and
``load_scale``, which is no model field.  Models are read, never
written: the package has no feeder writer.

Models are immutable; transformations return new models.  Every way of
building a model checks it (see :class:`FeederModel`), so every value
rule, finiteness too, is stated once, in the model.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from enum import Enum
from importlib import resources
from itertools import chain, filterfalse, permutations
from typing import Optional

from .ioutil import NOT_IN_FILE_NAMES, json_number

FEET_PER_MILE = 5280.0
PHASE_ORDER = "ABC"
# the 15 phase strings: one to three of A, B and C, none repeated, in any order
_PHASE_STRINGS = frozenset("".join(p) for n in (1, 2, 3) for p in permutations(PHASE_ORDER, n))

# Regulator taps are per-phase ratio multipliers; standard 32-step
# regulators cover +-10%.
TAP_MIN = 0.9
TAP_MAX = 1.1


class FeederFormatError(ValueError):
    """A feeder file failed to parse or validate.

    ``context`` points at the offending element: a JSON location, a document
    path like ``segments[3] (id=632-671)``, or a model element (``segment 632-671``).
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


class Connection(Enum):
    WYE = "wye"
    DELTA = "delta"


class LoadModel(Enum):
    CONSTANT_PQ = "pq"
    CONSTANT_Z = "z"
    CONSTANT_I = "i"


# a segment takes the common keys plus its kind's (required, optional)
# keys; the parser rejects the others
_KIND_KEYS = {
    SegmentKind.LINE: (("length", "unit", "z_ohm_per_mile"), ()),
    SegmentKind.TRANSFORMER: (("ratio", "series_z_ohm"), ()),
    SegmentKind.REGULATOR: (("taps",), ("length", "unit", "z_ohm_per_mile")),
}


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
            z = self.series_z_ohm
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

    Exactly one of ``node`` and ``segment`` is set.  For wye loads
    ``phases`` lists phase-to-neutral connections; for delta loads a
    3-character string means the three branches AB, BC, CA and a
    2-character string a single branch between the named phases.  kw/kvar
    are per connection, ordered to match.
    """

    id: str
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
    """A radial feeder; every way of building one checks it.

    One pass checks each value and builds each index by the rule it must
    satisfy, and raises FeederFormatError (NotRadialError for the tree
    rules) at the first violation: the name; three finite source voltages
    and angles; numbers > 0 (a transformer's ratio is required); string
    ids and phase strings; duplicate ids; the source node; each segment
    (kind, length, each field whose key the kind does not take at its
    default, None or a length of 0; taps, required on a regulator,
    shunt_kvar, the impedances: z_per_mile, required on a line, an n x n
    table for the segment's n phases, and series_z_ohm, required on a
    transformer, of finite real or complex numbers; ends, phases);
    reachability; each load (conn, model, kw and kvar counts of finite
    numbers, then the rest).
    """

    name: str
    base: BaseDef
    source: SourceDef
    nodes: tuple
    segments: tuple
    loads: tuple

    def __post_init__(self):
        name = self.name
        if not isinstance(name, str) or not name or not NOT_IN_FILE_NAMES.isdisjoint(name):
            message = f"expected a nonempty name without a path separator or NUL, got {name!r}"
            raise FeederFormatError(message, "name")
        base, source = self.base, self.source
        _count(source.voltage_pu, 3, "source.voltage_pu")
        _count(source.angles_deg, 3, "source.angles_deg")
        numbers = [(base.power_kva, "base.power_kva"), (base.voltage_kv_ll, "base.voltage_kv_ll"),
                   (source.nominal_kv_ll, "source.nominal_kv_ll")]
        numbers += [(v, "source.voltage_pu") for v in source.voltage_pu]
        numbers += [(s.ratio, f"segment {s.id} ratio") for s in self.segments
                    if s.kind == SegmentKind.TRANSFORMER]
        for x, ctx in numbers:
            number = json_number(x)
            if number is None or not 0 < number < math.inf:
                raise FeederFormatError(f"expected a number > 0, got {x!r}", ctx)
        for tag, group in (("node", self.nodes), ("segment", self.segments), ("load", self.loads)):
            for item in group:
                if not isinstance(item.id, str):
                    raise FeederFormatError(f"expected a string id, got {item.id!r}", tag)
                if not isinstance(item.phases, str) or item.phases not in _PHASE_STRINGS:
                    raise _phase_error(item.phases, f"{tag} {item.id}")
        known = {n.id: n for n in self.nodes}
        by_id = {s.id: s for s in self.segments}
        for what, items, index in (("node", self.nodes, known), ("segment", self.segments, by_id)):
            if len(index) != len(items):
                dupes = sorted(i for i, c in Counter(x.id for x in items).items() if c > 1)
                raise FeederFormatError(f"duplicate {what} ids {dupes}")

        src = source.node
        if not isinstance(src, str) or src not in known:
            raise FeederFormatError(f"source node {src!r} not defined")
        into, children = {}, {n: [] for n in known}
        sound_z = set()  # (id, n) of the z_per_mile matrices found sound for n phases
        for s in self.segments:
            ctx, n, z = f"segment {s.id}", len(s.phases), s.z_per_mile
            if not isinstance(s.kind, SegmentKind):
                raise FeederFormatError(f"expected a SegmentKind, got {s.kind!r}", f"{ctx} kind")
            length = json_number(s.length_miles)
            if length is None or not 0 <= length < math.inf:
                message = f"length must be finite and >= 0, got {s.length_miles!r}"
                raise FeederFormatError(message, ctx)
            # None is compared by identity: == may not give a bool
            stray = [key for name, key, default in _NOT_TAKEN[s.kind]
                     if (value := getattr(s, name)) is not default
                     and (default is None or value != default)]
            if stray:
                raise _not_taken(s.kind, stray, ctx)
            if s.kind == SegmentKind.REGULATOR:
                _count(s.taps, n, ctx)
            if s.shunt_kvar is not None:
                _count(s.shunt_kvar, n, ctx)
            for t in s.taps or ():
                if not TAP_MIN <= t <= TAP_MAX:
                    raise FeederFormatError(f"tap {t} outside [{TAP_MIN}, {TAP_MAX}]", ctx)
            if (z is not None or s.kind == SegmentKind.LINE) and (id(z), n) not in sound_z:
                if not (isinstance(z, (list, tuple)) and len(z) == n
                        and all(isinstance(row, (list, tuple)) and len(row) == n for row in z)):
                    raise FeederFormatError(f"z_ohm_per_mile must be a {n}x{n} matrix", ctx)
                _impedances(chain.from_iterable(z), ctx)
                sound_z.add((id(z), n))
            if s.kind == SegmentKind.TRANSFORMER:
                _impedances((s.series_z_ohm,), ctx)
            for end in (s.from_node, s.to_node):
                if not isinstance(end, str) or end not in known:
                    raise FeederFormatError(f"unknown node {end!r}", ctx)
            if s.to_node in into:
                raise NotRadialError(f"not radial: node {s.to_node} fed by both "
                                     f"{into[s.to_node].id} and {s.id}")
            if s.to_node == src:
                raise NotRadialError(f"not radial: segment {s.id} feeds the source node")
            into[s.to_node] = s
            children[s.from_node].append(s)
            if not set(s.phases) <= set(known[s.from_node].phases):
                message = f"phases {s.phases} not available at upstream node {s.from_node}"
                raise FeederFormatError(message, ctx)
            if set(known[s.to_node].phases) != set(s.phases):
                message = f"node {s.to_node} phases must match its feeding segment ({s.phases})"
                raise FeederFormatError(message, ctx)

        # The tree levels, by breadth-first search from the source.  It
        # doubles as the cycle check: a connected graph where every
        # non-source node has exactly one parent and the source none is a
        # tree.  One parent per node also keeps the search finite.
        levels = [tuple(children[src])]
        while levels[-1]:
            levels.append(tuple(c for s in levels[-1] for c in children[s.to_node]))
        levels.pop()
        reached = {src}.union(s.to_node for level in levels for s in level)
        if len(reached) != len(known):
            unreached = sorted(set(known) - reached)
            raise NotRadialError("not radial: nodes not reachable from source "
                                 f"(cycle or island): {', '.join(unreached)}")

        for ld in self.loads:
            ctx = f"load {ld.id}"
            if not isinstance(ld.conn, Connection):
                raise FeederFormatError(f"expected a Connection, got {ld.conn!r}", f"{ctx} conn")
            if not isinstance(ld.model, LoadModel):
                raise FeederFormatError(f"expected a LoadModel, got {ld.model!r}", f"{ctx} model")
            delta = ld.conn == Connection.DELTA
            count = 1 if delta and len(ld.phases) == 2 else len(ld.phases)
            _count(ld.kw, count, f"{ctx} kw")
            _count(ld.kvar, count, f"{ctx} kvar")
            if (ld.node is None) == (ld.segment is None):
                raise FeederFormatError("a load needs exactly one of 'node' and 'segment'", ctx)
            if ld.segment is None:
                if not isinstance(ld.node, str) or ld.node not in known:
                    raise FeederFormatError(f"unknown load node {ld.node!r}", ctx)
                avail = set(known[ld.node].phases)
            else:
                seg = by_id.get(ld.segment) if isinstance(ld.segment, str) else None
                if seg is None:
                    raise FeederFormatError(f"unknown load segment {ld.segment!r}", ctx)
                if seg.kind != SegmentKind.LINE:
                    message = "distributed loads are only supported on line segments"
                    raise FeederFormatError(message, ctx)
                avail = set(seg.phases)
            if not set(ld.phases) <= avail:
                message = f"load phases {ld.phases} not available ({''.join(sorted(avail))})"
                raise FeederFormatError(message, ctx)
            if delta and len(ld.phases) < 2:
                raise FeederFormatError("delta loads need at least two phases", ctx)
            # kw/kvar of a three-phase delta load belong to AB, BC, CA
            if delta and len(ld.phases) == 3 and ld.phases != PHASE_ORDER:
                raise FeederFormatError(
                    f"a three-phase delta load lists its phases as {PHASE_ORDER} "
                    f"(branches AB, BC, CA), got {ld.phases!r}",
                    ctx,
                )
            if min(ld.kw) < 0:
                raise FeederFormatError("load kW must be nonnegative", ctx)

        for attr, index in (("_node_by_id", known), ("_seg_by_id", by_id), ("_seg_into", into),
                            ("_children", children), ("_levels", levels)):
            object.__setattr__(self, attr, index)

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
        return [seg for level in self._levels for seg in level]

    def path_segments(self, from_node: str, to_node: str) -> list:
        """The downstream segment chain from one node to a descendant."""
        if from_node not in self._node_by_id or to_node not in self._node_by_id:
            raise ValueError(f"unknown node in path {from_node}-{to_node}")
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


def _count(values, count: int, ctx: str) -> None:
    """values is a list or tuple of count finite numbers."""
    if not (isinstance(values, (list, tuple)) and len(values) == count
            and None not in (numbers := list(map(json_number, values)))):
        raise FeederFormatError(f"expected a list of {count} numbers, got {values!r}", ctx)
    if not math.isfinite(sum(numbers)):  # a finite sum has only finite terms
        _finite(numbers, ctx)


def _finite(values, ctx: str) -> None:
    """Every value, real or complex, is finite."""
    for x in filterfalse(cmath.isfinite, values):
        raise FeederFormatError(f"non-finite number {x}", ctx)


def _impedances(values, ctx: str) -> None:
    """Every value is a finite complex or real number; a real one is a
    json_number, never a bool or a string, and infinite past the float
    range."""
    for x in values:
        number = x if isinstance(x, complex) else json_number(x)
        if number is None:
            raise FeederFormatError(f"expected a real or complex number, got {x!r}", ctx)
        _finite((number,), ctx)


def _not_taken(kind: SegmentKind, keys, ctx: str) -> FeederFormatError:
    message = f"{kind.value} segments take no {' or '.join(map(repr, sorted(keys)))}"
    return FeederFormatError(message, ctx)


def _phase_error(phases, ctx: str) -> FeederFormatError:
    for i, ch in enumerate(phases if isinstance(phases, str) else ()):
        if ch not in PHASE_ORDER:
            return FeederFormatError(f"unknown phase '{ch}'", ctx)
        if ch in phases[:i]:
            return FeederFormatError(f"repeated phase '{ch}'", ctx)
    return FeederFormatError(f"expected a phase string, got {phases!r}", ctx)


def _complex_from_pair(value, ctx: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise FeederFormatError(f"expected [re, im] pair, got {value!r}", ctx)
    return complex(_number(value[0], ctx), _number(value[1], ctx))


def _objects(doc: dict, key: str, ctx: str) -> list:
    """The list of objects under key (nodes, segments, loads)."""
    value = _require(doc, key, ctx)
    if not isinstance(value, list):
        raise FeederFormatError(f"expected a list of objects, got {value!r}", key)
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            raise FeederFormatError(f"expected an object, got {item!r}", f"{key}[{i}]")
    return value


# an element's keys are its dataclass's field names, but for these
# segment fields; a segment's common keys are those no kind names
_FILE_KEYS = {"from_node": "from", "to_node": "to", "length_miles": "length",
              "z_per_mile": "z_ohm_per_mile"}
_SEGMENT_FIELDS = {f: _FILE_KEYS.get(f.name, f.name) for f in fields(SegmentDef)}
_SEGMENT_KEYS = frozenset(_SEGMENT_FIELDS.values()).difference(*sum(_KIND_KEYS.values(), ()))
# per kind, the (field, key, default) of each field whose key only other
# kinds take; a model leaves these fields at their defaults
_NOT_TAKEN = {
    kind: tuple((f.name, key, f.default) for f, key in _SEGMENT_FIELDS.items()
                if key not in _SEGMENT_KEYS.union(*keys))
    for kind, keys in _KIND_KEYS.items()
}
_KEYS = {
    cls: frozenset(f.name for f in fields(cls))
    for cls in (FeederModel, BaseDef, SourceDef, NodeDef, LoadDef)
}
_KEYS[FeederModel] |= {"load_scale"}


def _object(value, cls, ctx: str) -> dict:
    """value, which must be an object with no key outside _KEYS[cls]."""
    if not isinstance(value, dict):
        raise FeederFormatError(f"expected an object, got {value!r}", ctx)
    unknown = sorted(set(value).difference(_KEYS[cls]))
    if unknown:
        raise FeederFormatError(f"unknown keys {unknown}", ctx)
    return value


def _require(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise FeederFormatError(f"missing required key '{key}'", ctx)
    return mapping[key]


def _number(value, ctx: str) -> float:
    x = json_number(value)
    if x is None:
        raise FeederFormatError(f"expected a number, got {value!r}", ctx)
    return x


def _member(enum, value, ctx: str):
    try:
        return enum(value)
    except ValueError:
        choices = ", ".join(repr(m.value) for m in enum)
        message = f"expected one of {choices}, got {value!r}"
        raise FeederFormatError(message, ctx) from None


def _numbers(value, ctx: str, scale: float = 1.0) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise FeederFormatError(f"expected a list of numbers, got {value!r}", ctx)
    return tuple(_number(x, ctx) * scale for x in value)


def parse_feeder_dict(doc: dict, origin: str = "<dict>") -> FeederModel:
    """Build and validate a FeederModel from a parsed JSON document."""
    import marshal

    if not isinstance(doc, dict):
        raise FeederFormatError("feeder document must be a JSON object", origin)
    _object(doc, FeederModel, origin)

    name = doc.get("name", "feeder")
    base_raw = _object(_require(doc, "base", "base"), BaseDef, "base")
    base = BaseDef(
        power_kva=_number(_require(base_raw, "power_kva", "base"), "base.power_kva"),
        voltage_kv_ll=_number(_require(base_raw, "voltage_kv_ll", "base"), "base.voltage_kv_ll"),
    )

    src_raw = _object(_require(doc, "source", "source"), SourceDef, "source")
    node = str(_require(src_raw, "node", "source"))
    v_pu = src_raw.get("voltage_pu", 1.0)
    if not isinstance(v_pu, (list, tuple)):
        v_pu = [v_pu] * 3
    angles = src_raw.get("angles_deg", [0.0, -120.0, 120.0])
    source = SourceDef(
        node=node,
        nominal_kv_ll=_number(
            _require(src_raw, "nominal_kv_ll", "source"), "source.nominal_kv_ll"
        ),
        voltage_pu=_numbers(v_pu, "source.voltage_pu"),
        angles_deg=_numbers(angles, "source.angles_deg"),
    )

    load_scale = _number(doc.get("load_scale", 1.0), "load_scale")
    if not 0 < load_scale < math.inf:
        raise FeederFormatError(f"expected a number > 0, got {load_scale}", "load_scale")

    nodes = []
    for i, raw in enumerate(_objects(doc, "nodes", origin)):
        ctx = f"nodes[{i}]"
        _object(raw, NodeDef, ctx)
        nodes.append(
            NodeDef(
                id=str(_require(raw, "id", ctx)),
                phases=_require(raw, "phases", ctx),
            )
        )

    segments, matrices = [], {}
    for i, raw in enumerate(_objects(doc, "segments", origin)):
        ctx = f"segments[{i}] (id={raw.get('id', '?')})"
        seg_id = str(_require(raw, "id", ctx))
        phases = _require(raw, "phases", ctx)
        kind = _member(SegmentKind, raw.get("kind", "line"), f"{ctx} kind")
        required, optional = _KIND_KEYS[kind]
        missing = [key for key in required if key not in raw]
        if missing:
            message = f"{kind.value} segments need {' and '.join(map(repr, missing))}"
            raise FeederFormatError(message, ctx)
        stray = set(raw).difference(_SEGMENT_KEYS, required, optional)
        if stray:
            raise _not_taken(kind, stray, ctx)

        length_miles = 0.0
        if "length" in raw or "unit" in raw:
            length = _number(_require(raw, "length", ctx), ctx)
            unit = raw.get("unit")
            if unit == "ft":
                length_miles = length / FEET_PER_MILE
            elif unit == "mi":
                length_miles = length
            else:
                raise FeederFormatError(
                    f"length requires unit 'ft' or 'mi', got {unit!r}", ctx
                )

        z_per_mile = None
        if "z_ohm_per_mile" in raw:
            # parsed once per distinct raw matrix: its marshal bytes tell
            # true from 1 and -0.0 from 0.0, and a failing matrix is never
            # stored, so it fails with its own context
            zraw = raw["z_ohm_per_mile"]
            try:
                key = marshal.dumps(zraw, 2)
            except ValueError:  # a Python object no JSON document holds
                key = object()
            if key not in matrices:
                if not (isinstance(zraw, list) and all(isinstance(row, list) for row in zraw)):
                    raise FeederFormatError(f"expected a list of lists, got {zraw!r}", ctx)
                matrices[key] = tuple(
                    tuple(_complex_from_pair(e, f"{ctx}.z[{r}]") for e in row)
                    for r, row in enumerate(zraw)
                )
            z_per_mile = matrices[key]

        ratio = _number(raw["ratio"], f"{ctx} ratio") if "ratio" in raw else None
        series_z = _complex_from_pair(raw["series_z_ohm"], ctx) if "series_z_ohm" in raw else None
        taps = _numbers(raw["taps"], ctx) if "taps" in raw else None
        shunt = _numbers(raw["shunt_kvar"], ctx) if "shunt_kvar" in raw else None

        segments.append(SegmentDef(
            id=seg_id, from_node=str(_require(raw, "from", ctx)),
            to_node=str(_require(raw, "to", ctx)), phases=phases, kind=kind,
            length_miles=length_miles, z_per_mile=z_per_mile, ratio=ratio,
            series_z_ohm=series_z, taps=taps, shunt_kvar=shunt,
        ))

    loads = []
    for i, raw in enumerate(_objects(doc, "loads", origin)):
        ctx = f"loads[{i}] (id={raw.get('id', '?')})"
        _object(raw, LoadDef, ctx)
        conn = _member(Connection, raw.get("conn", "wye"), f"{ctx} conn")
        model = _member(LoadModel, raw.get("model", "pq"), f"{ctx} model")
        loads.append(LoadDef(
            id=str(raw.get("id", f"load{i}")), conn=conn, model=model,
            phases=_require(raw, "phases", ctx),
            kw=_numbers(_require(raw, "kw", ctx), f"{ctx} kw", load_scale),
            kvar=_numbers(_require(raw, "kvar", ctx), f"{ctx} kvar", load_scale),
            node=str(raw["node"]) if "node" in raw else None,
            segment=str(raw["segment"]) if "segment" in raw else None,
        ))

    return FeederModel(
        name=name,
        base=base,
        source=source,
        nodes=tuple(nodes),
        segments=tuple(segments),
        loads=tuple(loads),
    )


def parse_feeder(path) -> FeederModel:
    """Parse and validate a feeder file (UTF-8, a leading BOM skipped)."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise FeederFormatError(
            f"invalid JSON: {exc.msg}", f"{path}:{exc.lineno}:{exc.colno}"
        ) from None
    except ValueError as exc:  # not UTF-8, or past sys.get_int_max_str_digits()
        raise FeederFormatError(str(exc), str(path)) from None
    except RecursionError:
        raise FeederFormatError("invalid JSON: nested too deeply", str(path)) from None
    return parse_feeder_dict(doc, origin=str(path))


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
        if ld.segment is not None:
            dist_by_seg.setdefault(ld.segment, []).append(ld)
    if not dist_by_seg:
        return model

    new_nodes = list(model.nodes)
    new_segments = []
    new_loads = [ld for ld in model.loads if ld.segment is None]
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
            new_loads.append(replace(ld, node=mid_id, segment=None))

    return replace(model, nodes=tuple(new_nodes), segments=tuple(new_segments),
                   loads=tuple(new_loads))


def split_distributed_loads_to_ends(model: FeederModel) -> FeederModel:
    """Replace each distributed load by half-sized spot loads at both ends.

    Keeps every line segment internally tap-free (no synthetic nodes),
    which is the convention the reference distribution simulators use for
    these test feeders.  Total load is preserved exactly.
    """
    if all(ld.segment is None for ld in model.loads):
        return model
    new_loads = []
    for ld in model.loads:
        if ld.segment is None:
            new_loads.append(ld)
            continue
        seg = model.segment(ld.segment)
        for tag, node_id in (("from", seg.from_node), ("to", seg.to_node)):
            new_loads.append(
                replace(
                    ld,
                    id=f"{ld.id}~{tag}",
                    node=node_id,
                    segment=None,
                    kw=tuple(x / 2.0 for x in ld.kw),
                    kvar=tuple(x / 2.0 for x in ld.kvar),
                )
            )
    return replace(model, loads=tuple(new_loads))


def bundled_feeder_path(name: str):
    """Path to a feeder definition shipped with the package."""
    return resources.files("voss").joinpath("data", name)
