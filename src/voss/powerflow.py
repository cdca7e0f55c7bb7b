"""Forward-backward sweep power flow for radial unbalanced feeders.

Works in actual volts and amperes.  Each iteration recomputes load and
capacitor currents at the present voltages, accumulates segment currents
from the leaves up (backward sweep), then pushes voltages from the source
down (forward sweep).  Convergence is the max per-node per-phase voltage
update, normalized by that node's nominal line-to-neutral base.

Every segment is one link: the slots of its phases at the from node, a
transfer factor ``k`` (the taps of a regulator, ``1/ratio`` for a
transformer, 1 for a line) and its series impedance ``Z``.  One rule
serves every kind: ``i_from = k * i_to`` and
``v_to = k * v_from[slots] - Z @ i_to``.  A node's slots are in the
phase order of the segment feeding it (the source keeps its own), so the
to side needs no index map; phase names are matched only while the
tables are built and in the output dicts.

Every load and capacitor bank is one injection element: branches that
draw a current at one node slot and return it at another (the ground
for wye), with ``v0`` the base times sqrt(3) for delta.  A capacitor is
a constant-PQ wye element of ``-j kvar``.  The tables come from one list
of branch rows per load model, each in node order, laid end to end; one
``np.unique`` over (element, slot) keys gives the element slots.  The
sweep and the load and source totals use the same tables.

The sweep runs on tables built once per solve, the array form of
Shirmohammadi et al. (1988) with the level view of Teng (2003).  All
node slots sit in one complex vector in BFS order, and the links of one
tree level are one run of slots ``lo:hi``.  Each sweep is:

- one array expression per load model for every branch current, summed
  into element slots and then, in element order, into node slots;
- going up, each link's ``i_to * k`` added to its from slot, from the
  deepest level up;
- one stacked ``np.matmul`` per phase count for every ``Z @ i_to``, with
  Z stacked once from each distinct per-mile matrix times the lengths;
- going down, each link's ``v_to = v_from * k - drop``, from the source;
- the mismatch as one max over the non-source slots, so that a NaN
  update ends the solve as a blow-up instead of being skipped.

The up and down steps have two kernels, and a network picks one when it
is built.  The array kernel takes one step per level and decides once
per level which: ``i[up] += i[lo:hi] * k`` going up, with no ``* k``
where every k is 1.0 (all but the levels with a tap or ratio) and
``np.add.at`` over the level's links in reversed BFS order only where a
from slot repeats (one node feeds several of them on one phase); going
down, ``np.subtract(v[up], drop[lo:hi], out=v[lo:hi])``, or
``v[up] * k - drop[lo:hi]`` on a level with a tap or ratio.  The scalar
kernel runs one Python statement per link slot, over ``(slot, up, k)``
rows in BFS order and the lists of ``tolist()``: ``i[up] += i[slot] * k``
in reversed BFS order, then ``v[slot] = v[up] * k - drop[slot]`` in BFS
order, the ``* k`` skipped where k is 1.0.  A numpy call costs a few
microseconds whatever its size, so a tree whose levels hold a few slots
sweeps faster one slot at a time: the scalar kernel runs where the mean
level width (link slots per level) is below ``_SCALAR_WIDTH``, as on
every bundled feeder (4-8), and the array kernel on wide trees such as
the 10k-node generated feeder (about 1,260).

Same bits: the committed ``bench/reference`` CSVs pin the results to the
last bit (12-digit CSVs magnify a last-bit change, since a sag ratio is
a difference of two voltages about 1e-3 of their size), so every
floating-point operation keeps its order and its rounding.  Sums that
several links or elements feed keep their order, because ``np.add.at``
applies repeated indices in sequence and the scalar kernel adds in the
same reversed BFS order; ``+=`` on distinct slots and a skipped ``* 1.0``
leave every value as it was, which tests check after each sweep, on
both kernels.  Complex add and subtract are one IEEE operation per part
in numpy and CPython alike.  The scalar kernel holds each k that is not
1.0 as a ``complex``, so ``x * k`` is CPython's complex-by-complex
product on every version, the one numpy computes for a complex array
times a float one; Python 3.14 multiplies a complex by a float part by
part, which differs in signed zeros and non-finite values.  The
injections, ``Z @ i`` and the mismatch stay numpy on both kernels, since
CPython's complex division and ``abs()`` round differently from numpy's.
Array operations that round differently from the scalar ones (numpy 2.4,
AVX-512) are avoided:

- ``np.einsum`` for ``Z @ i``; a stacked ``np.matmul`` gives the bits of
  one ``Z @ i`` per link;
- an array complex product for the constant-Z ``v * conj(s0)``: numpy's
  vector loop fuses multiply-adds where its scalar product does not, so
  the product is written in real arithmetic, and the division by
  ``v0 * v0`` as the multiply by ``1 / (v0 * v0)`` that numpy's
  complex-by-real division performs;
- ``a * b`` with a large temporary as ``b``: numpy reuses the temporary
  and swaps the factors, and the fused product is not symmetric, so
  the flows call ``np.multiply(a, b)``;
- ``np.abs`` and ``np.angle`` where ``abs()`` and ``cmath.phase`` are
  meant: ``estimator.magnitude`` and ``estimator.angle`` keep the bits
  of the scalar calls (the mismatch keeps numpy's ``np.abs``, on both
  kernels).  ``np.sin``, ``np.cos`` and a multiply by ``180.0 / math.pi``
  matched ``math.sin``, ``math.cos`` and ``math.degrees`` on 400,000
  values.

Nominal voltage bases propagate from the source through transformer
ratios; regulator taps deliberately do not change the base, so per-unit
magnitudes downstream of a boosting regulator sit above the upstream
ones just like in the published feeder solutions.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .estimator import EstimateFlag, angle, magnitude
from .feeder import Connection, FeederModel, LoadModel, SegmentKind
from .ioutil import format_column, json_number, write_csv

COLLAPSE_PU = 0.5
# Below this mean level width (link slots per level) the scalar kernel
# sweeps faster than the array kernel.  Measured on bench/gen_feeder.py
# trees (seed 1, end split, 20 levels), per currents + forward, 2-vCPU
# Xeon VM, Python 3.11, numpy 2.4: at 8.6 slots per level scalar 64 us,
# array 78-115 us; at 12.9 both 82-126 us; at 17.2 scalar 118-154 us,
# array 110-128 us; at 21.5 scalar 134-139 us, array 81-90 us.
_SCALAR_WIDTH = 12.0


class PowerFlowError(RuntimeError):
    """Solve failed; ``trace`` holds the per-iteration mismatch history."""

    def __init__(self, message: str, trace: Optional[list] = None):
        self.trace = list(trace or [])
        super().__init__(message)


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        tol = json_number(self.tol)
        if tol is None or not 0.0 < tol < math.inf:
            raise ValueError(f"tol must be a finite number > 0, got {self.tol!r}")
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class SegmentFlow:
    """Converged per-phase electrical state of one segment.

    Complex volts at both ends (on the segment's phases), complex amperes
    into the from end and out of the to end, and the corresponding
    complex powers in VA.  For transformers and regulators the from/to
    quantities are on their respective sides of the device, so
    ``s_from - s_to`` is still exactly the series dissipation.
    """

    segment_id: str
    phases: str
    v_from: tuple
    v_to: tuple
    i_from: tuple
    i_to: tuple
    s_from: tuple
    s_to: tuple

    def loss(self, phase: str) -> complex:
        k = self.phases.index(phase)
        return self.s_from[k] - self.s_to[k]

    def loss_total(self) -> complex:
        return sum(self.s_from) - sum(self.s_to)


class _Lazy(Mapping):
    """Read-only mapping of keys to ``build(keys[key])``, built when read."""

    def __init__(self, keys: dict, build):
        self._keys, self._build = keys, build

    def __getitem__(self, key):
        return self._build(self._keys[key])

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


@dataclass(frozen=True)
class PowerFlowSolution:
    model: FeederModel
    node_voltages: Mapping  # node id -> dict phase -> complex volts (L-N)
    node_base_v: dict  # node id -> nominal L-N volts
    segment_flows: Mapping  # segment id -> SegmentFlow
    iterations: int
    max_mismatch: float
    flags: tuple = ()
    trace: tuple = ()  # mismatch after each sweep; the last is max_mismatch
    # complex VA totals at the converged voltages, for balance checks
    total_source_va: complex = 0j
    total_load_va: complex = 0j
    total_shunt_va: complex = 0j
    total_loss_va: complex = 0j
    # the settled _Network whose arrays node_voltages and segment_flows
    # build their entries from
    slots: Optional[_Network] = field(default=None, repr=False, compare=False)

    def voltage(self, node_id: str, phase: str) -> complex:
        return self.node_voltages[node_id][phase]

    def voltage_pu(self, node_id: str, phase: str) -> complex:
        return self.node_voltages[node_id][phase] / self.node_base_v[node_id]

    def power_balance_residual_pu(self) -> float:
        """|source - load - shunt - loss| over the feeder power base."""
        residual = self.total_source_va - (
            self.total_load_va + self.total_shunt_va + self.total_loss_va
        )
        return abs(residual) / (self.model.base.power_kva * 1e3)


_MODEL_ORDER = (LoadModel.CONSTANT_PQ, LoadModel.CONSTANT_Z, LoadModel.CONSTANT_I)
_BRANCH_ROW = [("element", int), ("a", int), ("b", int), ("s0", complex), ("v0", float)]


def _stacked_z(segs: list) -> np.ndarray:
    """The z_total() of each segment, stacked.  Each distinct per-mile
    matrix object becomes an array once and is scaled by a length vector:
    numpy's complex times float has the bits of Python's."""
    scaled = [s.kind != SegmentKind.TRANSFORMER and s.z_per_mile is not None for s in segs]
    table = {}  # id of a matrix -> its number and the matrix
    pick = [table.setdefault(id(z), (len(table), z))[0]
            for z in (s.z_per_mile if k else s.z_total() for s, k in zip(segs, scaled))]
    z = np.array([m for _, m in table.values()], dtype=complex)[pick]
    lengths = [s.length_miles for s, k in zip(segs, scaled) if k]
    z[scaled] = z[scaled] * np.array(lengths, dtype=float)[:, None, None]
    return z


class _Network:
    """A feeder's links and injection branches as arrays over node slots.

    A node slot is one phase of one node.  Slots run over the nodes in
    BFS order, each node's phases in the order of the segment feeding it
    (the source keeps its own); voltage vectors carry one more slot, the
    ground, fixed at 0 V.  A segment's link slots are its to node's
    slots, so ``up`` (the from-node slot), ``k`` and ``base`` are indexed
    by slot, and BFS order puts each tree level in one run of slots.
    """

    def __init__(self, model: FeederModel):
        src = model.source.node
        self.phases = {src: model.node(src).phases}
        self.bases = {src: model.source.nominal_kv_ll * 1e3 / math.sqrt(3.0)}
        self.first = {src: 0}
        self.n_source = n = len(self.phases[src])
        up, k, base = [0] * n, [1.0] * n, [self.bases[src]] * n
        ends, by_width = [n], {}  # ends: the first slot past each level
        self.links = []  # (segment, first slot of its to node), BFS order
        for level in model._levels:
            for seg in level:
                at, width, b = len(up), len(seg.phases), self.bases[seg.from_node]
                taps = (1.0,) * width
                if seg.kind == SegmentKind.REGULATOR:
                    taps = seg.taps
                elif seg.kind == SegmentKind.TRANSFORMER:
                    taps, b = (1.0 / seg.ratio,) * width, b / seg.ratio
                upstream = self.phases[seg.from_node]
                up += [self.first[seg.from_node] + upstream.index(p) for p in seg.phases]
                k += taps
                base += [b] * width
                self.links.append((seg, at))
                self.phases[seg.to_node], self.bases[seg.to_node] = seg.phases, b
                self.first[seg.to_node] = at
                rows, segs = by_width.setdefault(width, ([], []))
                rows.append(at)
                segs.append(seg)
            ends.append(len(up))
        self.n_slots = len(up)
        self.up, self.k, self.base = np.array(up), np.array(k), np.array(base)
        self.link_of_slot = np.repeat(
            np.arange(len(self.links)), [len(seg.phases) for seg, _ in self.links]
        )
        self.z_groups = [(np.array(rows)[:, None] + np.arange(width), _stacked_z(segs))
                         for width, (rows, segs) in by_width.items()]
        # each level's slots lo:hi, their from slots, their k (None when
        # every k is 1.0) and whether a from slot repeats in the level
        self.levels = [
            (lo, hi, self.up[lo:hi], None if k[lo:hi].count(1.0) == hi - lo else self.k[lo:hi],
             len(set(up[lo:hi])) < hi - lo)
            for lo, hi in zip(ends, ends[1:])
        ]
        # the scalar kernel's rows: each link slot, its from slot and its
        # k (None where it is 1.0), in BFS order
        self.scalar = self.n_slots - n < _SCALAR_WIDTH * len(self.levels)
        self.chain = [(s, u, None if t == 1.0 else complex(t))
                      for s, u, t in zip(range(n, self.n_slots), up[n:], k[n:])
                      ] if self.scalar else None
        self._build_injections(model)

    def _build_injections(self, model: FeederModel) -> None:
        """Branch tables of every load and capacitor bank, by load model.

        A branch draws its current at slot ``a`` and returns it at slot
        ``b``: the ground for wye and capacitor branches, the second phase
        for delta, whose ``v0`` is the base times sqrt(3).  A capacitor
        is a constant-PQ wye element of ``-j kvar``.  Elements are
        numbered in node order, a node's loads in model order and then its
        capacitor bank, which is also the order their element slots are
        summed into node slots in.  Each element has one element slot per
        node slot it touches, in slot order.  Branches with s0 == 0 draw
        nothing and are left out.
        """
        ground = self.n_slots
        loads = {n.id: [] for n in model.nodes}
        for ld in model.loads:
            loads[ld.node].append(ld)
        self.shunt_va = 0j
        self.elements = []  # (node, is a capacitor bank) of each drawing element
        # (element, a, b, s0, v0) of each drawing branch, by load model
        rows = {load_model: [] for load_model in _MODEL_ORDER}

        def add(node, shunt, load_model, v0, branches):
            live = [(len(self.elements), a, b, s0, v0) for a, b, s0 in branches if s0 != 0]
            if live:
                self.elements.append((node, shunt))
                rows[load_model].extend(live)

        for node, node_loads in loads.items():
            at, phases, base = self.first[node], self.phases[node], self.bases[node]
            slot = dict(zip(phases, range(at, at + len(phases))))
            slot[None] = ground
            for ld in node_loads:
                wye = ld.conn == Connection.WYE
                pairs = [(p, None) for p in ld.phases] if wye else ld.branches()
                add(node, False, ld.model, base if wye else base * math.sqrt(3.0), [
                    (slot[p], slot[q], (kw + 1j * kvar) * 1e3)
                    for (p, q), kw, kvar in zip(pairs, ld.kw, ld.kvar)
                ])
            seg = model.segment_into(node)
            if seg is not None and seg.shunt_kvar is not None:
                caps = [(slot[p], ground, -1j * (q * 1e3))
                        for p, q in zip(seg.phases, seg.shunt_kvar)]
                self.shunt_va += sum(s0 for _, _, s0 in caps)
                add(node, True, LoadModel.CONSTANT_PQ, base, caps)

        # branches grouped by model, each model's in element order
        t = np.array([row for group in rows.values() for row in group], dtype=_BRANCH_ROW)
        ends = [0, *itertools.accumulate(map(len, rows.values()))]
        self.pq, self.z, self.ci = (slice(lo, hi) for lo, hi in zip(ends, ends[1:]))
        self.br_a, self.br_b = t["a"].copy(), t["b"].copy()
        self.s0 = t["s0"].copy()
        self.delta = np.flatnonzero(self.br_b != ground)
        # element slots: the distinct (element, slot) keys, element-major
        span = self.n_slots + 1
        keys = t["element"] * span
        keys = np.concatenate([keys + self.br_a, (keys + self.br_b)[self.delta]])
        eslots, at_key = np.unique(keys, return_inverse=True)
        self.eslot_node, self.eslot_elem = eslots % span, eslots // span
        self.e_in, self.e_out = at_key[:len(t)], at_key[len(t):]
        # constant Z: v * conj(s0) / (v0 * v0), the product in real arithmetic
        v0 = t["v0"][self.z]
        self.z_re, self.z_im = self.s0[self.z].real, -self.s0[self.z].imag
        self.z_scale = 1.0 / (v0 * v0)
        # constant I: |s0| / v0 at the angle of v less that of s0
        s0 = self.s0[self.ci]
        self.i_mag = magnitude(s0) / t["v0"][self.ci]
        self.i_angle = angle(s0)

    def flat_start(self, source) -> np.ndarray:
        """Source magnitudes and angles at every slot, then the ground."""
        sref = {ph: pu * cmath.exp(1j * math.radians(ang))
                for ph, ang, pu in zip("ABC", source.angles_deg, source.voltage_pu)}
        v = [self.bases[node] * sref[p] for node in self.first for p in self.phases[node]]
        return np.array(v + [0j], dtype=complex)

    def injections(self, v: np.ndarray) -> np.ndarray:
        """Current each element draws at its element slots at voltages v:
        every branch current counts at ``a`` and, negated, at ``b``."""
        vb = v[self.br_a] - v[self.br_b]
        i = np.empty(len(vb), dtype=complex)
        i[self.pq] = np.conj(self.s0[self.pq] / vb[self.pq])
        vz, iz = vb[self.z], i[self.z]
        iz.real = (vz.real * self.z_re - vz.imag * self.z_im) * self.z_scale
        iz.imag = (vz.real * self.z_im + vz.imag * self.z_re) * self.z_scale
        theta = angle(vb[self.ci]) - self.i_angle
        ii = i[self.ci]
        ii.real = self.i_mag * np.cos(theta)
        ii.imag = self.i_mag * np.sin(theta)
        e = np.zeros(len(self.eslot_node), dtype=complex)
        e[self.e_in] = i
        e[self.e_out] -= i[self.delta]
        return e

    def currents(self, e: np.ndarray) -> np.ndarray:
        """Node injections summed per slot, then each link's i_to * k
        added to its from slot in reversed BFS order: one slot at a time
        on the scalar kernel; per level, from the deepest up, on the array
        kernel, by ``np.add.at`` where a from slot repeats."""
        i = np.zeros(self.n_slots, dtype=complex)
        np.add.at(i, self.eslot_node, e)
        if self.scalar:
            il = i.tolist()
            for s, up, k in reversed(self.chain):
                il[up] += il[s] if k is None else il[s] * k
            i[:] = il
            return i
        for lo, hi, up, k, fan in reversed(self.levels):
            x = i[lo:hi] if k is None else i[lo:hi] * k
            if fan:
                np.add.at(i, up[::-1], x[::-1])
            else:
                i[up] += x
        return i

    def forward(self, v: np.ndarray, i: np.ndarray) -> None:
        """v_to = k * v_from - Z @ i_to from the source down: slot by slot
        on the scalar kernel, level by level on the array kernel."""
        drop = np.empty(self.n_slots, dtype=complex)
        for rows, z in self.z_groups:
            drop[rows] = (z @ i[rows][:, :, None])[:, :, 0]
        if self.scalar:
            vl, dl = v.tolist(), drop.tolist()
            for s, up, k in self.chain:
                vl[s] = vl[up] - dl[s] if k is None else vl[up] * k - dl[s]
            v[:] = vl
            return
        for lo, hi, up, k, _ in self.levels:
            if k is None:
                np.subtract(v[up], drop[lo:hi], out=v[lo:hi])
            else:
                v[lo:hi] = v[up] * k - drop[lo:hi]

    def mismatch(self, v: np.ndarray, before: np.ndarray) -> float:
        """Largest voltage update of a non-source slot over its base."""
        s = slice(self.n_source, self.n_slots)
        return float(np.max(np.abs(v[s] - before[s]) / self.base[s], initial=0.0))

    def settle(self, model: FeederModel, v: np.ndarray, i: np.ndarray) -> None:
        """Keep the state: ``v`` at every slot, and per link row r (slot
        ``n_source + r``) its v_from, v_to, i_from, i_to, s_from and s_to;
        and ``node_rows``, the slot of each node phase in model order, each
        node's phases in the node's own order."""
        s = slice(self.n_source, self.n_slots)
        self.v, self.v_from, self.v_to, self.i_to = v, v[self.up[s]], v[s], i[s]
        self.i_from = self.i_to * self.k[s]
        # np.multiply, not `*`: numpy may reuse a large temporary operand
        # and swap the factors, which changes the last bit
        self.s_from = np.multiply(self.v_from, np.conj(self.i_from))
        self.s_to = np.multiply(self.v_to, np.conj(self.i_to))
        self.node_rows = np.array([self.first[n.id] + self.phases[n.id].index(ph)
                                   for n in model.nodes for ph in n.phases], dtype=int)

    def rows(self, seg) -> range:
        """The link rows of a segment, in its phase order."""
        at = self.first[seg.to_node] - self.n_source
        return range(at, at + len(seg.phases))

    def voltages(self, node) -> dict:
        """A node's complex volts by phase, in the node's own phase order."""
        at = self.first[node.id]
        by_phase = dict(zip(self.phases[node.id], self.v[at:at + len(node.phases)].tolist()))
        return {ph: by_phase[ph] for ph in node.phases}

    def flow(self, seg) -> SegmentFlow:
        """A segment's SegmentFlow, read from the link columns."""
        rows = self.rows(seg)
        r = slice(rows.start, rows.stop)
        cols = (self.v_from, self.v_to, self.i_from, self.i_to, self.s_from, self.s_to)
        return SegmentFlow(seg.id, seg.phases, *(tuple(c[r].tolist()) for c in cols))

    def loss(self) -> complex:
        """Total series loss, summed per link and then in BFS order."""
        loss = np.zeros(len(self.links), dtype=complex)
        np.add.at(loss, self.link_of_slot, self.s_from - self.s_to)
        return sum(loss.tolist(), 0j)

    def drawn(self, v: np.ndarray, e: np.ndarray) -> list:
        """Complex power each element draws at voltages v."""
        d = np.zeros(len(self.elements), dtype=complex)
        np.add.at(d, self.eslot_elem, np.multiply(v[self.eslot_node], np.conj(e)))
        return d.tolist()


def solve(model: FeederModel, options: SolveOptions = SolveOptions()) -> PowerFlowSolution:
    """Solve the feeder; raises PowerFlowError when sweeps do not settle."""
    if any(ld.segment is not None for ld in model.loads):
        raise ValueError(
            "model has distributed loads; apply expand_distributed_loads "
            "(or an end-split) before solving"
        )

    net = _Network(model)
    v = net.flat_start(model.source)
    trace = []  # SolveOptions guarantees max_iter >= 1 sweeps
    # PowerFlowError reports a diverging sweep; numpy's warnings would repeat it
    with np.errstate(all="ignore"):
        for iterations in range(1, options.max_iter + 1):
            before = v.copy()
            net.forward(v, net.currents(net.injections(v)))
            mismatch = net.mismatch(v, before)
            trace.append(mismatch)
            if not math.isfinite(mismatch):
                raise PowerFlowError(
                    f"numerical blow-up after {iterations} sweeps", trace
                )
            if mismatch < options.tol:
                break
        else:
            raise PowerFlowError(
                f"no convergence in {options.max_iter} sweeps "
                f"(last mismatch {mismatch:.3e} pu)",
                trace,
            )

    # one more backward pass so currents are consistent with the
    # converged voltages, then assemble flows and totals
    e = net.injections(v)
    net.settle(model, v, net.currents(e))
    src = model.source.node
    total_source = sum(
        (sum(net.flow(s).s_from) for s in model.segments_from(src)), 0j
    )
    total_load = 0j
    for (node, shunt), drawn in zip(net.elements, net.drawn(v, e)):
        if shunt:
            continue
        total_load += drawn
        if node == src:  # the source also feeds the loads at its own node
            total_source += drawn

    # outputs list each node's phases in the node's own order
    u = v[net.node_rows]
    low = np.flatnonzero(magnitude(u) < COLLAPSE_PU * net.base[net.node_rows])
    names = [f"{n.id}.{ph}" for n in model.nodes for ph in n.phases] if low.size else []
    flag = EstimateFlag.VOLTAGE_COLLAPSE_SUSPECT.value

    return PowerFlowSolution(
        model=model,
        node_voltages=_Lazy(model._node_by_id, net.voltages),
        node_base_v=net.bases,
        segment_flows=_Lazy({seg.id: seg for seg, _ in net.links}, net.flow),
        iterations=iterations,
        max_mismatch=mismatch,
        flags=tuple(f"{flag}:{names[j]}" for j in low.tolist()),
        trace=tuple(trace),
        total_source_va=total_source,
        total_load_va=total_load,
        total_shunt_va=net.shunt_va,
        total_loss_va=net.loss(),
        slots=net,
    )


def loss_from_currents(solution: PowerFlowSolution, segment_id: str) -> complex:
    """Series loss recomputed as i^H Z i, independent of the power bookkeeping."""
    seg = solution.model.segment(segment_id)
    flow = solution.segment_flows[segment_id]
    i = np.array(flow.i_to, dtype=complex)
    z = np.array(seg.z_total(), dtype=complex)
    return complex(np.conj(i) @ z @ i)


def write_voltages_csv(solution: PowerFlowSolution, path) -> None:
    slots, nodes = solution.slots, solution.model.nodes
    u = slots.v[slots.node_rows]
    columns = (
        [n.id for n in nodes for _ in n.phases],
        "".join(n.phases for n in nodes),
        format_column(magnitude(u)),
        # math.degrees(x) is x * (180.0 / math.pi)
        format_column(angle(u) * (180.0 / math.pi)),
    )
    write_csv(path, ["node", "phase", "magnitude_v", "angle_deg"], list(zip(*columns)))


def write_flows_csv(solution: PowerFlowSolution, path) -> None:
    slots, segs = solution.slots, solution.model.segments
    rows = [r for seg in segs for r in slots.rows(seg)]
    s_from, s_to = slots.s_from[rows], slots.s_to[rows]
    columns = (
        [seg.id for seg in segs for _ in seg.phases],
        "".join(seg.phases for seg in segs),
        *(format_column(x / 1e3) for x in (s_from.real, s_from.imag, s_to.real, s_to.imag)),
    )
    header = ["segment", "phase", "p_in_kw", "q_in_kvar", "p_out_kw", "q_out_kvar"]
    write_csv(path, header, list(zip(*columns)))
