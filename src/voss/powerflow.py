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
of branch rows, in node order, that one stable sort groups by load
model; one ``np.unique`` over (element, slot) keys gives the element
slots.  The sweep and the load and source totals use the same tables.

The sweep runs on tables built once per solve, the array form of
Shirmohammadi et al. (1988) with the level view of Teng (2003).  All
node slots sit in one complex vector in BFS order, and the links are
grouped by tree depth.  Each sweep is:

- one array expression per load model for every branch current, summed
  into element slots and then, in element order, into node slots;
- going up, one ``np.add.at`` per level adding ``i_to * k`` into the
  from slots, each level's links in reversed BFS order;
- one stacked ``np.matmul`` per phase count for every ``Z @ i_to``;
- going down, one ``v_to = k * v_from - Z @ i_to`` per level;
- the mismatch as one max over the non-source slots, so that a NaN
  update ends the solve as a blow-up instead of being skipped.

Same bits: the committed ``bench/reference`` CSVs pin the results to the
last bit (12-digit CSVs magnify a last-bit change, since a sag ratio is
a difference of two voltages about 1e-3 of their size), so every
floating-point operation keeps its order and its rounding.  Sums that
several links or elements feed keep their order, because ``np.add.at``
applies repeated indices in sequence.  Array operations that round
differently from the scalar ones (numpy 2.4, AVX-512) are avoided:

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
- ``np.angle``/``np.arctan2`` for the constant-I ``cmath.phase(v)``,
  which runs per element through ``np.frompyfunc``, and ``np.abs`` or
  ``np.angle`` for ``abs(s0)`` and ``cmath.phase(s0)``, which are
  computed once per branch in Python while the tables are built.

Nominal voltage bases propagate from the source through transformer
ratios; regulator taps deliberately do not change the base, so per-unit
magnitudes downstream of a boosting regulator sit above the upstream
ones just like in the published feeder solutions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimator import EstimateFlag
from .feeder import (
    Connection,
    FeederModel,
    LoadModel,
    SegmentKind,
)
from .ioutil import format_float, write_csv

COLLAPSE_PU = 0.5


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
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


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


@dataclass(frozen=True)
class PowerFlowSolution:
    model: FeederModel
    node_voltages: dict  # node id -> dict phase -> complex volts (L-N)
    node_base_v: dict  # node id -> nominal L-N volts
    segment_flows: dict  # segment id -> SegmentFlow
    iterations: int
    max_mismatch: float
    flags: tuple = ()
    trace: tuple = ()  # mismatch after each sweep; the last is max_mismatch
    # complex VA totals at the converged voltages, for balance checks
    total_source_va: complex = 0j
    total_load_va: complex = 0j
    total_shunt_va: complex = 0j
    total_loss_va: complex = 0j

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


def _phase_angles(source) -> dict:
    out = {}
    for ph, ang, pu in zip("ABC", source.angles_deg, source.voltage_pu):
        out[ph] = pu * cmath.exp(1j * math.radians(ang))
    return out


# cmath.phase element by element: np.angle rounds differently
_phase = np.frompyfunc(cmath.phase, 1, 1)

_MODEL_ORDER = (LoadModel.CONSTANT_PQ, LoadModel.CONSTANT_Z, LoadModel.CONSTANT_I)
_BRANCH_ROW = [("element", int), ("a", int), ("b", int), ("rank", int),
               ("s0", complex), ("v0", float)]


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
        up, k, base = [0] * n, [1.0] * n, [1.0] * n
        depth, level_ends, by_width = {src: 0}, [], {}
        self.links = []  # (segment, first slot of its to node), BFS order
        for seg in model.bfs_segments():
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
            depth[seg.to_node] = depth[seg.from_node] + 1
            if depth[seg.to_node] > len(level_ends):
                level_ends.append(0)
            level_ends[-1] = len(up)
            rows, zs = by_width.setdefault(width, ([], []))
            rows.append(range(at, at + width))
            zs.append(seg.z_total())
        self.n_slots = len(up)
        self.up, self.k, self.base = np.array(up), np.array(k), np.array(base)
        self.link_of_slot = np.repeat(
            np.arange(len(self.links)), [len(seg.phases) for seg, _ in self.links]
        )
        # Z of every link stacked per phase count, and each level's link
        # slots in reversed BFS order, so that a slot fed by several links
        # sums them in the order of a segment-by-segment backward sweep
        self.z_groups = [
            (np.array(rows), np.array(zs, dtype=complex))
            for rows, zs in by_width.values()
        ]
        self.levels = []
        for lo, hi in zip([n] + level_ends, level_ends):
            to = slice(hi - 1, lo - 1, -1)
            self.levels.append((to, self.up[to], self.k[to]))
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
        rows = []  # (element, a, b, model rank, s0, v0) of each drawing branch

        def add(node, shunt, load_model, v0, branches):
            rank = _MODEL_ORDER.index(load_model)
            live = [(len(self.elements), a, b, rank, s0, v0)
                    for a, b, s0 in branches if s0 != 0]
            if live:
                self.elements.append((node, shunt))
                rows.extend(live)

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
        t = np.array(rows, dtype=_BRANCH_ROW)
        t = t[np.argsort(t["rank"], kind="stable")]
        ends = np.searchsorted(t["rank"], range(len(_MODEL_ORDER) + 1))
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
        ci = list(zip(self.s0[self.ci].tolist(), t["v0"][self.ci].tolist()))
        self.i_mag = np.array([abs(s0) / v0 for s0, v0 in ci], dtype=float)
        self.i_angle = np.array([cmath.phase(s0) for s0, _ in ci], dtype=float)

    def flat_start(self, source) -> np.ndarray:
        """Source magnitudes and angles at every slot, then the ground."""
        sref = _phase_angles(source)
        v = [self.bases[node] * sref[p] for node in self.first
             for p in self.phases[node]]
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
        angle = _phase(vb[self.ci]).astype(float) - self.i_angle
        ii = i[self.ci]
        ii.real = self.i_mag * np.cos(angle)
        ii.imag = self.i_mag * np.sin(angle)
        e = np.zeros(len(self.eslot_node), dtype=complex)
        e[self.e_in] = i
        e[self.e_out] -= i[self.delta]
        return e

    def currents(self, e: np.ndarray) -> np.ndarray:
        """Node injections summed per slot, then each level's i_to * k
        added to its from slots, from the deepest level up."""
        i = np.zeros(self.n_slots, dtype=complex)
        np.add.at(i, self.eslot_node, e)
        for to, up, k in reversed(self.levels):
            np.add.at(i, up, i[to] * k)
        return i

    def forward(self, v: np.ndarray, i: np.ndarray) -> None:
        """v_to = k * v_from - Z @ i_to, level by level from the source."""
        drop = np.empty(self.n_slots, dtype=complex)
        for rows, z in self.z_groups:
            drop[rows] = (z @ i[rows][:, :, None])[:, :, 0]
        for to, up, k in self.levels:
            v[to] = v[up] * k - drop[to]

    def mismatch(self, v: np.ndarray, before: np.ndarray) -> float:
        """Largest voltage update of a non-source slot over its base."""
        s = slice(self.n_source, self.n_slots)
        return float(np.max(np.abs(v[s] - before[s]) / self.base[s], initial=0.0))

    def flows(self, v: np.ndarray, i: np.ndarray) -> tuple:
        """SegmentFlow per segment id in BFS order, and their total loss."""
        s = slice(self.n_source, self.n_slots)
        v_from, i_to = v[self.up[s]], i[s]
        i_from = i_to * self.k[s]
        # np.multiply, not `*`: numpy may reuse a large temporary operand
        # and swap the factors, which changes the last bit
        s_from = np.multiply(v_from, np.conj(i_from))
        s_to = np.multiply(v[s], np.conj(i_to))
        loss = np.zeros(len(self.links), dtype=complex)
        np.add.at(loss, self.link_of_slot, s_from - s_to)
        cols = [x.tolist() for x in (v_from, v[s], i_from, i_to, s_from, s_to)]
        flows = {}
        for seg, at in self.links:
            r = slice(at - self.n_source, at - self.n_source + len(seg.phases))
            flows[seg.id] = SegmentFlow(
                seg.id, seg.phases, *(tuple(col[r]) for col in cols)
            )
        return flows, sum(loss.tolist(), 0j)

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
    flows, total_loss = net.flows(v, net.currents(e))
    src = model.source.node
    total_source = sum(
        (sum(flows[s.id].s_from) for s in model.segments_from(src)), 0j
    )
    total_load = 0j
    for (node, shunt), drawn in zip(net.elements, net.drawn(v, e)):
        if shunt:
            continue
        total_load += drawn
        if node == src:  # the source also feeds the loads at its own node
            total_source += drawn

    # outputs list each node's phases in the node's own order
    node_voltages = {}
    flags = []
    volts = v.tolist()
    for n in model.nodes:
        at = net.first[n.id]
        by_phase = dict(zip(net.phases[n.id], volts[at:at + len(n.phases)]))
        node_voltages[n.id] = {ph: by_phase[ph] for ph in n.phases}
        for ph in n.phases:
            if abs(by_phase[ph]) < COLLAPSE_PU * net.bases[n.id]:
                flags.append(
                    f"{EstimateFlag.VOLTAGE_COLLAPSE_SUSPECT.value}:{n.id}.{ph}"
                )

    return PowerFlowSolution(
        model=model,
        node_voltages=node_voltages,
        node_base_v=net.bases,
        segment_flows=flows,
        iterations=iterations,
        max_mismatch=mismatch,
        flags=tuple(flags),
        trace=tuple(trace),
        total_source_va=total_source,
        total_load_va=total_load,
        total_shunt_va=net.shunt_va,
        total_loss_va=total_loss,
    )


def loss_from_currents(solution: PowerFlowSolution, segment_id: str) -> complex:
    """Series loss recomputed as i^H Z i, independent of the power bookkeeping."""
    seg = solution.model.segment(segment_id)
    flow = solution.segment_flows[segment_id]
    i = np.array(flow.i_to, dtype=complex)
    z = np.array(seg.z_total(), dtype=complex)
    return complex(np.conj(i) @ z @ i)


def write_voltages_csv(solution: PowerFlowSolution, path) -> None:
    rows = []
    for n in solution.model.nodes:
        for ph in n.phases:
            u = solution.node_voltages[n.id][ph]
            rows.append(
                [n.id, ph, format_float(abs(u)),
                 format_float(math.degrees(cmath.phase(u)))]
            )
    write_csv(path, ["node", "phase", "magnitude_v", "angle_deg"], rows)


def write_flows_csv(solution: PowerFlowSolution, path) -> None:
    rows = []
    for seg in solution.model.segments:
        flow = solution.segment_flows[seg.id]
        for k, ph in enumerate(flow.phases):
            rows.append(
                [
                    seg.id,
                    ph,
                    format_float(flow.s_from[k].real / 1e3),
                    format_float(flow.s_from[k].imag / 1e3),
                    format_float(flow.s_to[k].real / 1e3),
                    format_float(flow.s_to[k].imag / 1e3),
                ]
            )
    write_csv(
        path,
        ["segment", "phase", "p_in_kw", "q_in_kvar", "p_out_kw", "q_out_kvar"],
        rows,
    )
