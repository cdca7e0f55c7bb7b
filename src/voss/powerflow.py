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
``v_to = k * v_from[slots] - Z @ i_to``.  A node's arrays are in the
phase order of the segment feeding it (the source keeps its own), so the
to side needs no index map; phase names are matched only while the
tables are built and in the output dicts.

Every load and capacitor bank is one injection element: branches
``(a, b, model, s0, v0)`` between node slots resolved before the first
sweep, ``b`` None (the neutral) for wye, ``v0`` the base times sqrt(3)
for delta.  A capacitor is a constant-PQ wye element of ``-j kvar``.  One
rule turns each branch into a current entering slot ``a`` and leaving
``b``; the sweep and the load and source totals all use it.

Nominal voltage bases propagate from the source through transformer
ratios; regulator taps deliberately do not change the base, so per-unit
magnitudes downstream of a boosting regulator sit above the upstream
ones just like in the published feeder solutions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .estimator import EstimateFlag, LossEstimate
from .feeder import (
    Connection,
    FeederModel,
    LoadModel,
    Placement,
    SegmentKind,
)
from .ioutil import format_float, write_csv

# Fraction of the feeder power base below which a per-phase input power
# is treated as "no signal" for loss-fraction purposes.  Chosen so the
# single-digit-kVA spur lines on the bundled 34-node feeder fall under it
# while every normally loaded line clears it by more than 10x.
NEAR_ZERO_POWER_FRACTION = 2e-3

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

    def near_zero_va(self, fraction: float = NEAR_ZERO_POWER_FRACTION) -> float:
        return fraction * self.model.base.power_kva * 1e3


def _phase_angles(source) -> dict:
    out = {}
    for ph, ang, pu in zip("ABC", source.angles_deg, source.voltage_pu):
        out[ph] = pu * cmath.exp(1j * math.radians(ang))
    return out


def _branch_current(model: LoadModel, s0: complex, v: complex, v0: float) -> complex:
    if s0 == 0:
        return 0j
    if model == LoadModel.CONSTANT_PQ:
        return np.conj(s0 / v)
    if model == LoadModel.CONSTANT_Z:
        # fixed impedance |v0|^2 / conj(s0)
        return v * np.conj(s0) / (v0 * v0)
    # constant current magnitude at the rated power-factor angle
    mag = abs(s0) / v0
    return mag * cmath.exp(1j * (cmath.phase(v) - cmath.phase(s0)))


def _injection(branches: list, v: np.ndarray) -> np.ndarray:
    """Current vector drawn by one injection element at node voltages v."""
    out = np.zeros(len(v), dtype=complex)
    for a, b, model, s0, v0 in branches:
        if b is None:
            out[a] += _branch_current(model, s0, v[a], v0)
        else:
            i = _branch_current(model, s0, v[a] - v[b], v0)
            out[a] += i
            out[b] -= i
    return out


def solve(model: FeederModel, options: SolveOptions = SolveOptions()) -> PowerFlowSolution:
    """Solve the feeder; raises PowerFlowError when sweeps do not settle."""
    if any(ld.placement == Placement.DISTRIBUTED for ld in model.loads):
        raise ValueError(
            "model has distributed loads; apply expand_distributed_loads "
            "(or an end-split) before solving"
        )

    # One link per segment in BFS order: (segment, from-node slots of its
    # phases, transfer factor k, series impedance Z).  Node slots follow
    # the feeding segment's phase string; the source keeps its own.
    src = model.source.node
    slot_phases = {src: model.node(src).phases}
    bases = {src: model.source.nominal_kv_ll * 1e3 / math.sqrt(3.0)}
    links = []
    for seg in model.bfs_segments():
        k, base = 1.0, bases[seg.from_node]
        if seg.kind == SegmentKind.REGULATOR:
            k = np.array(seg.taps)
        elif seg.kind == SegmentKind.TRANSFORMER:
            k, base = 1.0 / seg.ratio, base / seg.ratio
        upstream = slot_phases[seg.from_node]
        slots = [upstream.index(p) for p in seg.phases]
        links.append((seg, slots, k, np.array(seg.z_total(), dtype=complex)))
        slot_phases[seg.to_node] = seg.phases
        bases[seg.to_node] = base

    # (shunt, branches) per node: its loads in model order, then its
    # capacitor bank, whose kvar follow the feeding segment's phases
    elements = {n.id: [] for n in model.nodes}
    for ld in model.loads:
        phases, v0 = slot_phases[ld.node], bases[ld.node]
        if ld.conn == Connection.WYE:
            pairs = [(p, None) for p in ld.phases]
        else:
            pairs, v0 = ld.branches(), v0 * math.sqrt(3.0)
        branches = [
            (phases.index(p), None if q is None else phases.index(q),
             ld.model, (kw + 1j * kvar) * 1e3, v0)
            for (p, q), kw, kvar in zip(pairs, ld.kw, ld.kvar)
        ]
        elements[ld.node].append((False, branches))
    for seg in model.segments:
        if seg.shunt_kvar is not None:
            elements[seg.to_node].append((True, [
                (j, None, LoadModel.CONSTANT_PQ, -1j * (q * 1e3), bases[seg.to_node])
                for j, q in enumerate(seg.shunt_kvar)
            ]))

    # flat start at source magnitude and angles
    sref = _phase_angles(model.source)
    v = {
        n.id: np.array(
            [bases[n.id] * sref[p] for p in slot_phases[n.id]], dtype=complex
        )
        for n in model.nodes
    }

    def backward() -> list:
        """Node injections at present voltages, then i_to of every link."""
        curr = {}
        for node, node_elements in elements.items():
            curr[node] = np.zeros(len(v[node]), dtype=complex)
            for _, branches in node_elements:
                curr[node] += _injection(branches, v[node])
        i_to = []
        for seg, slots, k, _ in reversed(links):
            i = curr[seg.to_node]
            curr[seg.from_node][slots] += i * k
            i_to.append(i)
        return i_to[::-1]

    trace = []  # SolveOptions guarantees max_iter >= 1 sweeps
    for iterations in range(1, options.max_iter + 1):
        mismatch = 0.0
        for (seg, slots, k, z), i in zip(links, backward()):
            v_new = v[seg.from_node][slots] * k - z @ i
            delta = np.abs(v_new - v[seg.to_node]).max() / bases[seg.to_node]
            mismatch = max(mismatch, float(delta))
            v[seg.to_node] = v_new
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
    flows = {}
    total_loss = 0j
    for (seg, slots, k, _), i in zip(links, backward()):
        v_from, i_from = v[seg.from_node][slots], i * k
        s_from = v_from * np.conj(i_from)
        s_to = v[seg.to_node] * np.conj(i)
        flows[seg.id] = SegmentFlow(
            segment_id=seg.id,
            phases=seg.phases,
            v_from=tuple(map(complex, v_from)),
            v_to=tuple(map(complex, v[seg.to_node])),
            i_from=tuple(map(complex, i_from)),
            i_to=tuple(map(complex, i)),
            s_from=tuple(map(complex, s_from)),
            s_to=tuple(map(complex, s_to)),
        )
        total_loss += complex(np.sum(s_from - s_to))

    total_source = sum(
        (sum(flows[s.id].s_from) for s in model.segments_from(src)), 0j
    )
    total_load = total_shunt = 0j
    for node, node_elements in elements.items():
        for shunt, branches in node_elements:
            if shunt:
                total_shunt += sum(s0 for _, _, _, s0, _ in branches)
                continue
            drawn = complex(np.sum(v[node] * np.conj(_injection(branches, v[node]))))
            total_load += drawn
            if node == src:  # the source also feeds the loads at its own node
                total_source += drawn

    # outputs list each node's phases in the node's own order
    node_voltages = {}
    flags = []
    for n in model.nodes:
        by_phase = dict(zip(slot_phases[n.id], map(complex, v[n.id])))
        node_voltages[n.id] = {ph: by_phase[ph] for ph in n.phases}
        for ph in n.phases:
            if abs(by_phase[ph]) < COLLAPSE_PU * bases[n.id]:
                flags.append(
                    f"{EstimateFlag.VOLTAGE_COLLAPSE_SUSPECT.value}:{n.id}.{ph}"
                )

    return PowerFlowSolution(
        model=model,
        node_voltages=node_voltages,
        node_base_v=bases,
        segment_flows=flows,
        iterations=iterations,
        max_mismatch=mismatch,
        flags=tuple(flags),
        total_source_va=total_source,
        total_load_va=total_load,
        total_shunt_va=total_shunt,
        total_loss_va=total_loss,
    )


def loss_from_currents(solution: PowerFlowSolution, segment_id: str) -> complex:
    """Series loss recomputed as i^H Z i, independent of the power bookkeeping."""
    seg = solution.model.segment(segment_id)
    flow = solution.segment_flows[segment_id]
    i = np.array(flow.i_to, dtype=complex)
    z = np.array(seg.z_total(), dtype=complex)
    return complex(np.conj(i) @ z @ i)


def path_segment_ids(model: FeederModel, head: str, tail: str) -> list:
    """Segment ids on the downstream chain head -> tail."""
    return [s.id for s in model.path_segments(head, tail)]


def true_loss_fractions(
    solution: PowerFlowSolution,
    segment_ids: Sequence[str],
    phase: str,
    near_zero_fraction: float = NEAR_ZERO_POWER_FRACTION,
) -> LossEstimate:
    """Loss fraction of a contiguous path from the simulated complex flows.

    The numerator is the sum of per-segment series dissipation on the
    given phase, so power delivered to taps between the endpoints is not
    counted as loss.  Input power below the near-zero threshold flags the
    result as NearZeroPower (excluded-by-default noise); zero input power
    is always flagged and gives a NaN loss fraction.
    """
    if not segment_ids:
        raise ValueError("empty path")
    segs = [solution.model.segment(sid) for sid in segment_ids]
    for up, down in zip(segs, segs[1:]):
        if down.from_node != up.to_node:
            raise ValueError(
                f"path breaks at {up.id} -> {down.id}: not contiguous"
            )
    for seg in segs:
        if phase not in seg.phases:
            raise ValueError(f"phase {phase} not present on segment {seg.id}")

    head = solution.segment_flows[segs[0].id]
    s_in = head.s_from[segs[0].phases.index(phase)]
    dissipated = sum(
        solution.segment_flows[seg.id].loss(phase) for seg in segs
    )

    flags = frozenset()
    if s_in == 0 or abs(s_in) < solution.near_zero_va(near_zero_fraction):
        flags = frozenset({EstimateFlag.NEAR_ZERO_POWER})
    loss = math.nan if s_in == 0 else abs(dissipated) / abs(s_in)
    return LossEstimate(loss, flags)


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
