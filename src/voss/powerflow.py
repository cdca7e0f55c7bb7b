"""Forward-backward sweep power flow for radial unbalanced feeders.

Works in actual volts and amperes.  Each iteration recomputes load
currents at the present voltages, accumulates segment currents from the
leaves up (backward sweep), then pushes voltages from the source down
(forward sweep).  Convergence is the max per-node per-phase voltage
update, normalized by that node's nominal line-to-neutral base.

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
    LoadDef,
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


def _node_bases(model: FeederModel) -> dict:
    base = {model.source.node: model.source.nominal_kv_ll * 1e3 / math.sqrt(3.0)}
    for seg in model.bfs_segments():
        b = base[seg.from_node]
        if seg.kind == SegmentKind.TRANSFORMER:
            b = b / seg.ratio
        base[seg.to_node] = b
    return base


def _load_current(
    load: LoadDef, v: np.ndarray, node_phases: str, v0_ln: float
) -> np.ndarray:
    """Injection current drawn by one spot load at present voltages."""
    out = np.zeros(len(node_phases), dtype=complex)
    if load.conn == Connection.WYE:
        for k, ph in enumerate(load.phases):
            s0 = (load.kw[k] + 1j * load.kvar[k]) * 1e3
            j = node_phases.index(ph)
            out[j] += _branch_current(load.model, s0, v[j], v0_ln)
    else:
        v0 = v0_ln * math.sqrt(3.0)
        for k, br in enumerate(load.branches()):
            s0 = (load.kw[k] + 1j * load.kvar[k]) * 1e3
            a = node_phases.index(br[0])
            b = node_phases.index(br[1])
            i_br = _branch_current(load.model, s0, v[a] - v[b], v0)
            out[a] += i_br
            out[b] -= i_br
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


def _load_power(load: LoadDef, v: np.ndarray, node_phases: str, v0_ln: float) -> complex:
    i = _load_current(load, v, node_phases, v0_ln)
    return complex(np.sum(v * np.conj(i)))


def solve(model: FeederModel, options: SolveOptions = SolveOptions()) -> PowerFlowSolution:
    """Solve the feeder; raises PowerFlowError when sweeps do not settle."""
    if any(ld.placement == Placement.DISTRIBUTED for ld in model.loads):
        raise ValueError(
            "model has distributed loads; apply expand_distributed_loads "
            "(or an end-split) before solving"
        )

    bases = _node_bases(model)
    sref = _phase_angles(model.source)
    order = model.bfs_segments()

    seg_z = {}
    seg_from_idx = {}
    for seg in order:
        seg_z[seg.id] = np.array(seg.z_total(), dtype=complex)
        from_phases = model.node(seg.from_node).phases
        seg_from_idx[seg.id] = [from_phases.index(p) for p in seg.phases]

    loads_at = {n.id: [] for n in model.nodes}
    for ld in model.loads:
        loads_at[ld.node].append(ld)
    caps_at = {}
    for seg in order:
        if seg.shunt_kvar is not None:
            caps_at[seg.to_node] = np.array(seg.shunt_kvar, dtype=float) * 1e3

    # flat start at source magnitude and angles
    v = {
        n.id: np.array(
            [bases[n.id] * sref[p] for p in n.phases], dtype=complex
        )
        for n in model.nodes
    }
    src = model.source.node

    def injections() -> dict:
        inj = {}
        for n in model.nodes:
            cur = np.zeros(len(n.phases), dtype=complex)
            for ld in loads_at[n.id]:
                cur += _load_current(ld, v[n.id], n.phases, bases[n.id])
            if n.id in caps_at:
                # constant-Q capacitor: a load of -j kvar
                for k in range(len(n.phases)):
                    s0 = -1j * caps_at[n.id][k]
                    if s0 != 0:
                        cur[k] += np.conj(s0 / v[n.id][k])
            inj[n.id] = cur
        return inj

    def backward() -> dict:
        curr = injections()
        i_to = {}
        for seg in reversed(order):
            i = curr[seg.to_node].copy()
            i_to[seg.id] = i
            if seg.kind == SegmentKind.REGULATOR:
                i_up = np.array(seg.taps) * i
            elif seg.kind == SegmentKind.TRANSFORMER:
                i_up = i / seg.ratio
            else:
                i_up = i
            curr[seg.from_node][seg_from_idx[seg.id]] += i_up
        return i_to

    trace = []
    iterations = 0
    mismatch = math.inf
    for iterations in range(1, options.max_iter + 1):
        i_to = backward()
        mismatch = 0.0
        for seg in order:
            v_from = v[seg.from_node][seg_from_idx[seg.id]]
            i = i_to[seg.id]
            if seg.kind == SegmentKind.REGULATOR:
                v_new = np.array(seg.taps) * v_from - seg_z[seg.id] @ i
            elif seg.kind == SegmentKind.TRANSFORMER:
                v_new = v_from / seg.ratio - seg.series_z_ohm * i
            else:
                v_new = v_from - seg_z[seg.id] @ i
            delta = np.max(np.abs(v_new - v[seg.to_node])) / bases[seg.to_node]
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
    i_to = backward()
    flows = {}
    total_loss = 0j
    for seg in order:
        v_from_full = v[seg.from_node][seg_from_idx[seg.id]]
        i = i_to[seg.id]
        if seg.kind == SegmentKind.REGULATOR:
            i_from = np.array(seg.taps) * i
        elif seg.kind == SegmentKind.TRANSFORMER:
            i_from = i / seg.ratio
        else:
            i_from = i
        s_from = v_from_full * np.conj(i_from)
        s_to = v[seg.to_node] * np.conj(i)
        flows[seg.id] = SegmentFlow(
            segment_id=seg.id,
            phases=seg.phases,
            v_from=tuple(map(complex, v_from_full)),
            v_to=tuple(map(complex, v[seg.to_node])),
            i_from=tuple(map(complex, i_from)),
            i_to=tuple(map(complex, i)),
            s_from=tuple(map(complex, s_from)),
            s_to=tuple(map(complex, s_to)),
        )
        total_loss += complex(np.sum(s_from - s_to))

    total_load = 0j
    total_shunt = 0j
    for n in model.nodes:
        for ld in loads_at[n.id]:
            total_load += _load_power(ld, v[n.id], n.phases, bases[n.id])
        if n.id in caps_at:
            total_shunt += complex(np.sum(-1j * caps_at[n.id]))

    total_source = 0j
    for seg in model.segments_from(src):
        total_source += sum(flows[seg.id].s_from)

    flags = []
    for n in model.nodes:
        for k, ph in enumerate(n.phases):
            if abs(v[n.id][k]) < COLLAPSE_PU * bases[n.id]:
                flags.append(
                    f"{EstimateFlag.VOLTAGE_COLLAPSE_SUSPECT.value}:{n.id}.{ph}"
                )

    node_voltages = {
        n.id: {ph: complex(v[n.id][k]) for k, ph in enumerate(n.phases)}
        for n in model.nodes
    }
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
