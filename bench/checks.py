"""Output checks that feed ``fail_frac``.

- Every solve: converged within the solver's tolerance, power-balance
  residual at most BALANCE_TOL_PU, and for every segment the series loss
  recomputed as i^H Z i (``loss_from_currents``) agrees with
  ``s_from - s_to`` within BALANCE_TOL_PU of the feeder power base.
- ``bundled``: every output CSV matches its stored reference CSV in
  reference/ cell by cell: same header and row count, text cells equal,
  numbers within REF_RTOL relative plus REF_ATOL.
- ``feeder-10k``: every output CSV has the row count the generated
  feeder implies, with finite positive voltage magnitudes.
- ``sensors-2wk``: about 200 grid points recomputed from the raw CSV by
  ``SensorSpotCheck``, which shares no code with voss.sensors.

Run as a script to rewrite the bundled reference CSVs from the current
code:

    PYTHONPATH=src python3 bench/checks.py
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import random
import statistics
import sys
from datetime import datetime
from pathlib import Path

BALANCE_TOL_PU = 1e-6
REF_RTOL = 1e-6
REF_ATOL = 1e-9
REFERENCE = Path(__file__).resolve().parent / "reference"
SPOT_POINTS = 200


# ------------------------------------------------------------ solver


def solve_problems(solution) -> list:
    """Conservation checks on one converged PowerFlowSolution."""
    # imported here: run.py loads this module before it knows src/ exists
    from voss.powerflow import SolveOptions, loss_from_currents

    name = solution.model.name
    problems = []
    if not solution.max_mismatch < SolveOptions().tol:
        problems.append(f"{name}: mismatch {solution.max_mismatch:.3e} above tol")
    residual = solution.power_balance_residual_pu()
    if not residual <= BALANCE_TOL_PU:
        problems.append(f"{name}: power balance residual {residual:.3e} pu")
    base_va = solution.model.base.power_kva * 1e3
    for seg_id, flow in solution.segment_flows.items():
        gap = abs(loss_from_currents(solution, seg_id) - flow.loss_total()) / base_va
        if not gap <= BALANCE_TOL_PU:
            problems.append(f"{name}: segment {seg_id} i^H Z i differs by {gap:.3e} pu")
            break
    return problems


# ------------------------------------------------------------ bundled


def _read_csv(path: Path) -> tuple:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _same_cell(got: str, want: str) -> bool:
    """Equal strings, or floats within REF_RTOL relative plus REF_ATOL."""
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REF_RTOL * max(abs(a), abs(b)) + REF_ATOL


def compare_csv(path: Path, ref_path: Path) -> list:
    """Differences of one CSV from its reference, cell by cell."""
    header, rows = _read_csv(path)
    ref_header, ref_rows = _read_csv(ref_path)
    if header != ref_header:
        return [f"header {header}, reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference {len(ref_rows)}"]
    for index, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref_row) or not all(map(_same_cell, row, ref_row)):
            return [f"row {index + 1}: {row}, reference {ref_row}"]
    return []


def bundled_problems(out_dir, names) -> list:
    """Compare the named output files against the stored reference CSVs."""
    problems = []
    for name in names:
        path = Path(out_dir) / name
        if not path.exists():
            problems.append(f"{name}: missing")
            continue
        problems += [f"{name}: {p}" for p in compare_csv(path, REFERENCE / name)]
    return problems


# ------------------------------------------------------------ feeder-10k


def row_count_problems(path: Path, expected: int) -> list:
    if not path.exists():
        return [f"{path.name}: missing"]
    _, rows = _read_csv(path)
    if len(rows) != expected:
        return [f"{path.name}: {len(rows)} rows, expected {expected}"]
    if path.name.startswith("voltages_"):
        bad = [r for r in rows if not float(r[2]) > 0.0]
        if bad:
            return [f"{path.name}: nonpositive magnitude at {bad[0][:2]}"]
    return []


def feeder_row_counts(doc: dict) -> dict:
    """Rows each CSV of ``voss solve`` and ``voss benchmark`` must have."""
    node_phases = sum(len(n["phases"]) for n in doc["nodes"])
    seg_phases = sum(len(s["phases"]) for s in doc["segments"])
    line_phases = sum(len(s["phases"]) for s in doc["segments"] if s["kind"] == "line")
    carrying = {ld["segment"] for ld in doc["loads"] if "segment" in ld}
    extra = sum(len(s["phases"]) for s in doc["segments"] if s["id"] in carrying)
    name = doc["name"]
    return {
        f"voltages_{name}.csv": node_phases + extra,
        f"flows_{name}.csv": seg_phases + extra,
        f"single_segment_{name}.csv": line_phases,
        f"plot_long_{name}.csv": 3 * line_phases,
    }


# ------------------------------------------------------------ sensors


def _epoch(text: str) -> int:
    return int(datetime.fromisoformat(text.replace("Z", "+00:00")).timestamp())


class SensorSpotCheck:
    """Recompute about SPOT_POINTS grid points from the raw readings.

    Half of the points are drawn at random over every pair's grid and
    half from the generator's texture windows (dropouts, outages, tap
    boosts), so flagged rows are checked too.  Smoothing uses
    statistics.median over the window and alignment a brute-force
    nearest-sample search; the estimate uses the closed-form correction
    c(rho) = 1 - rho (3 - 2 rho) / (6 - 3 rho).
    """

    def __init__(self, csv_path, chain_path, events: dict, seed: int,
                 step_s: int, start_epoch: int) -> None:
        chain = json.loads(Path(chain_path).read_text())
        self.window = chain.get("smoothing_window_s", 600)
        self.grid = chain.get("grid_step_s", 120)
        self.tol = chain.get("tolerance_s", 60)
        cutoff = 0.5 * chain.get("nominal_voltage_v", 230.0)
        calibration = chain.get("calibration", {})
        rho = {(p["upstream"], p["downstream"]): p["rho_s"] for p in chain["pairs"]}
        ids = chain["sensors"]
        self.pairs = [(a, b, rho.get((a, b))) for a, b in zip(ids, ids[1:])]

        readings: dict = {sid: {} for sid in ids}
        with open(csv_path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for sid, stamp, volts in reader:
                readings[sid].setdefault(_epoch(stamp), float(volts))
        self.clean = {}
        self.times = {}
        self.suspect = {}
        for sid, by_t in readings.items():
            times = sorted(by_t)
            factor = calibration.get(sid, 1.0)
            self.clean[sid] = [(t, by_t[t] * factor) for t in times if by_t[t] >= cutoff]
            self.times[sid] = [t for t, _ in self.clean[sid]]
            self.suspect[sid] = [t for t in times if by_t[t] < cutoff]

        rng = random.Random(seed)
        self.expected = {}
        per_pair = max(1, SPOT_POINTS // (2 * len(self.pairs)))
        windows = [w for kind in sorted(events) for w in events[kind]]
        for up, down, rho_s in self.pairs:
            first = max(self.clean[up][0][0], self.clean[down][0][0])
            last = min(self.clean[up][-1][0], self.clean[down][-1][0])
            k0 = -(-first // self.grid)
            k1 = last // self.grid
            picks = {rng.randrange(k0, k1 + 1) for _ in range(per_pair)}
            for sid, k_start, length in windows:
                if sid in (up, down):
                    for _ in range(2):
                        t = start_epoch + (k_start + rng.randrange(length)) * step_s
                        picks.add(min(max(t // self.grid, k0), k1))
            name = f"loss_curve_{up}_{down}.csv"
            self.expected[name] = (
                k1 - k0 + 1,
                {k - k0: (k * self.grid, *self._point(up, down, rho_s, k * self.grid))
                 for k in sorted(picks)},
            )

    def _nearest(self, sid: str, t: int):
        """Smoothed value of the clean sample nearest t within tolerance."""
        best = min(self.times[sid], key=lambda s: (abs(s - t), s))
        if abs(best - t) > self.tol:
            return None
        times = self.times[sid]
        half = self.window / 2
        lo = bisect.bisect_left(times, best - half)
        hi = bisect.bisect_right(times, best + half)
        return statistics.median(v for _, v in self.clean[sid][lo:hi])

    def _point(self, up: str, down: str, rho_s, t: int) -> tuple:
        va, vb = self._nearest(up, t), self._nearest(down, t)
        if va is None or vb is None:
            flags = ["Gap"]
            if any(abs(s - t) <= self.tol for sid in (up, down) for s in self.suspect[sid]):
                flags.append("PowerStateSuspect")
            return math.nan, ";".join(flags)
        raw = 1.0 - vb / va
        flags = ["NegativeDrop"] if raw < 0.0 else []
        if rho_s is None:
            return raw, ";".join(flags)
        rho = 1.0 - rho_s / (vb / va)
        if not 0.0 <= rho <= 1.0:
            flags.append("CorrectionOutOfRange")
        c = 1.0 - rho * (3.0 - 2.0 * rho) / (6.0 - 3.0 * rho)
        return c * raw, ";".join(flags)

    def problems(self, out_dir) -> list:
        problems = []
        for name, (count, points) in self.expected.items():
            path = Path(out_dir) / name
            if not path.exists():
                problems.append(f"{name}: missing")
                continue
            _, rows = _read_csv(path)
            if len(rows) != count:
                problems.append(f"{name}: {len(rows)} rows, expected {count}")
                continue
            for index, (t, value, flags) in points.items():
                stamp, got, got_flags = rows[index]
                got = float(got)
                same = (math.isnan(value) and math.isnan(got)) or abs(got - value) <= 1e-10
                if _epoch(stamp) != t or got_flags != flags or not same:
                    problems.append(
                        f"{name} row {index + 1}: {rows[index]}, expected "
                        f"{t} {value!r} {flags!r}"
                    )
                    break
        return problems


if __name__ == "__main__":
    import contextlib
    import shutil

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORK, bundled

    from voss.cli import main

    shutil.rmtree(REFERENCE, ignore_errors=True)
    spec = bundled(REFERENCE)
    for argv in spec["calls"]:
        with contextlib.redirect_stdout(sys.stderr):
            code = main(argv)
        if code != 0:
            sys.exit(f"voss {' '.join(argv)} failed")
    kept = {name for check in spec["checks"] for name in check["reference"]}
    for path in REFERENCE.iterdir():
        if path.name not in kept:
            path.unlink()
    print(f"wrote {len(kept)} files to {REFERENCE}")
