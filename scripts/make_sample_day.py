"""Generate the bundled one-day sensor fixture.

Three sensors sit in line along a low-voltage feeder and report voltage
magnitude every two minutes for one day.  The synthetic day has the
texture of real telemetry: a double-peaked load curve (midday and
evening), meter quantization to 0.1 V, a one-hour telemetry dropout on
the middle sensor, a short outage dip on the tail sensor, a downstream
tap boost that briefly raises the mid-sensor voltage above the head
(negative apparent drop), and one duplicated row.

Writes src/voss/data/sample_day.csv and sample_chain.json, then runs the
pipeline over them as a sanity check.  Deterministic: fixed RNG seed.
"""

from __future__ import annotations

import json
import math
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

from voss.ioutil import write_csv
from voss.sensors import CSV_HEADER, ingest_csv, loss_curve, parse_chain_config

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "voss" / "data"

SEED = 20240312
START = datetime(2024, 3, 12, tzinfo=timezone.utc)
STEP = timedelta(minutes=2)
SAMPLES = 720

HEAD, MID, TAIL = "sensor-03", "sensor-17", "sensor-22"

CHAIN = {
    "sensors": [HEAD, MID, TAIL],
    "nominal_voltage_v": 230.0,
    "pairs": [
        {"upstream": HEAD, "downstream": MID, "rho_s": 0.8},
        {"upstream": MID, "downstream": TAIL, "rho_s": 0.6667},
    ],
}


def load_level(hour: float) -> float:
    """Relative feeder load: low overnight, midday bump, evening peak."""
    midday = 0.38 * math.exp(-(((hour - 13.0) / 3.2) ** 2))
    evening = 0.65 * math.exp(-(((hour - 19.8) / 1.9) ** 2))
    return 0.12 + midday + evening


def in_window(ts: datetime, start_hm: tuple, end_hm: tuple) -> bool:
    minutes = ts.hour * 60 + ts.minute
    return start_hm[0] * 60 + start_hm[1] <= minutes < end_hm[0] * 60 + end_hm[1]


def main() -> None:
    rng = random.Random(SEED)
    rows = []
    duplicate_row = None
    for i in range(SAMPLES):
        ts = START + i * STEP
        level = load_level(ts.hour + ts.minute / 60.0)
        v_head = 236.0 - 6.0 * level + rng.gauss(0.0, 0.25)
        v_mid = v_head * (1.0 - (0.001 + 0.035 * level)) + rng.gauss(0.0, 0.25)
        v_tail = v_mid * (1.0 - (0.0008 + 0.027 * level)) + rng.gauss(0.0, 0.25)
        if in_window(ts, (2, 30), (3, 30)):
            # downstream tap boost: mid reads above head for an hour
            v_mid += 2.5
        stamp = ts.isoformat().replace("+00:00", "Z")
        rows.append((HEAD, stamp, f"{v_head:.1f}"))
        if not in_window(ts, (9, 0), (10, 0)):  # telemetry dropout
            rows.append((MID, stamp, f"{v_mid:.1f}"))
        if in_window(ts, (21, 2), (21, 16)):  # outage dip on the tail
            v_tail = rng.uniform(0.0, 0.9)
        rows.append((TAIL, stamp, f"{v_tail:.1f}"))
        if ts.hour == 12 and ts.minute == 0:
            duplicate_row = (MID, stamp, rows[-2][2])
    rows.append(duplicate_row)

    DATA_DIR.mkdir(parents=True, exist_ok=True)
    csv_path = DATA_DIR / "sample_day.csv"
    write_csv(csv_path, CSV_HEADER, rows)
    chain_path = DATA_DIR / "sample_chain.json"
    chain_path.write_text(json.dumps(CHAIN, indent=1) + "\n")

    chain = parse_chain_config(chain_path)
    series = {
        s.sensor_id: s
        for s in ingest_csv(csv_path, nominal_voltage=chain.nominal_voltage_v)
    }
    print(f"wrote {csv_path.name}: {sum(len(s.samples) for s in series.values())} samples, "
          f"{sum(s.duplicates_dropped for s in series.values())} duplicate dropped")
    for curve in loss_curve(chain, series):
        flag_counts: dict = {}
        for p in curve.points:
            for f in p.flags:
                flag_counts[f] = flag_counts.get(f, 0) + 1
        clean = [p.loss_fraction for p in curve.points if not p.flags]
        print(f"  {curve.upstream}->{curve.downstream}: {len(curve.points)} points, "
              f"median loss {sorted(clean)[len(clean)//2]:.4f}, flags {flag_counts}")


if __name__ == "__main__":
    main()
