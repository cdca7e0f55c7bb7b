"""Seeded synthetic sensor readings and chain config for ``voss sensors``.

``sensors`` voltage sensors sit in line along a feeder and report every
two minutes for ``days`` days.  The data has the textures of
scripts/make_sample_day.py, scaled up:

- a double-peaked daily load curve, lighter at weekends, and 0.1 V meter
  quantization;
- one-hour telemetry dropouts (gaps);
- fourteen-minute outage dips below half of nominal (PowerStateSuspect);
- one-hour downstream tap boosts (negative drops);
- duplicated rows, half of them with a different reading, placed
  anywhere in the file, so "first row seen wins" matters;
- rows swapped out of time order, and one sensor that reports in a
  +01:00 offset instead of Z;
- a chain config in which every other pair has a rho_s (voss_corrected)
  and the others none (voss_single), and one calibrated sensor.

The event counts are fixed and events never touch the first or last day,
so the sample and grid-point counts do not depend on the seed.  The same
seed gives byte-identical files.
"""

from __future__ import annotations

import json
import math
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

START = datetime(2024, 3, 4, tzinfo=timezone.utc)  # a Monday
STEP_S = 120
PER_DAY = 86400 // STEP_S
NOMINAL_V = 230.0

DROPOUTS_PER_SENSOR = 2
DROPOUT_SAMPLES = 30
OUTAGES = 3
OUTAGE_SAMPLES = 7
BOOSTS = 3
BOOST_SAMPLES = 30
DUPLICATES = 40
SWAPS = 1000
OFFSET_SENSOR = 3
CALIBRATED_SENSOR = 5
CALIBRATION = 1.002


def _load_level(hour: float, weekend: bool) -> float:
    midday = 0.38 * math.exp(-(((hour - 13.0) / 3.2) ** 2))
    evening = 0.65 * math.exp(-(((hour - 19.8) / 1.9) ** 2))
    return (0.12 + midday + evening) * (0.85 if weekend else 1.0)


def _windows(rng, days: int, count: int, length: int, taken: set) -> list:
    """``count`` sample windows on distinct days, never the first or last."""
    days_free = [d for d in range(1, days - 1) if d not in taken]
    chosen = rng.sample(days_free, count)
    taken.update(chosen)
    return [
        (d * PER_DAY + rng.randrange(PER_DAY - length), length) for d in chosen
    ]


def _stamp(k: int, offset: bool) -> str:
    ts = START + timedelta(seconds=k * STEP_S)
    if offset:
        return ts.astimezone(timezone(timedelta(hours=1))).isoformat()
    return ts.isoformat().replace("+00:00", "Z")


def synthetic_sensor_days(sensors: int, days: int, seed: int) -> tuple:
    """(rows, chain config, events) for a chain of sensors over days.

    rows are (sensor_id, timestamp, voltage) string triples in file
    order; events lists the sample windows of every texture, so a check
    can look at them.
    """
    if sensors < 3 or days < 3:
        raise ValueError("need at least 3 sensors and 3 days")
    rng = random.Random(seed)
    ids = [f"sensor-{i:02d}" for i in range(sensors)]
    n = days * PER_DAY
    drop_a = [rng.uniform(0.0008, 0.0015) for _ in ids[1:]]
    drop_b = [rng.uniform(0.02, 0.035) for _ in ids[1:]]

    events = {"dropout": [], "outage": [], "boost": []}
    dropped = [set() for _ in ids]
    for i in range(sensors):
        for k0, length in _windows(rng, days, DROPOUTS_PER_SENSOR, DROPOUT_SAMPLES, set()):
            dropped[i].update(range(k0, k0 + length))
            events["dropout"].append([ids[i], k0, length])
    low = [dict() for _ in ids]
    boost = [set() for _ in ids]
    taken: set = set()
    for kind, count, length in (
        ("outage", OUTAGES, OUTAGE_SAMPLES),
        ("boost", BOOSTS, BOOST_SAMPLES),
    ):
        for k0, length in _windows(rng, days, count, length, taken):
            i = rng.randrange(1, sensors)
            events[kind].append([ids[i], k0, length])
            for k in range(k0, k0 + length):
                if kind == "outage":
                    low[i][k] = rng.uniform(0.0, 0.9)
                else:
                    boost[i].add(k)

    rows = []
    for k in range(n):
        day, rem = divmod(k, PER_DAY)
        level = _load_level(rem * STEP_S / 3600.0, day % 7 >= 5)
        v = 236.0 - 6.0 * level + rng.gauss(0.0, 0.25)
        for i, sid in enumerate(ids):
            if i:
                v = v * (1.0 - (drop_a[i - 1] + drop_b[i - 1] * level))
                v += rng.gauss(0.0, 0.25)
            reading = v + (2.5 if k in boost[i] else 0.0)
            if k in low[i]:
                reading = low[i][k]
            if i == CALIBRATED_SENSOR:
                reading /= CALIBRATION
            if k not in dropped[i]:
                rows.append([sid, _stamp(k, i == OFFSET_SENSOR), f"{reading:.1f}"])

    for _ in range(DUPLICATES):
        sid, stamp, volts = rows[rng.randrange(len(rows))]
        if rng.random() < 0.5:
            volts = f"{float(volts) + 0.3:.1f}"
        rows.insert(rng.randrange(len(rows) + 1), [sid, stamp, volts])
    for _ in range(SWAPS):
        a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
        rows[a], rows[b] = rows[b], rows[a]

    chain = {
        "sensors": ids,
        "nominal_voltage_v": NOMINAL_V,
        "pairs": [
            {"upstream": ids[i], "downstream": ids[i + 1],
             "rho_s": round(rng.uniform(0.5, 0.9), 4)}
            for i in range(0, sensors - 1, 2)
        ],
        "calibration": {ids[CALIBRATED_SENSOR]: CALIBRATION}
        if sensors > CALIBRATED_SENSOR else {},
    }
    return rows, chain, events


def write_sensor_days(csv_path, chain_path, sensors: int, days: int, seed: int) -> dict:
    """Write the readings CSV and chain JSON; return the events."""
    rows, chain, events = synthetic_sensor_days(sensors, days, seed)
    lines = ["sensor_id,timestamp,voltage_v"] + [",".join(r) for r in rows]
    Path(csv_path).write_text("\n".join(lines) + "\n")
    Path(chain_path).write_text(json.dumps(chain, indent=1) + "\n")
    return events
