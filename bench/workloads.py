"""The three workloads: their inputs, command sequences and output checks.

Each workload function writes its seeded inputs under the work directory and
returns a JSON-able spec: ``calls`` (the ``voss`` argv lists of one
pass), ``checks`` (one output check per call, read by measure.py) and
``inputs`` (the input sizes, recorded next to the numbers).  Only
generated files reach the program; the seed never does.

- bundled: the command set of scripts/reproduce_results.py on the shipped
  feeders and sample day.  Inputs are tiny, so fixed per-call overhead
  and the sweep count of ieee34-stressed dominate.  It takes no seed.
- feeder-10k: ``voss solve`` then ``voss benchmark`` on a synthetic
  feeder of about 10k nodes (gen_feeder.py).  Parse/validate, the sweeps
  and the study dominate; the sensors layer is idle.
- sensors-2wk: ``voss sensors`` on about 100k samples, ten sensors over
  two weeks at the 2-min cadence (gen_sensors.py).  Ingest, rolling
  median, alignment and CSV write dominate; powerflow is idle.
"""

from __future__ import annotations

from pathlib import Path

from checks import feeder_row_counts
from gen_feeder import write_feeder
from gen_sensors import START, STEP_S, write_sensor_days

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
DATA = ROOT / "src" / "voss" / "data"

BUNDLED_FEEDERS = ("ieee13", "ieee34", "ieee34-stressed")
STRESSED_PATHS = "800-814,816-822,828-854"
SAMPLE_PAIRS = (("sensor-03", "sensor-17"), ("sensor-17", "sensor-22"))

SIZES = {
    "feeder-10k": {"n_nodes": 10_000},
    "sensors-2wk": {"sensors": 10, "days": 14},
}
SMOKE_SIZES = {
    "feeder-10k": {"n_nodes": 100},
    "sensors-2wk": {"sensors": 3, "days": 8},
}


def _data_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def _feeder_files(name: str, study: bool) -> list:
    if study:
        return [f"single_segment_{name}.csv", f"plot_long_{name}.csv"]
    return [f"voltages_{name}.csv", f"flows_{name}.csv"]


def bundled(out: Path, work: Path = None, seed: int = 0, size: dict = None) -> dict:
    common = ["--out-dir", str(out)]
    calls, checks = [], []
    for name in BUNDLED_FEEDERS:
        path = str(DATA / f"{name}.feeder")
        calls += [["solve", path] + common, ["benchmark", path] + common]
        checks += [{"reference": _feeder_files(name, False)},
                   {"reference": _feeder_files(name, True)}]
    stressed = "ieee34-stressed"
    calls.append(["benchmark", str(DATA / f"{stressed}.feeder"),
                  "--paths", STRESSED_PATHS] + common)
    checks.append({"reference": _feeder_files(stressed, True)
                   + [f"multi_segment_{stressed}.csv"]})
    calls.append(["oracle"] + common)
    checks.append({"reference": ["oracle_sweep.csv"]})
    calls.append(["sensors", str(DATA / "sample_day.csv"),
                  str(DATA / "sample_chain.json")] + common)
    checks.append({"reference": [f"loss_curve_{a}_{b}.csv" for a, b in SAMPLE_PAIRS]})
    inputs = {
        "feeders": list(BUNDLED_FEEDERS),
        "sample_day_rows": _data_rows(DATA / "sample_day.csv"),
        "oracle_segments": 10_000,
    }
    return {"calls": calls, "checks": checks, "inputs": inputs}


def feeder_10k(out: Path, work: Path, seed: int, size: dict) -> dict:
    path = work / "feeder.json"
    doc = write_feeder(path, size["n_nodes"], seed)
    rows = feeder_row_counts(doc)
    common = ["--out-dir", str(out)]
    name = doc["name"]
    return {
        "calls": [["solve", str(path)] + common, ["benchmark", str(path)] + common],
        "checks": [
            {"rows": {f: rows[f] for f in _feeder_files(name, False)}},
            {"rows": {f: rows[f] for f in _feeder_files(name, True)}},
        ],
        "inputs": {
            "nodes": len(doc["nodes"]),
            "segments": len(doc["segments"]),
            "loads": len(doc["loads"]),
            "distributed_loads": sum(1 for ld in doc["loads"] if "segment" in ld),
            "file_bytes": path.stat().st_size,
        },
    }


def sensors_2wk(out: Path, work: Path, seed: int, size: dict) -> dict:
    csv_path, chain_path = work / "readings.csv", work / "chain.json"
    events = write_sensor_days(csv_path, chain_path, size["sensors"], size["days"], seed)
    spot = {
        "csv": str(csv_path), "chain": str(chain_path), "events": events,
        "seed": seed, "step_s": STEP_S, "start_epoch": int(START.timestamp()),
    }
    return {
        "calls": [["sensors", str(csv_path), str(chain_path), "--out-dir", str(out)]],
        "checks": [{"spot": spot}],
        "inputs": {
            "sensors": size["sensors"],
            "days": size["days"],
            "rows": _data_rows(csv_path),
            "file_bytes": csv_path.stat().st_size,
        },
    }


WORKLOADS = {"bundled": bundled, "feeder-10k": feeder_10k, "sensors-2wk": sensors_2wk}


def prepare(name: str, seed: int, work: Path, smoke: bool = False) -> dict:
    """Write the inputs of one workload under work; return its spec."""
    work.mkdir(parents=True, exist_ok=True)
    size = (SMOKE_SIZES if smoke else SIZES).get(name, {})
    spec = WORKLOADS[name](work / "out", work, seed, size)
    spec.update(workload=name, seed=seed, out=str(work / "out"))
    return spec
