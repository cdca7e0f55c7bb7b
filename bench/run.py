"""Run one workload of the voss benchmark and print its metrics.

    python3 bench/run.py --workload sensors-2wk --seed 1 --seconds 30 --trace 0

Run from a checkout: voss is imported from its src/ directory, never
from an installed copy, and the run fails without printing a result
when src/ is missing.  Inputs and outputs go to .bench_work/ in the
checkout.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Pass and import times are in reference seconds
(calibrate.py).
Lines before it record the environment, inputs and raw pass time.
See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import Calibrator
from workloads import ROOT, WORK, WORKLOADS, prepare

SETUP_SAMPLES = 21
CHILD_TIMEOUT_S = 170
ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import voss.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"_s": "s", "_ms": "ms", "overhead": "ratio"}


def _python(args: list, timeout: float) -> str:
    """Run the interpreter on args in the checkout; return its stdout."""
    proc = subprocess.run(
        [sys.executable] + args, cwd=ROOT, env={**os.environ, **ENV},
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{args[0]} exited with {proc.returncode}")
    return proc.stdout


def setup_seconds() -> float:
    """Median cold ``import voss.cli`` time over fresh interpreters.

    One untimed import first writes the bytecode cache, as any earlier
    CLI call would have.  Each timed import runs on one CPU, between two
    samples of the reference work (calibrate.py) timed on the same CPU,
    and is rescaled to reference seconds like the pass times: the raw
    import time drifts with the machine as much as they do.
    """
    pinned = hasattr(os, "sched_setaffinity")
    if pinned:
        # the interpreters and the calibration helper inherit this CPU
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    times = []
    try:
        with Calibrator() as calibrator:
            _python(["-c", IMPORT_TIMER], 60)
            for _ in range(SETUP_SAMPLES):
                calibrator.sample()
                seconds = float(_python(["-c", IMPORT_TIMER], 60))
                calibrator.sample()
                times.append(seconds * calibrator.factor())
    finally:
        if pinned:
            os.sched_setaffinity(0, cpus)
    return statistics.median(times)


def environment(spec: dict) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: v for k, v in ENV.items() if k.endswith("_THREADS")},
        "workload": spec["workload"],
        "seed": spec["seed"],
        "inputs": spec["inputs"],
    }


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def measure(spec: dict, seconds: float, trace: int) -> dict:
    spec_path = Path(spec["out"]).parent / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = _python([str(Path(__file__).with_name("measure.py")), str(spec_path),
                   "--seconds", str(seconds), "--trace", str(trace)], CHILD_TIMEOUT_S)
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> tuple:
    """(environment, measuring process's report, result object) of one run."""
    work = WORK / (f"{name}-smoke" if smoke else name)
    shutil.rmtree(work, ignore_errors=True)
    spec = prepare(name, seed, work, smoke)
    env = environment(spec)
    run = measure(spec, seconds, trace)
    if trace:
        metrics = {metric: {"value": value, "unit": layer_unit(metric)}
                   for metric, value in sorted(run["layers"].items())}
    else:
        run["raw_wall_s"] = statistics.median(run["raw_walls"])
        values = {
            "wall_s": statistics.median(run["walls"]),
            "setup_s": setup_seconds(),
            "peak_rss_mb": run["rss_mb"],
        }
        metrics = {metric: {"value": value, "unit": END_TO_END_UNITS[metric]}
                   for metric, value in values.items()}
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    return env, run, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "voss" / "cli.py").is_file():
        sys.exit(f"no voss sources under {ROOT / 'src'}; run from a checkout")

    env, run, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(env))
    for problem in run["problems"]:
        print(f"check failed: {problem}")
    if args.trace:
        print("sweeps " + json.dumps(run["sweeps_by_feeder"]))
    else:
        print(f"passes {len(run['walls'])}, fail_frac {run['failed'] / run['attempted']:.4f}, "
              f"raw wall_s {run['raw_wall_s']:.4f}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
