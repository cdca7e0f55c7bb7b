"""Measuring process of one benchmark run; started by run.py.

Runs the workload's command sequence through ``voss.cli.main``
in-process, pass after pass, in a closed loop with one caller: the
first pass, then more until ``--seconds`` have passed.  The reference
work of calibrate.py is timed before and after every pass and rescales
the pass to reference seconds.  The peak RSS is
read right after the first pass, so it is the peak of a fresh process
that has run one pass.  Outputs are checked after every pass, outside
the timed region.  With ``--trace 1`` passes alternate between traced
and untraced, so the tracing overhead is measured in the same process,
against the untraced passes after the first.

Prints one JSON object on its last stdout line; spans go to spans.json
in the work directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import voss  # noqa: E402
from voss import cli  # noqa: E402

import checks  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracing import Instrument, layer_metrics  # noqa: E402


class OutputChecks:
    """The per-call output checks named in the workload spec."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.spot = None

    def prepare(self) -> None:
        for check in self.spec["checks"]:
            if "spot" in check:
                s = check["spot"]
                self.spot = checks.SensorSpotCheck(
                    s["csv"], s["chain"], s["events"], s["seed"], s["step_s"],
                    s["start_epoch"])

    def problems(self, index: int, out: Path) -> list:
        check = self.spec["checks"][index]
        if "reference" in check:
            return checks.bundled_problems(out, check["reference"])
        if "rows" in check:
            return [p for name, n in check["rows"].items()
                    for p in checks.row_count_problems(out / name, n)]
        return self.spot.problems(out)


def run_pass(spec: dict, instrument: Instrument, tracing: bool) -> tuple:
    """(wall seconds without harness time, [(code, problems)] per call)."""
    out = Path(spec["out"])
    shutil.rmtree(out, ignore_errors=True)
    results = []
    wall = 0.0
    with instrument.patched(tracing):
        for argv in spec["calls"]:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            except Exception as exc:  # a traceback is a failed call, not a failed run
                code = f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - start
            results.append((code, instrument.take()))
    return wall - instrument.excluded_s, results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec", help="workload spec JSON written by run.py")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path(voss.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"voss imported from {voss.__file__}, not from this checkout")

    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and the calibration helper it starts, so
        # the reference is timed on the core that runs the program
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    spec = json.loads(Path(args.spec).read_text())
    out = Path(spec["out"])
    instrument = Instrument(checks.solve_problems)
    output_checks = OutputChecks(spec)
    walls, raw_walls, traced_walls, layers, spans = [], [], [], [], []
    sweeps: dict = {}
    attempted = failed = 0
    problems: list = []
    rss_mb = None
    with Calibrator() as calibrator:
        begin = time.perf_counter()
        # a traced run needs a traced and a warm untraced pass besides the first
        while not walls or (args.trace and (len(walls) < 2 or not traced_walls)) or \
                time.perf_counter() - begin < args.seconds:
            tracing = bool(args.trace) and len(walls) > len(traced_walls)
            calibrator.sample()
            raw, results = run_pass(spec, instrument, tracing)
            if rss_mb is None:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                output_checks.prepare()
            calibrator.sample()
            wall = raw * calibrator.factor()
            for index, (code, call_problems) in enumerate(results):
                if code != 0:
                    call_problems = [f"exit {code}"] + call_problems
                call_problems += output_checks.problems(index, out)
                attempted += 1
                if call_problems:
                    failed += 1
                    problems += [f"{' '.join(spec['calls'][index][:2])}: {p}"
                                 for p in call_problems]
            if tracing:
                traced_walls.append(wall)
                layers.append({
                    name: value * wall / raw if name.endswith(("_s", "_ms")) else value
                    for name, value in layer_metrics(instrument.spans, instrument.counts).items()
                })
                sweeps = {k.split(":", 1)[1]: v for k, v in instrument.counts.items()
                          if k.startswith("sweeps:")}
                spans += [[len(traced_walls)] + s for s in instrument.spans]
            else:
                walls.append(wall)
                raw_walls.append(raw)

    result = {
        "walls": walls,
        "raw_walls": raw_walls,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
    }
    if args.trace:
        (out.parent / "spans.json").write_text(json.dumps(
            {"fields": ["pass", "id", "parent", "name", "start", "end"], "spans": spans}))
        metrics = {name: (statistics.median if isinstance(value, float) else
                          statistics.median_low)(p[name] for p in layers)
                   for name, value in layers[0].items()}
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        # the first pass runs cold and slower, so it is left out here
        metrics["trace.overhead"] = metrics["trace.wall_s"] / statistics.median(walls[1:])
        result.update(layers=metrics, sweeps_by_feeder=sweeps)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
