"""Run every workload, untraced and traced, and print all metrics.

    python3 bench/report.py --seed 1 --out .bench_work/report.json

Prints wall_s, setup_s, peak_rss_mb, fail_frac and the raw (not
reference-scaled) wall_s of each workload, then its per-layer metrics,
each with its unit, and writes the same numbers with the environment and
input sizes as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import ROOT, run_workload
from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", default=".bench_work/report.json")
    args = parser.parse_args()
    if not (ROOT / "src" / "voss" / "cli.py").is_file():
        sys.exit(f"no voss sources under {ROOT / 'src'}; run from a checkout")

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    print(f"{'workload':<12} {'metric':<26} {'value':>14}  unit")
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            env, run, result = run_workload(name, args.seed, args.seconds, trace)
            key = "per_layer" if trace else "end_to_end"
            entry[key] = dict(result["metrics"])
            if not trace:
                entry["end_to_end"]["fail_frac"] = {
                    "value": result["failed"] / result["attempted"], "unit": "ratio"}
                entry["end_to_end"]["raw_wall_s"] = {"value": run["raw_wall_s"], "unit": "s"}
                entry["passes"] = len(run["walls"])
                entry["attempted"] = result["attempted"]
            else:
                entry["sweeps_by_feeder"] = run["sweeps_by_feeder"]
            entry["problems"] = entry.get("problems", []) + run["problems"]
            report["environment"] = {k: v for k, v in env.items()
                                     if k not in ("workload", "seed", "inputs")}
            entry["inputs"] = env["inputs"]
            for metric, value in entry[key].items():
                print(f"{name:<12} {metric:<26} {value['value']:>14.6g}  {value['unit']}")
        for problem in entry["problems"]:
            print(f"{name:<12} check failed: {problem}")
        report["workloads"][name] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
