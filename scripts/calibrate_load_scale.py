"""Pick the load_scale for the stressed 34-node fixture.

The stressed fixture is the standard 34-node network with every load
multiplied by one scalar, chosen so the multi-segment study lands inside
the acceptance windows around the reference loss table
(800-814: 0.28/0.19/0.18, 816-822 A: 0.073 est / 0.078 true,
828-854: 0.058/0.060/0.055; each +-0.03 absolute or +-25% relative,
whichever is looser).  Each candidate scale k is read as the 34-node
document with "load_scale": k, so it scales the loads by the feeder
format's own rule, as the fixture's does.  Run:

    python scripts/calibrate_load_scale.py

then copy the reported best scale into STRESSED_LOAD_SCALE in
scripts/make_feeders.py and regenerate the fixtures.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from voss.benchmark import run_multi_segment_study, solve_end_split  # noqa: E402
from voss.feeder import bundled_feeder_path, parse_feeder_dict  # noqa: E402
from voss.powerflow import PowerFlowError, SolveOptions  # noqa: E402

PATHS = [("800", "814"), ("816", "822"), ("828", "854")]

# (path, phase) -> (multi-segment target, true-loss target)
TARGETS = {
    ("800-814", "A"): (0.28, 0.28),
    ("800-814", "B"): (0.19, 0.19),
    ("800-814", "C"): (0.18, 0.18),
    ("816-822", "A"): (0.073, 0.078),
    ("828-854", "A"): (0.058, 0.058),
    ("828-854", "B"): (0.060, 0.060),
    ("828-854", "C"): (0.055, 0.055),
}


def window(target):
    lo = min(target - 0.03, 0.75 * target)
    hi = max(target + 0.03, 1.25 * target)
    return lo, hi


def evaluate(doc, k):
    """Feasibility per the acceptance semantics.

    Window checks on the multi-segment and true columns; c_hat <= 1 on
    every row; the correction never moves the estimate away from true by
    more than 5e-3 absolute (on near-extraction-free paths the phasor
    drop exceeds the magnitude-only estimate by construction, so a
    strictly-closer demand is unattainable at full precision even though
    it holds at the reference table's 2-decimal rounding); and where the
    uncorrected estimate overshoots true by more than 5e-3 the
    correction must strictly reduce the error.
    """
    model = parse_feeder_dict({**doc, "load_scale": k})
    solution = solve_end_split(model, SolveOptions())
    rows = run_multi_segment_study(model, PATHS, solution=solution)
    cells = {(r.line_or_path, r.phase): r for r in rows}
    feasible = True
    sq = 0.0
    margin = 1.0
    detail = []
    for key, (multi_t, true_t) in TARGETS.items():
        r = cells[key]
        for value, target in ((r.voss_corrected, multi_t), (r.true_loss, true_t)):
            lo, hi = window(target)
            margin = min(margin, value - lo, hi - value)
            feasible &= lo <= value <= hi
            sq += ((value - target) / target) ** 2
        feasible &= r.c_hat <= 1.0 + 1e-12
        err_corr = abs(r.voss_corrected - r.true_loss)
        err_raw = abs(r.voss_single - r.true_loss)
        feasible &= err_corr <= err_raw + 5e-3
        if r.voss_single - r.true_loss > 5e-3:
            feasible &= err_corr <= err_raw
        detail.append(
            f"  {key[0]} {key[1]}: voss={r.voss_single:.3f} "
            f"c={r.c_hat:.3f} multi={r.voss_corrected:.3f} "
            f"(tgt {multi_t}) true={r.true_loss:.3f} (tgt {true_t})"
        )
    detail.append(f"  min window margin: {margin:+.4f}")
    return feasible, sq - margin, detail


def main():
    doc = json.loads(bundled_feeder_path("ieee34.feeder").read_text(encoding="utf-8"))
    results = []
    k = 2.0
    while k <= 4.0001:
        try:
            feasible, sq, detail = evaluate(doc, k)
        except PowerFlowError as exc:
            print(f"k={k:.2f}: solver failed ({exc})")
            k += 0.1
            continue
        results.append((feasible, sq, k, detail))
        print(f"k={k:.2f}: feasible={feasible} score={sq:.4f}")
        k += 0.1

    feasible_results = [r for r in results if r[0]]
    pool = feasible_results or results
    best = min(pool, key=lambda r: r[1])
    print(f"\nbest coarse k = {best[2]:.2f} (feasible={best[0]})")

    # refine around the coarse winner
    fine = []
    k = best[2] - 0.1
    while k <= best[2] + 0.1001:
        if k > 0:
            try:
                feasible, sq, detail = evaluate(doc, k)
                fine.append((feasible, sq, k, detail))
            except PowerFlowError:
                pass
        k += 0.02
    pool = [r for r in fine if r[0]] or fine
    best = min(pool, key=lambda r: r[1])
    print(f"best refined k = {best[2]:.3f} (feasible={best[0]}, score={best[1]:.4f})")
    print("\n".join(best[3]))


if __name__ == "__main__":
    main()
