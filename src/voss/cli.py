"""Command-line front door for the loss-estimation toolkit.

Four subcommands: ``solve`` runs the radial power flow on a feeder file
and writes node/segment CSVs; ``benchmark`` compares the voltage-only
estimates against simulated truth per line and per path; ``oracle``
checks the distributed-extraction correction factor against a
discretized line simulation at rho = 0.1, 0.2, ..., 0.9; ``sensors``
turns a day of field voltage readings into loss curves.  All outputs
are plain CSV (plot data in long format, rendering left to external
tools) and byte-identical across runs with identical inputs.

Exit codes: 0 success, 1 usage error, 2 input or parse error,
3 numerical failure (non-convergence or any other ArithmeticError).
Each flag's value is checked at parse time by the library rule of the
call it feeds, so a value that call rejects is a usage error here,
reported with the rule's message.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .benchmark import (
    excluded_lines,
    run_multi_segment_study,
    run_single_segment_study,
    solve_end_split,
    write_comparison_csv,
    write_plot_long_csv,
)
from .estimator import check_rho
from .feeder import expand_distributed_loads, parse_feeder
from .line_oracle import check_segment_count, sweep_rho, write_sweep_csv
from .powerflow import (
    PowerFlowError,
    SolveOptions,
    solve,
    write_flows_csv,
    write_voltages_csv,
)
from .sensors import (
    ingest_csv,
    loss_curve,
    parse_chain_config,
    write_loss_curve_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# excluded line ids voss benchmark prints before a count of the rest; its
# CSVs mark every one
EXCLUDED_SHOWN = 5


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; this tool uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_paths(text: str) -> list:
    """'head-tail,head-tail' -> the stripped tokens, each with a "-" between
    two nonempty sides; cmd_benchmark resolves them against the feeder."""
    tokens = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" not in token[1:-1]:
            raise ValueError(f"bad path {token!r}, expected HEAD-TAIL")
        tokens.append(token)
    if not tokens:
        raise ValueError("no paths given")
    return tokens


def _resolve_path(token: str, node_ids) -> tuple:
    """(head, tail) of a --paths token, split at the one "-" whose two sides
    are both node ids.  With no such "-", the split at the first one, whose
    unknown node the study reports; with several, a ValueError."""
    splits = [(token[:k], token[k + 1:]) for k in range(1, len(token) - 1) if token[k] == "-"]
    known = [(head, tail) for head, tail in splits if head in node_ids and tail in node_ids]
    if len(known) > 1:
        readings = " or ".join(f"{head!r} to {tail!r}" for head, tail in known)
        raise ValueError(f"path {token!r} is ambiguous: {readings}")
    return known[0] if known else splits[0]


def _parse_rho_s_source(text: str):
    """'simulated' -> None (rho_s from the flows); 'estimate:<value>' -> value."""
    if text == "simulated":
        return None
    if text.startswith("estimate:"):
        return check_rho(float(text.split(":", 1)[1]), "rho_s")
    raise ValueError(
        f"unknown rho_s source {text!r} (use 'simulated' or 'estimate:<value>')"
    )


def _count(text: str):
    """text as an int if it reads as one, else as it is, for a count rule to refuse."""
    try:
        return int(text)
    except ValueError:
        return text


def _typed(parse):
    """Adapt a ValueError-raising parser to argparse's error reporting."""

    def wrapper(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return wrapper


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _options(args) -> SolveOptions:
    return SolveOptions(tol=args.tol, max_iter=args.max_iter)


def cmd_solve(args) -> int:
    model = parse_feeder(args.feeder)
    solution = solve(expand_distributed_loads(model), _options(args))
    out = _out_dir(args)
    voltages = out / f"voltages_{model.name}.csv"
    flows = out / f"flows_{model.name}.csv"
    write_voltages_csv(solution, voltages)
    write_flows_csv(solution, flows)
    print(
        f"{model.name}: converged in {solution.iterations} iterations, "
        f"max mismatch {solution.max_mismatch:.3e} pu, "
        f"power balance {solution.power_balance_residual_pu():.3e} pu"
    )
    for flag in solution.flags:
        print(f"warning: {flag}")
    print(f"wrote {voltages}")
    print(f"wrote {flows}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    model = parse_feeder(args.feeder)
    solution = solve_end_split(model, _options(args))
    rows = run_single_segment_study(model, solution=solution)
    # run every study before writing: a bad path leaves no partial output
    multi_rows = None
    if args.paths:
        node_ids = {node.id for node in model.nodes}
        multi_rows = run_multi_segment_study(
            model,
            [_resolve_path(token, node_ids) for token in args.paths],
            rho_s=getattr(args, "rho_s_source", None),
            solution=solution,
        )
    out = _out_dir(args)
    single = out / f"single_segment_{model.name}.csv"
    write_comparison_csv(rows, single)
    plot = out / f"plot_long_{model.name}.csv"
    write_plot_long_csv(rows, plot)
    excluded = excluded_lines(rows)
    shown = ", ".join(excluded[:EXCLUDED_SHOWN]) or "none"
    if len(excluded) > EXCLUDED_SHOWN:
        shown += f" and {len(excluded) - EXCLUDED_SHOWN} more"
    print(f"{model.name}: {len(rows)} line-phase rows, excluded lines: {shown}")
    print(f"wrote {single}")
    print(f"wrote {plot}")
    if multi_rows is not None:
        multi = out / f"multi_segment_{model.name}.csv"
        write_comparison_csv(multi_rows, multi)
        print(f"wrote {multi}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    rows = sweep_rho((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9), args.segments)
    out = _out_dir(args)
    path = out / "oracle_sweep.csv"
    write_sweep_csv(rows, path)
    worst = max(rows, key=lambda r: r.deviation)
    print(
        f"n={args.segments}: worst |oracle - formula| = {worst.deviation:.3e} "
        f"at rho={worst.rho:g}"
    )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sensors(args) -> int:
    config = parse_chain_config(args.chain_config)
    series_list = ingest_csv(
        args.data_csv,
        nominal_voltage=config.nominal_voltage_v,
        calibration=config.calibration,
    )
    series = {s.sensor_id: s for s in series_list}
    for s in series_list:
        if s.duplicates_dropped:
            print(
                f"note: {s.sensor_id}: dropped {s.duplicates_dropped} "
                f"duplicate timestamp(s), kept first"
            )
    curves = loss_curve(
        config.chain,
        series,
        window_s=config.smoothing_window_s,
        grid_step_s=config.grid_step_s,
        tolerance_s=config.tolerance_s,
    )
    out = _out_dir(args)
    for curve in curves:
        path = write_loss_curve_csv(curve, out)
        flagged = np.count_nonzero(curve.flag_bits)
        print(
            f"{curve.upstream}->{curve.downstream}: {curve.flag_bits.size} points "
            f"({flagged} flagged)"
        )
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="voss", description=__doc__.splitlines()[0])
    output = _Parser(add_help=False)
    output.add_argument(
        "--out-dir", default=".", help="directory for output files (default: .)"
    )
    solver = _Parser(add_help=False, parents=[output])
    defaults = SolveOptions()
    solver.add_argument(
        "--tol",
        type=_typed(lambda text: SolveOptions(tol=float(text)).tol),
        default=defaults.tol,
        help=f"power-flow convergence tolerance in pu (default: {defaults.tol})",
    )
    solver.add_argument(
        "--max-iter",
        type=_typed(lambda text: SolveOptions(max_iter=_count(text)).max_iter),
        default=defaults.max_iter,
        help=f"power-flow iteration limit (default: {defaults.max_iter})",
    )

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser(
        "solve", parents=[solver], help="run the power flow on a feeder file"
    )
    p_solve.add_argument("feeder", help="feeder definition file (JSON)")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser(
        "benchmark",
        parents=[solver],
        help="compare voltage-only estimates against simulated truth",
    )
    p_bench.add_argument("feeder", help="feeder definition file (JSON)")
    p_bench.add_argument(
        "--paths",
        type=_typed(_parse_paths),
        default=None,
        help="comma-separated head-tail node pairs for the multi-segment study; "
        "a node id may hold '-' (the split whose sides are both node ids is "
        "taken) but not ','",
    )
    p_bench.add_argument(
        "--rho-s-source",
        type=_typed(_parse_rho_s_source),
        default=argparse.SUPPRESS,
        help="'simulated' or 'estimate:<value>' power ratio for --paths "
        "(default: simulated)",
    )
    p_bench.set_defaults(func=cmd_benchmark)

    p_oracle = sub.add_parser(
        "oracle",
        parents=[output],
        help="check the correction factor against a discretized line",
    )
    p_oracle.add_argument(
        "--segments",
        type=_typed(lambda text: check_segment_count(_count(text))),
        default=10000,
        help="number of discretization segments (default: 10000)",
    )
    p_oracle.set_defaults(func=cmd_oracle)

    p_sensors = sub.add_parser(
        "sensors",
        parents=[output],
        help="compute loss curves from sensor voltage readings",
    )
    p_sensors.add_argument("data_csv", help="sensor_id,timestamp,voltage_v readings")
    p_sensors.add_argument("chain_config", help="sensor chain config (JSON)")
    p_sensors.set_defaults(func=cmd_sensors)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() on the first main() call, reused by every later one."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if "rho_s_source" in args and not args.paths:
            parser.error("argument --rho-s-source: applies only with --paths")
    except SystemExit as exc:  # _Parser.error (EXIT_USAGE) or --help (0)
        return exc.code
    try:
        return args.func(args)
    except (PowerFlowError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # FeederFormatError and SensorFormatError are ValueErrors
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
