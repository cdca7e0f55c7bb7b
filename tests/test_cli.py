"""Command-line entry points, exit codes, and output files."""

import contextlib
import csv
import io
import json
import random
import tempfile
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_bus_doc
from voss import cli
from voss.benchmark import run_multi_segment_study, solve_end_split, write_comparison_csv
from voss.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, main
from voss.feeder import bundled_feeder_path, parse_feeder
from voss.powerflow import SolveOptions

IEEE13 = str(bundled_feeder_path("ieee13.feeder"))
IEEE34 = str(bundled_feeder_path("ieee34.feeder"))
STRESSED = str(bundled_feeder_path("ieee34-stressed.feeder"))
SAMPLE_DAY = str(bundled_feeder_path("sample_day.csv"))
SAMPLE_CHAIN = str(bundled_feeder_path("sample_chain.json"))
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"
# what the bundled command set prints, with its --out-dir as <out>
BUNDLED_STDOUT = """\
ieee13: converged in 9 iterations, max mismatch 1.002e-09 pu, power balance 4.657e-17 pu
wrote <out>/voltages_ieee13.csv
wrote <out>/flows_ieee13.csv
ieee13: 23 line-phase rows, excluded lines: 671-680
wrote <out>/single_segment_ieee13.csv
wrote <out>/plot_long_ieee13.csv
ieee34: converged in 13 iterations, max mismatch 3.933e-09 pu, power balance 2.328e-16 pu
wrote <out>/voltages_ieee34.csv
wrote <out>/flows_ieee34.csv
ieee34: 74 line-phase rows, excluded lines: 854-856, 858-864
wrote <out>/single_segment_ieee34.csv
wrote <out>/plot_long_ieee34.csv
ieee34-stressed: converged in 93 iterations, max mismatch 8.908e-09 pu, power balance 5.268e-16 pu
warning: VoltageCollapseSuspect:890.A
wrote <out>/voltages_ieee34-stressed.csv
wrote <out>/flows_ieee34-stressed.csv
ieee34-stressed: 74 line-phase rows, excluded lines: 858-864
wrote <out>/single_segment_ieee34-stressed.csv
wrote <out>/plot_long_ieee34-stressed.csv
ieee34-stressed: 74 line-phase rows, excluded lines: 858-864
wrote <out>/single_segment_ieee34-stressed.csv
wrote <out>/plot_long_ieee34-stressed.csv
wrote <out>/multi_segment_ieee34-stressed.csv
n=10000: worst |oracle - formula| = 2.455e-09 at rho=0.9
wrote <out>/oracle_sweep.csv
note: sensor-17: dropped 1 duplicate timestamp(s), kept first
sensor-03->sensor-17: 720 points (60 flagged)
wrote <out>/loss_curve_sensor-03_sensor-17.csv
sensor-17->sensor-22: 720 points (37 flagged)
wrote <out>/loss_curve_sensor-17_sensor-22.csv
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_writes_voltage_and_flow_tables(tmp_path, capsys):
    code, out, err = run(capsys, "solve", IEEE13, "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert err == ""
    assert "converged in" in out and "power balance" in out
    volts = (tmp_path / "voltages_ieee13.csv").read_text().splitlines()
    assert volts[0] == "node,phase,magnitude_v,angle_deg"
    assert len(volts) > 13
    flows = (tmp_path / "flows_ieee13.csv").read_text().splitlines()
    assert flows[0] == "segment,phase,p_in_kw,q_in_kvar,p_out_kw,q_out_kvar"


def test_solve_output_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "solve", IEEE13, "--out-dir", str(a))[0] == EXIT_OK
    assert run(capsys, "solve", IEEE13, "--out-dir", str(b))[0] == EXIT_OK
    for name in ("voltages_ieee13.csv", "flows_ieee13.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_benchmark_reports_excluded_lines(tmp_path, capsys):
    code, out, _ = run(capsys, "benchmark", IEEE34, "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert "854-856" in out and "858-864" in out
    single = (tmp_path / "single_segment_ieee34.csv").read_text().splitlines()
    assert len(single) == 1 + 74
    assert (tmp_path / "plot_long_ieee34.csv").exists()
    assert not (tmp_path / "multi_segment_ieee34.csv").exists()


def test_benchmark_prints_the_first_excluded_lines_and_counts_the_rest(tmp_path, capsys):
    # a loaded line and seven unloaded spurs, each carrying no power
    doc = two_bus_doc(kw=[10.0], kvar=[5.0], r_ohm=0.3, x_ohm=0.6)
    spurs = [f"end-s{k}" for k in range(cli.EXCLUDED_SHOWN + 2)]
    for spur in spurs:
        doc["nodes"].append({"id": spur, "phases": "A"})
        doc["segments"].append({**doc["segments"][0], "id": spur, "from": "end", "to": spur})
    feeder = tmp_path / "spurs.json"
    feeder.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "benchmark", str(feeder), "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    shown = ", ".join(spurs[: cli.EXCLUDED_SHOWN])
    assert out.splitlines()[0] == f"twobus: 8 line-phase rows, excluded lines: {shown} and 2 more"
    rows = csv.DictReader((tmp_path / "single_segment_twobus.csv").read_text().splitlines())
    assert sorted(r["line_or_path"] for r in rows if r["excluded"] == "true") == spurs


def test_benchmark_paths_add_multi_segment_study(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "benchmark",
        IEEE34,
        "--paths",
        "800-814,816-822",
        "--out-dir",
        str(tmp_path),
    )
    assert code == EXIT_OK
    multi = (tmp_path / "multi_segment_ieee34.csv").read_text().splitlines()
    # three phases on 800-814 plus the single live phase of 816-822
    assert len(multi) == 1 + 4


def test_oracle_sweep_outputs_requested_points(tmp_path, capsys):
    code, out, _ = run(capsys, "oracle", "--segments", "500", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert out.startswith("n=500: worst |oracle - formula|")
    lines = (tmp_path / "oracle_sweep.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["rho"] + [f"0.{k}" for k in range(1, 10)]


def test_sensors_writes_one_curve_per_pair(tmp_path, capsys):
    code, out, _ = run(
        capsys, "sensors", SAMPLE_DAY, SAMPLE_CHAIN, "--out-dir", str(tmp_path)
    )
    assert code == EXIT_OK
    assert "dropped 1 duplicate" in out
    assert (tmp_path / "loss_curve_sensor-03_sensor-17.csv").exists()
    assert (tmp_path / "loss_curve_sensor-17_sensor-22.csv").exists()
    assert out.count("720 points") == 2


@pytest.fixture(scope="module")
def bundled_outputs(tmp_path_factory):
    """The command set of scripts/reproduce_results.py, run into one directory:
    that directory and the text the commands print."""
    out = tmp_path_factory.mktemp("bundled")
    common = ["--out-dir", str(out)]
    calls = []
    for feeder in (IEEE13, IEEE34, STRESSED):
        calls += [["solve", feeder], ["benchmark", feeder]]
    calls += [
        ["benchmark", STRESSED, "--paths", "800-814,816-822,828-854"],
        ["oracle"],
        ["sensors", SAMPLE_DAY, SAMPLE_CHAIN],
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for argv in calls:
            assert main(argv + common) == EXIT_OK, argv
    return out, stdout.getvalue()


def test_bundled_commands_write_exactly_the_reference_files(bundled_outputs):
    produced = sorted(p.name for p in bundled_outputs[0].iterdir())
    assert produced == sorted(p.name for p in REFERENCE.iterdir())


@pytest.mark.parametrize("name", sorted(p.name for p in REFERENCE.iterdir()))
def test_reference_outputs_byte_for_byte(bundled_outputs, name):
    assert (bundled_outputs[0] / name).read_bytes() == (REFERENCE / name).read_bytes()


def test_bundled_commands_print_the_recorded_text(bundled_outputs):
    out, stdout = bundled_outputs
    assert stdout.replace(str(out), "<out>") == BUNDLED_STDOUT


def test_rerun_into_a_populated_out_dir_replaces_every_output(tmp_path, capsys):
    out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
    out.mkdir()
    elsewhere.mkdir()
    calls = [["solve", IEEE13], ["sensors", SAMPLE_DAY, SAMPLE_CHAIN]]
    names = [
        "voltages_ieee13.csv",
        "flows_ieee13.csv",
        "loss_curve_sensor-03_sensor-17.csv",
        "loss_curve_sensor-17_sensor-22.csv",
    ]
    for name in names:  # stale outputs, longer than the new ones
        (out / name).write_text("stale\n" * 100_000)
    linked = out / names[2]
    linked.unlink()
    linked.symlink_to(elsewhere / "curve.csv")
    (elsewhere / "curve.csv").write_text("stale\n" * 100_000)
    for _ in range(2):
        for argv in calls:
            assert run(capsys, *argv, "--out-dir", str(out))[0] == EXIT_OK
        assert linked.is_symlink()
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        for name in names:
            assert (out / name).read_bytes() == (REFERENCE / name).read_bytes()
    assert (elsewhere / "curve.csv").read_bytes() == (REFERENCE / names[2]).read_bytes()


def test_missing_input_file_is_an_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.feeder"))
    assert code == EXIT_INPUT
    assert err.startswith("error:")


def test_non_radial_feeder_is_an_input_error(tmp_path, capsys):
    doc = json.loads(bundled_feeder_path("ieee13.feeder").read_text())
    loop = dict(doc["segments"][1])
    loop.update({"id": "loop", "from": loop["to"], "to": loop["from"]})
    doc["segments"] = doc["segments"] + [loop]
    bad = tmp_path / "loop.feeder"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", str(bad))
    assert code == EXIT_INPUT
    assert "not radial" in err


def test_misordered_delta_load_is_an_input_error(tmp_path, capsys):
    doc = json.loads(bundled_feeder_path("ieee13.feeder").read_text())
    next(ld for ld in doc["loads"] if ld["id"] == "671")["phases"] = "CBA"
    bad = tmp_path / "cba.feeder"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", str(bad))
    assert code == EXIT_INPUT
    assert "load 671" in err and "'CBA'" in err


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(base=5),
        lambda d: d.update(source=[]),
        lambda d: d.update(nodes=5),
        lambda d: d.update(segments=[7]),
        lambda d: d.update(loads=["671"]),
        lambda d: d["source"].update(nominal_kv_ll=0),
        lambda d: d["source"].update(nominal_kv_ll=-4.16),
        lambda d: d["source"].update(voltage_pu=float("nan")),
        lambda d: d["source"].update(voltage_pu=float("inf")),
        lambda d: d["source"].update(voltage_pu=True),
        lambda d: d["source"].update(voltage_pu=0.0),
        lambda d: d["source"].update(voltage_pu=[1.0, -1.0, 1.0]),
        lambda d: d["loads"][0].update(kw=[10**400] * len(d["loads"][0]["kw"])),
        lambda d: d.update(load_scale=10**400),
        lambda d: d["segments"][1].update(ratio=2.0),
        lambda d: d["loads"][0].update(segment=d["segments"][1]["id"]),
        lambda d: d.update(name=["x", 1]),
        lambda d: d.update(name="sub/ieee13"),
    ],
    ids=[
        "base-number",
        "source-list",
        "nodes-number",
        "segment-number",
        "load-string",
        "nominal-zero",
        "nominal-negative",
        "voltage-nan",
        "voltage-inf",
        "voltage-bool",
        "voltage-zero",
        "voltage-list-negative",
        "kw-10e400",
        "load-scale-10e400",
        "line-with-ratio",
        "load-at-node-and-segment",
        "name-list",
        "name-with-separator",
    ],
)
def test_malformed_feeder_document_is_an_input_error(tmp_path, capsys, edit):
    doc = json.loads(bundled_feeder_path("ieee13.feeder").read_text())
    edit(doc)
    bad = tmp_path / "bad.feeder"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", str(bad), "--out-dir", str(tmp_path))
    assert code == EXIT_INPUT
    assert err.startswith("error:") and out == ""


def test_nul_in_feeder_name_is_an_input_error_before_the_solve(tmp_path, capsys):
    doc = json.loads(bundled_feeder_path("ieee13.feeder").read_text())
    doc["name"] = "a\0b"
    bad = tmp_path / "nul.feeder"
    bad.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "solve", str(bad), "--out-dir", str(out_dir))
    assert code == EXIT_INPUT
    assert err == ("error: expected a nonempty name without a path separator or NUL, "
                   "got 'a\\x00b' [name]\n")
    assert out == ""
    assert not out_dir.exists()


def test_malformed_sensor_csv_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("sensor_id,timestamp,voltage_v\ns1,yesterday,230\n")
    code, _, err = run(capsys, "sensors", str(bad), SAMPLE_CHAIN)
    assert code == EXIT_INPUT
    assert "line 2" in err


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["pairs"][0].update({"upstream": ["sensor-03"]}),
        lambda d: d["pairs"][0].update({"downstream": {"id": "sensor-17"}}),
        lambda d: d.update({"grid_step_s": 1e-300}),
    ],
    ids=["upstream-list", "downstream-object", "grid-step-tiny"],
)
def test_malformed_chain_config_is_an_input_error(tmp_path, capsys, edit):
    doc = json.loads(Path(SAMPLE_CHAIN).read_text())
    edit(doc)
    bad = tmp_path / "chain.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "sensors", SAMPLE_DAY, str(bad), "--out-dir", str(tmp_path)
    )
    assert code == EXIT_INPUT
    assert err.startswith("error:") and "wrote" not in out


@pytest.mark.parametrize("scale,shown", [(0, "0.0"), (-1, "-1.0")])
def test_load_scale_not_above_zero_is_an_input_error(tmp_path, capsys, scale, shown):
    doc = json.loads(bundled_feeder_path("ieee13.feeder").read_text())
    doc["load_scale"] = scale
    bad = tmp_path / "scaled.feeder"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", str(bad), "--out-dir", str(tmp_path / "out"))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: expected a number > 0, got {shown} [load_scale]\n"
    assert not (tmp_path / "out").exists()


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    nested = "[" * 100_000
    feeder = tmp_path / "nested.feeder"
    feeder.write_text(nested)
    code, out, err = run(capsys, "solve", str(feeder), "--out-dir", str(tmp_path))
    assert (code, out, err) == (
        EXIT_INPUT, "", f"error: invalid JSON: nested too deeply [{feeder}]\n")
    chain = tmp_path / "nested.json"
    chain.write_text('{"sensors": ' + nested + "}")
    code, out, err = run(capsys, "sensors", SAMPLE_DAY, str(chain), "--out-dir", str(tmp_path))
    assert (code, out, err) == (
        EXIT_INPUT, "", f"error: {chain}: invalid JSON: nested too deeply\n")


def test_an_overflowing_calibrated_reading_fails_even_where_no_pair_reads_it(tmp_path, capsys):
    # a's last reading, times a's calibration, is inf; it lies past every
    # sample of b, so no grid point pairs it, yet its series is refused
    rows = [f"{sid},2024-03-12T00:0{k}:00Z,230" for k in range(4) for sid in "ab"]
    readings = tmp_path / "in.csv"
    readings.write_text("\n".join(
        ["sensor_id,timestamp,voltage_v", *rows, "a,2024-03-12T01:00:00Z,1e308", ""]))
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"sensors": ["a", "b"], "calibration": {"a": 10}}))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "sensors", str(readings), str(chain), "--out-dir", str(out_dir))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == ("error: a: voltage must be finite and >= 0, "
                   "got inf at 2024-03-12 01:00:00+00:00\n")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["loads"][0].update(kw=[1e308] * len(d["loads"][0]["kw"])),
        lambda d: d.update(load_scale=1e6),
    ],
    ids=["kw-1e308", "load-scale-1e6"],
)
def test_diverging_solve_reports_one_error_and_no_warnings(tmp_path, capsys, edit):
    doc = json.loads(bundled_feeder_path("ieee13.feeder").read_text())
    edit(doc)
    bad = tmp_path / "diverging.feeder"
    bad.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, "solve", str(bad), "--out-dir", str(tmp_path))
    assert caught == []
    assert code == EXIT_NUMERICAL
    assert err.splitlines() == [err.strip()] and err.startswith("error:")


def test_arithmetic_error_is_a_numerical_error(tmp_path, capsys):
    # the reader accepts this load; the angle of its constant current
    # overflows in cmath.phase
    doc = json.loads(bundled_feeder_path("ieee13.feeder").read_text())
    next(ld for ld in doc["loads"] if ld["id"] == "692").update(kw=[1e300], kvar=[1e-300])
    bad = tmp_path / "overflow.feeder"
    bad.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "solve", str(bad), "--out-dir", str(out_dir))
    assert code == EXIT_NUMERICAL
    assert err == "error: math range error\n" and out == ""
    assert not out_dir.exists()


def test_iteration_cap_is_a_numerical_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "solve", STRESSED, "--max-iter", "5", "--out-dir", str(tmp_path)
    )
    assert code == EXIT_NUMERICAL
    assert "no convergence in 5 sweeps" in err


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("solve",),
        ("frobnicate", IEEE13),
        ("solve", IEEE13, "--no-such-flag"),
        ("benchmark", IEEE34, "--paths", "bogus"),
        ("benchmark", IEEE34, "--rho-s-source", "estimate:1.5"),
        ("oracle", "--rho-list", "0.5"),
        ("oracle", "--segments", "0"),
        ("benchmark", IEEE34, "--near-zero-threshold", "0.1"),
        ("solve", IEEE13, "--max-iter", "150.0"),
        ("benchmark", IEEE34, "--max-iter", "True"),
        ("benchmark", IEEE34, "--paths", ","),
        ("benchmark", IEEE34, "--paths", "800-814,-822"),
        ("solve", IEEE13, "--tol", "True"),
    ],
)
def test_bad_usage_exits_one(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # the default --out-dir
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "error:" in err and "Traceback" not in err
    # a bad value is reported against the option that carried it, and a
    # removed flag as an unrecognized argument
    valued = [a for a in argv if a.startswith("--") and a != "--no-such-flag"]
    if valued and valued[0] in ("--rho-list", "--near-zero-threshold"):
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    elif valued:
        assert f"argument {valued[0]}" in err
    assert not any(tmp_path.iterdir())


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["solve", "--help"], ["sensors", "--help"]):
        assert run(capsys, *argv)[0] == EXIT_OK


def test_one_parser_serves_every_call_as_fresh_ones_would(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the default --out-dir
    out = ("--out-dir", str(tmp_path))
    calls = [
        ("oracle", "--segments", "oops"),
        ("benchmark", IEEE13, "--rho-s-source", "simulated"),
        ("oracle", "--segments", "20", *out),
        ("solve", IEEE13, *out),
        ("solve", IEEE13, "--max-iter", "0"),
        ("oracle", "--segments", "10", *out),
    ]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", build_parser)  # a new parser per call
        fresh = [run(capsys, *argv) for argv in calls]
    built = []

    def counted():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        reused = [run(capsys, *argv) for argv in calls]
    finally:
        cli._parser.cache_clear()
    assert [code for code, _, _ in fresh] == [
        EXIT_USAGE, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]
    assert reused == fresh
    assert len(built) == 1


@pytest.mark.parametrize(
    "option,value",
    [
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--tol", "-1"),
        ("--tol", "0"),
        ("--max-iter", "0"),
        ("--max-iter", "-3"),
    ],
)
def test_solver_options_are_checked_at_parse_time(tmp_path, capsys, option, value):
    code, _, err = run(
        capsys, "solve", IEEE13, option, value, "--out-dir", str(tmp_path)
    )
    assert code == EXIT_USAGE
    assert f"argument {option}" in err
    assert "Traceback" not in err and "convergence" not in err
    assert not any(tmp_path.iterdir())


def test_rho_s_source_exit_codes(tmp_path, capsys):
    def multi(source):
        code, _, err = run(
            capsys, "benchmark", IEEE13, "--paths", "650-675",
            "--rho-s-source", source, "--out-dir", str(tmp_path),
        )
        return code, err

    def rho_s_column():
        rows = (tmp_path / "multi_segment_ieee13.csv").read_text().splitlines()[1:]
        return [row.split(",")[9] for row in rows]

    assert multi("simulated")[0] == EXIT_OK
    assert "0.7" not in rho_s_column()
    assert multi("estimate:0.7")[0] == EXIT_OK
    assert set(rho_s_column()) == {"0.7"}
    for source, message in (
        ("bogus", "unknown rho_s source"),
        ("estimate:1.5", "[0, 1]"),
        ("estimate:abc", "could not convert"),
    ):
        code, err = multi(source)
        assert code == EXIT_USAGE
        assert "argument --rho-s-source" in err and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", IEEE13, "--paths", "650-671"),
        ("oracle", "--tol", "1e-6"),
        ("oracle", "--max-iter", "5"),
        ("oracle", "--paths", "650-671"),
        ("sensors", SAMPLE_DAY, SAMPLE_CHAIN, "--tol", "5"),
        ("sensors", SAMPLE_DAY, SAMPLE_CHAIN, "--max-iter", "5"),
        ("sensors", SAMPLE_DAY, SAMPLE_CHAIN, "--segments", "3"),
    ],
)
def test_subcommands_reject_flags_they_do_not_read(tmp_path, capsys, argv):
    code, _, err = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == EXIT_USAGE
    assert f"unrecognized arguments: {argv[-2]}" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("source", ["estimate:0.7", "simulated"])
def test_rho_s_source_needs_paths(tmp_path, capsys, source):
    code, _, err = run(
        capsys, "benchmark", IEEE13, "--rho-s-source", source,
        "--out-dir", str(tmp_path),
    )
    assert code == EXIT_USAGE
    assert "argument --rho-s-source" in err and "--paths" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "paths,message",
    [
        ("800-800", "path 800-800 has no segments"),
        ("814-800", "800 is not downstream of 814"),
        ("800-nope", "unknown node in path 800-nope"),
    ],
    ids=["same-node", "upstream-tail", "unknown-node"],
)
def test_bad_path_is_an_input_error_with_no_output(tmp_path, capsys, paths, message):
    code, out, err = run(
        capsys, "benchmark", IEEE34, "--paths", paths, "--out-dir", str(tmp_path)
    )
    assert code == EXIT_INPUT
    assert err == f"error: {message}\n"
    assert out == ""
    assert not any(tmp_path.iterdir())


def _hyphen_chain(tmp_path):
    """A feeder file whose line runs s -> a -> a-b -> b-c -> c, each node loaded."""
    doc = two_bus_doc([30.0], [10.0], 0.3, 0.6)
    line, load = doc["segments"][0], doc["loads"][0]
    ids = ["s", "a", "a-b", "b-c", "c"]
    doc["source"]["node"] = "s"
    doc["nodes"] = [{"id": node, "phases": "A"} for node in ids]
    doc["segments"] = [dict(line, id=f"line{k}", **{"from": up, "to": down})
                       for k, (up, down) in enumerate(zip(ids, ids[1:]))]
    doc["loads"] = [dict(load, id=f"L{k}", node=node) for k, node in enumerate(ids[1:])]
    path = tmp_path / "hyphens.feeder"
    path.write_text(json.dumps(doc))
    return path


def test_paths_split_where_both_sides_are_node_ids(tmp_path, capsys):
    feeder = _hyphen_chain(tmp_path)
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "benchmark", str(feeder), "--paths", "a-b-b-c, s-a-b",
                       "--out-dir", str(out_dir))
    assert (code, err) == (EXIT_OK, "")
    model = parse_feeder(feeder)
    rows = run_multi_segment_study(model, [("a-b", "b-c"), ("s", "a-b")],
                                   solution=solve_end_split(model, SolveOptions()))
    want = tmp_path / "want.csv"
    write_comparison_csv(rows, want)
    assert (out_dir / "multi_segment_twobus.csv").read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "paths,message",
    [
        ("a-b-c", "path 'a-b-c' is ambiguous: 'a' to 'b-c' or 'a-b' to 'c'"),
        ("a-x-c", "unknown node in path a-x-c"),
    ],
    ids=["two-readings", "no-reading"],
)
def test_path_with_other_than_one_reading_is_an_input_error(tmp_path, capsys, paths, message):
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "benchmark", str(_hyphen_chain(tmp_path)),
                         "--paths", paths, "--out-dir", str(out_dir))
    assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "sensors,message",
    [
        (
            ["a", "b_c", "a_b", "c"],
            "pairs 'a'->'b_c' and 'a_b'->'c' would both write loss_curve_a_b_c.csv",
        ),
        (
            ["a", "b", "x/y"],
            "sensor id 'x/y' holds a path separator or NUL, "
            "so 'loss_curve_b_x/y.csv' would not be a file of the output directory",
        ),
        (
            ["a", "b", "c\0d"],
            "sensor id 'c\\x00d' holds a path separator or NUL, "
            "so 'loss_curve_b_c\\x00d.csv' would not be a file of the output directory",
        ),
    ],
    ids=["colliding-curve-files", "separator-in-sensor-id", "nul-in-sensor-id"],
)
def test_chain_whose_curve_files_collide_or_escape_is_an_input_error(
    tmp_path, capsys, sensors, message
):
    data = tmp_path / "readings.csv"
    data.write_text("sensor_id,timestamp,voltage_v\n" + "".join(
        f"{sid},2024-03-12T00:0{t}:00Z,{230 - i}\n"
        for t in range(3) for i, sid in enumerate(sensors)
    ))
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"sensors": sensors}))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "sensors", str(data), str(chain), "--out-dir", str(out_dir))
    assert code == EXIT_INPUT
    assert err == f"error: {chain}: {message}\n"
    assert out == ""
    assert not out_dir.exists()



FALL_BACK_DAY = datetime(2024, 11, 2, tzinfo=timezone.utc)


def _stamp(t_s, offset_min):
    """The instant FALL_BACK_DAY + t_s as wall time at a UTC offset of offset_min."""
    wall = FALL_BACK_DAY + timedelta(seconds=t_s, minutes=offset_min)
    sign, minutes = "+-"[offset_min < 0], abs(offset_min)
    return f"{wall:%Y-%m-%dT%H:%M:%S}{sign}{minutes // 60:02d}:{minutes % 60:02d}"


@st.composite
def sensor_runs(draw):
    """(readings text, chain config) of 2-4 sensors over up to two days.

    Each sensor writes its stamps at its own UTC offset, from -12:00 to
    +14:00, and may add fall-back twins: a reading an hour later at an
    offset an hour less, so both show one wall time.  Its readings are
    all normal, all below the outage threshold (half of 230 V), or
    either; its span may miss every other sensor's, or hold no reading.
    """
    ids = [f"s{k}" for k in range(draw(st.integers(2, 4)))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))  # readings, twins, order
    rows = []
    for sensor in ids:
        start = draw(st.sampled_from([0, 3600]) | st.integers(0, 2 * 86400))
        step = draw(st.sampled_from([60, 120, 300, 1800]))
        count = draw(st.integers(1, min(60, (2 * 86400 - start) // step + 1)))
        count *= rng.random() > 0.05
        offset = draw(st.integers(-11 * 60, 14 * 60))
        normal, outage, either = (225.0, 240.0), (0.0, 114.0), (0.0, 240.0)
        low, high = draw(st.sampled_from([normal, normal, normal, outage, either]))
        for k in range(count):
            t = start + k * step
            rows.append((sensor, _stamp(t, offset), rng.uniform(low, high)))
            if rng.random() < 0.1:
                rows.append((sensor, _stamp(t + 3600, offset - 60), rng.uniform(low, high)))
    rng.shuffle(rows)
    text = "sensor_id,timestamp,voltage_v\n" + "".join(f"{s},{t},{v:.3f}\n" for s, t, v in rows)
    chain = {
        "sensors": ids,
        "pairs": [{"upstream": a, "downstream": b, "rho_s": draw(st.sampled_from([0.0, 0.5, 1.0]))}
                  for a, b in zip(ids, ids[1:]) if draw(st.booleans())],
        "grid_step_s": draw(st.sampled_from([60, 120, 600])),
        "tolerance_s": draw(st.sampled_from([0, 60, 300])),
        "smoothing_window_s": draw(st.sampled_from([0, 600])),
    }
    return text, chain


@settings(max_examples=100, deadline=None)
@given(run=sensor_runs())
def test_sensors_end_to_end_write_every_curve_or_fail_with_one_error(run):
    text, chain = run
    with tempfile.TemporaryDirectory() as tmp:
        readings, config = Path(tmp, "readings.csv"), Path(tmp, "chain.json")
        out = Path(tmp, "out")
        readings.write_text(text)
        config.write_text(json.dumps(chain))
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main(["sensors", str(readings), str(config), "--out-dir", str(out)])
        err = stderr.getvalue()
        if code == EXIT_INPUT:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            return
        assert (code, err) == (EXIT_OK, "")
        ids = chain["sensors"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"loss_curve_{a}_{b}.csv" for a, b in zip(ids, ids[1:]))
