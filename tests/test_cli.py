"""Command-line entry points, exit codes, and output files."""

import json
from pathlib import Path

import pytest

from voss.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from voss.feeder import bundled_feeder_path

IEEE13 = str(bundled_feeder_path("ieee13.feeder"))
IEEE34 = str(bundled_feeder_path("ieee34.feeder"))
STRESSED = str(bundled_feeder_path("ieee34-stressed.feeder"))
SAMPLE_DAY = str(bundled_feeder_path("sample_day.csv"))
SAMPLE_CHAIN = str(bundled_feeder_path("sample_chain.json"))
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"


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
    code, out, _ = run(
        capsys,
        "oracle",
        "--rho-list",
        "0.3,0.6",
        "--segments",
        "500",
        "--out-dir",
        str(tmp_path),
    )
    assert code == EXIT_OK
    assert "worst |oracle - formula|" in out
    lines = (tmp_path / "oracle_sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 2


def test_sensors_writes_one_curve_per_pair(tmp_path, capsys):
    code, out, _ = run(
        capsys, "sensors", SAMPLE_DAY, SAMPLE_CHAIN, "--out-dir", str(tmp_path)
    )
    assert code == EXIT_OK
    assert "dropped 1 duplicate" in out
    assert (tmp_path / "loss_curve_sensor-03_sensor-17.csv").exists()
    assert (tmp_path / "loss_curve_sensor-17_sensor-22.csv").exists()
    assert out.count("720 points") == 2


@pytest.mark.parametrize(
    "name",
    ["loss_curve_sensor-03_sensor-17.csv", "loss_curve_sensor-17_sensor-22.csv"],
)
def test_sensors_reproduces_reference_curves_byte_for_byte(tmp_path, capsys, name):
    code, _, _ = run(
        capsys, "sensors", SAMPLE_DAY, SAMPLE_CHAIN, "--out-dir", str(tmp_path)
    )
    assert code == EXIT_OK
    assert (tmp_path / name).read_bytes() == (REFERENCE / name).read_bytes()


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


def test_malformed_sensor_csv_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("sensor_id,timestamp,voltage_v\ns1,yesterday,230\n")
    code, _, err = run(capsys, "sensors", str(bad), SAMPLE_CHAIN)
    assert code == EXIT_INPUT
    assert "line 2" in err


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
        ("oracle", "--rho-list", "0.5,oops"),
    ],
)
def test_bad_usage_exits_one(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "error:" in err


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["solve", "--help"], ["sensors", "--help"]):
        assert run(capsys, *argv)[0] == EXIT_OK


@pytest.mark.parametrize(
    "value,expected", [("0", EXIT_OK), ("nan", EXIT_USAGE), ("-1", EXIT_USAGE)]
)
def test_near_zero_threshold_edge_values(tmp_path, capsys, value, expected):
    code, out, err = run(
        capsys,
        "benchmark",
        IEEE13,
        "--near-zero-threshold",
        value,
        "--out-dir",
        str(tmp_path),
    )
    assert code == expected
    assert "Traceback" not in err
    if expected == EXIT_OK:
        # the line with exactly zero input power is still excluded
        assert "excluded lines: 671-680" in out


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
