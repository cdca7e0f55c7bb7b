"""Every way in to a user-settable value applies the same rule.

A setting reaches the library through a CLI flag or a chain-config key
and through a direct library call.  For each setting and value the table
below lists those ways in; the first is the library call whose message is
the rule's, which the others may lead with the key, sensor or pair.  All
of them must accept the value, or all must reject it with a ValueError (a
usage error, exit 1, for a flag) that carries the rule's message.
"""

import contextlib
import io
import json
import math
from datetime import datetime, timezone

import numpy as np
import pytest

from voss.benchmark import run_multi_segment_study
from voss.cli import EXIT_USAGE, build_parser
from voss.estimator import clamp_rho, correction_factor, voss_estimate
from voss.feeder import (
    bundled_feeder_path,
    parse_feeder,
    split_distributed_loads_to_ends,
)
from voss.line_oracle import sweep_rho
from voss.powerflow import SolveOptions, solve
from voss.sensors import (
    SensorChain,
    VoltageSeries,
    align,
    ingest_csv,
    loss_curve,
    parse_chain_config,
    rolling_median,
)

T0 = datetime(2024, 3, 12, tzinfo=timezone.utc)  # on every grid used below
UP = VoltageSeries("up", [(T0, 230.0)])
DOWN = VoltageSeries("down", [(T0, 228.0)])
NAN, INF = math.nan, math.inf


@pytest.fixture(scope="module")
def feeder():
    model = parse_feeder(bundled_feeder_path("ieee13.feeder"))
    return model, solve(split_distributed_loads_to_ends(model))


def flag(*argv):
    """The CLI way in: argv with {} standing for the value, parsed only."""

    def way(value, ctx):
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                build_parser().parse_args([a.format(value) for a in argv])
        except SystemExit as exc:
            assert exc.code == EXIT_USAGE
            raise ValueError(stderr.getvalue()) from None

    return way


def config(edit):
    """The chain-config way in: a two-sensor config that edit sets the value in."""

    def way(value, ctx):
        doc = {"sensors": ["a", "b"]}
        edit(doc, value)
        path = ctx["tmp"] / "chain.json"
        path.write_text(json.dumps(doc))
        parse_chain_config(path)

    return way


def readings(ctx):
    path = ctx["tmp"] / "readings.csv"
    path.write_text("sensor_id,timestamp,voltage_v\ns1,2024-03-12T00:00:00Z,230\n")
    return path


def study_multi(key):
    """The multi-segment study on one ieee13 path, with the value as key."""

    def way(value, ctx):
        model, solution = ctx["feeder"]
        run_multi_segment_study(
            model, [("650", "671")], solution=solution, **{key: value}
        )

    return way


PAIR = {"upstream": "a", "downstream": "b"}


def curve(**setting):
    """loss_curve on one paired point, the chain holding the setting."""
    return loss_curve(SensorChain(("up", "down"), **setting), {"up": UP, "down": DOWN})


def chain(key):
    """The direct way in: a two-sensor chain built with the value as key."""
    return lambda v, ctx: SensorChain(("a", "b"), **{key: v})


# setting -> (ways in, values accepted, values rejected)
SETTINGS = {
    "tol": (
        [
            lambda v, ctx: SolveOptions(tol=v),
            flag("solve", "f", "--tol", "{}"),
            flag("benchmark", "f", "--tol", "{}"),
        ],
        [1e-8, 1.0],
        [0.0, -1.0, NAN, INF],
    ),
    "max_iter": (
        [
            lambda n, ctx: SolveOptions(max_iter=n),
            flag("solve", "f", "--max-iter", "{}"),
            flag("benchmark", "f", "--max-iter", "{}"),
        ],
        [1, 200],
        [0, -1, 1.5, True],
    ),
    "rho": (
        [
            lambda v, ctx: correction_factor(v),
            lambda v, ctx: sweep_rho([v], 10),
        ],
        [0.0, 0.5, 1.0],
        [-0.1, 1.5, NAN, INF, True],
    ),
    "rho_s": (
        [
            study_multi("rho_s"),
            lambda v, ctx: SensorChain(("a", "b"), (v,)),
            config(lambda d, v: d.update(pairs=[PAIR | {"rho_s": v}])),
            flag("benchmark", "f", "--paths", "a-b", "--rho-s-source", "estimate:{}"),
        ],
        [0.0, 0.5, 1.0],
        [-0.1, 1.5, NAN, INF, True, "high"],
    ),
    "segment count": (
        [
            lambda n, ctx: sweep_rho([0.5], n),
            flag("oracle", "--segments", "{}"),
        ],
        [1, 7],
        [0, -3, 1.5, True],
    ),
    "nominal_voltage": (
        [
            lambda v, ctx: VoltageSeries("s", (), nominal_voltage=v),
            lambda v, ctx: ingest_csv(readings(ctx), nominal_voltage=v),
            chain("nominal_voltage_v"),
            config(lambda d, v: d.update(nominal_voltage_v=v)),
        ],
        [230.0, 1e-3],
        [0.0, -5.0, NAN, INF, True],
    ),
    "calibration": (
        [
            lambda v, ctx: SensorChain(("a", "b"), calibration={"a": v}),
            config(lambda d, v: d.update(calibration={"a": v})),
        ],
        [1.0, 0.5],
        [0.0, -1.0, NAN, INF, True],
    ),
    "window_s": (
        [
            lambda v, ctx: rolling_median([0.0], [1.0], v),
            chain("smoothing_window_s"),
            lambda v, ctx: curve(smoothing_window_s=v),
            config(lambda d, v: d.update(smoothing_window_s=v)),
        ],
        [0.0, 600.0],
        [-1.0, NAN, INF, True, "600"],
    ),
    "grid_step_s": (
        [
            lambda v, ctx: align(UP, DOWN, grid_step_s=v),
            chain("grid_step_s"),
            lambda v, ctx: curve(grid_step_s=v),
            config(lambda d, v: d.update(grid_step_s=v)),
        ],
        [1e-6, 120.0],
        [1e-7, 0.0, -120.0, NAN, INF, True],
    ),
    "tolerance_s": (
        [
            lambda v, ctx: align(UP, DOWN, tolerance_s=v),
            chain("tolerance_s"),
            lambda v, ctx: curve(tolerance_s=v),
            config(lambda d, v: d.update(tolerance_s=v)),
        ],
        [0.0, 60.0],
        [-1.0, NAN, INF, True],
    ),
}

CASES = [
    pytest.param(name, value, accepted, id=f"{name}-{value}")
    for name, (_, good, bad) in SETTINGS.items()
    for values, accepted in ((good, True), (bad, False))
    for value in values
]


@pytest.mark.parametrize("name,value,accepted", CASES)
def test_every_way_in_applies_the_one_rule(tmp_path, feeder, name, value, accepted):
    ctx = {"tmp": tmp_path, "feeder": feeder}
    messages = []
    for way in SETTINGS[name][0]:
        try:
            way(value, ctx)
        except ValueError as exc:
            messages.append(str(exc))
        else:
            messages.append(None)
    if accepted:
        assert messages == [None] * len(messages)
    else:
        assert None not in messages, messages
        assert all(messages[0] in message for message in messages), messages


def test_clamp_rho_keeps_nan_as_the_correction_does():
    assert math.isnan(clamp_rho(NAN))
    assert math.isnan(voss_estimate(0.9, NAN)[1])
    got = clamp_rho(np.array([-0.5, 0.25, NAN, 2.0]))
    assert np.array_equal(got, [0.0, 0.25, NAN, 1.0], equal_nan=True)
