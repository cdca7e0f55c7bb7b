"""Loss-fraction time series from field voltage sensors.

Pole-mounted sensors report a voltage magnitude every couple of minutes.
Pairs of sensors along a feeder are aligned onto a common time grid,
median-smoothed, and fed to the magnitude-only estimator, giving a
fractional loss curve for each sensed span.  A constant transformer
turns ratio between sensor and conductor cancels in the voltage ratio,
so readings are used as reported; explicit per-sensor calibration
factors are available for known ratio offsets, but there is no implicit
normalization (that would erase the very drop being measured).

Inside this module a series is two numpy arrays, int64 UTC epoch
microseconds and float64 volts, and a loss curve is three: grid
timestamps in epoch microseconds, loss fractions, and flag bits.  The
object views (``VoltageSeries.samples``, ``LossCurve.points``) are
built only when read.  Ingest parses each distinct timestamp string
once.  ``loss_curve`` splits off outage readings, calibrates and
median-smooths each sensor once, however many pairs it belongs to.
The array kernels (rolling median, nearest sample, grid, timestamp
rounding and formatting) are in ``voss.timeseries``, the elementwise
estimate in ``voss.estimator``.
Times in seconds are ``epoch_us / 1e6``, which equals
``datetime.timestamp()`` bit for bit (within 2**53 us, about 285 years,
of 1970), so grid and alignment arithmetic is the same as on datetimes.

Scaling both series of a pair by the same factor leaves the curve
unchanged; for power-of-two factors the output is bit-identical, since
every step (calibration, median, ratio) then commutes exactly with the
scaling.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from .estimator import EstimateFlag, check_rho_s, voss_elementwise
from .ioutil import format_float, write_csv
from .timeseries import (
    format_utc,
    grid_points,
    nearest_index,
    rolling_median,
    seconds_to_us,
)

CSV_HEADER = ["sensor_id", "timestamp", "voltage_v"]
CURVE_HEADER = ["timestamp", "loss_fraction", "flags"]

GRID_STEP_S = 120.0
PAIR_TOLERANCE_S = 60.0
SMOOTHING_WINDOW_S = 600.0

# Samples below this fraction of nominal voltage are outage readings,
# not grid state; they are flagged and kept out of the loss curve.
POWER_SUSPECT_FRACTION = 0.5

# A curve point's flags are bits: bit k stands for FLAG_NAMES[k], and
# flags are always listed in this order.
FLAG_NAMES = tuple(
    flag.value
    for flag in (
        EstimateFlag.GAP,
        EstimateFlag.POWER_STATE_SUSPECT,
        EstimateFlag.NEGATIVE_DROP,
        EstimateFlag.CORRECTION_OUT_OF_RANGE,
    )
)
GAP_BIT, SUSPECT_BIT, NEGATIVE_BIT, RANGE_BIT = 1, 2, 4, 8
_FLAG_TUPLES = tuple(
    tuple(name for k, name in enumerate(FLAG_NAMES) if bits >> k & 1)
    for bits in range(1 << len(FLAG_NAMES))
)
_FLAG_TEXT = tuple(";".join(flags) for flags in _FLAG_TUPLES)

UTC = timezone.utc
EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
_ONE_US = timedelta(microseconds=1)


class SensorFormatError(ValueError):
    """Malformed sensor CSV or chain configuration."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _epoch_us(ts: datetime) -> int:
    return (ts - EPOCH) // _ONE_US


def _datetime(epoch_us: int) -> datetime:
    return EPOCH + timedelta(microseconds=epoch_us)


def _array(dtype):
    """A dataclass field holding a read-only numpy array of dtype."""
    return field(metadata={"dtype": dtype})


class _ArrayRecord:
    """Base of the frozen dataclasses that keep their data in _array fields."""

    def _fill(self, *values) -> None:
        """Assign the fields in declaration order, freezing array fields."""
        for f, value in zip(fields(self), values):
            if "dtype" in f.metadata:
                value = np.array(value, dtype=f.metadata["dtype"])
                value.flags.writeable = False
            object.__setattr__(self, f.name, value)

    @classmethod
    def _unchecked(cls, *values):
        """An instance from its field values, without __init__'s checks."""
        record = cls.__new__(cls)
        record._fill(*values)
        return record

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if "dtype" in f.metadata:
                if not np.array_equal(mine, theirs, equal_nan=True):
                    return False
            elif mine != theirs:
                return False
        return True


@dataclass(frozen=True, init=False, eq=False)
class VoltageSeries(_ArrayRecord):
    """Sorted voltage-magnitude samples from one sensor.

    Built from (aware datetime, volts) pairs with strictly increasing
    timestamps; gaps are simply missing entries.  Stored as epoch_us
    (int64 UTC epoch microseconds) and volts (float64); samples gives
    the pairs back.  calibration multiplies readings before any use and
    defaults to 1.
    """

    sensor_id: str
    epoch_us: np.ndarray = _array(np.int64)
    volts: np.ndarray = _array(np.float64)
    nominal_voltage: float
    calibration: float
    duplicates_dropped: int

    def __init__(
        self,
        sensor_id: str,
        samples,
        nominal_voltage: float = 230.0,
        calibration: float = 1.0,
        duplicates_dropped: int = 0,
    ) -> None:
        if not sensor_id:
            raise ValueError("sensor_id must be nonempty")
        if not (nominal_voltage > 0.0):
            raise ValueError(f"nominal_voltage must be > 0, got {nominal_voltage}")
        if not (calibration > 0.0):
            raise ValueError(f"calibration must be > 0, got {calibration}")
        samples = tuple(samples)
        prev = None
        for ts, volts in samples:
            if ts.tzinfo is None:
                raise ValueError(f"{sensor_id}: naive timestamp {ts}")
            if prev is not None and ts <= prev:
                raise ValueError(
                    f"{sensor_id}: timestamps not strictly increasing at {ts}"
                )
            if volts < 0.0 or not math.isfinite(volts):
                raise ValueError(f"{sensor_id}: bad voltage {volts} at {ts}")
            prev = ts
        self._fill(
            sensor_id,
            [_epoch_us(ts) for ts, _ in samples],
            [volts for _, volts in samples],
            nominal_voltage,
            calibration,
            duplicates_dropped,
        )

    @property
    def samples(self) -> tuple:
        """(UTC datetime, volts) pairs, built on each access."""
        return tuple(zip(map(_datetime, self.epoch_us.tolist()), self.volts.tolist()))

    def span(self) -> tuple:
        if not self.epoch_us.size:
            raise ValueError(f"{self.sensor_id}: empty series")
        return _datetime(int(self.epoch_us[0])), _datetime(int(self.epoch_us[-1]))


@dataclass(frozen=True)
class SensorChain:
    """Sensors in feeder order with a power-ratio estimate per span.

    rho_s has one entry per adjacent pair.  None means no engineering
    estimate is available and that span uses the raw uncorrected
    estimate.
    """

    sensor_ids: tuple
    rho_s: tuple = ()

    def __post_init__(self) -> None:
        if len(self.sensor_ids) < 2:
            raise ValueError("a chain needs at least two sensors")
        if len(set(self.sensor_ids)) != len(self.sensor_ids):
            raise ValueError("duplicate sensor ids in chain")
        if not self.rho_s:
            object.__setattr__(self, "rho_s", (None,) * (len(self.sensor_ids) - 1))
        if len(self.rho_s) != len(self.sensor_ids) - 1:
            raise ValueError(
                f"need {len(self.sensor_ids) - 1} rho_s entries "
                f"(one per adjacent pair), got {len(self.rho_s)}"
            )
        for value in self.rho_s:
            check_rho_s(value)

    def pairs(self) -> list:
        """(upstream, downstream, rho_s) per adjacent pair, feeder order."""
        return [
            (self.sensor_ids[i], self.sensor_ids[i + 1], self.rho_s[i])
            for i in range(len(self.sensor_ids) - 1)
        ]


@dataclass(frozen=True)
class CurvePoint:
    timestamp: datetime
    loss_fraction: float  # nan when the point is a gap or outage-suspect
    flags: tuple = ()


def _flag_bits(flags) -> int:
    return sum(1 << FLAG_NAMES.index(flag) for flag in set(flags))


@dataclass(frozen=True, init=False, eq=False)
class LossCurve(_ArrayRecord):
    """Loss-fraction estimates for one sensed span on the aligned grid.

    One array entry per grid point: timestamp_us (UTC epoch
    microseconds), loss_fraction (nan at gap and outage-suspect points)
    and flag_bits (see FLAG_NAMES).  Built from CurvePoint objects;
    points gives them back.
    """

    upstream: str
    downstream: str
    timestamp_us: np.ndarray = _array(np.int64)
    loss_fraction: np.ndarray = _array(np.float64)
    flag_bits: np.ndarray = _array(np.uint8)
    window_s: float
    grid_step_s: float
    tolerance_s: float
    rho_s: Optional[float]

    def __init__(
        self,
        upstream: str,
        downstream: str,
        points,
        window_s: float,
        grid_step_s: float,
        tolerance_s: float,
        rho_s: Optional[float] = None,
    ) -> None:
        points = tuple(points)
        self._fill(
            upstream,
            downstream,
            [_epoch_us(p.timestamp) for p in points],
            [p.loss_fraction for p in points],
            [_flag_bits(p.flags) for p in points],
            window_s,
            grid_step_s,
            tolerance_s,
            rho_s,
        )

    @property
    def points(self) -> tuple:
        """One CurvePoint per grid point, built on each access."""
        return tuple(
            CurvePoint(_datetime(us), loss, _FLAG_TUPLES[bits])
            for us, loss, bits in zip(
                self.timestamp_us.tolist(),
                self.loss_fraction.tolist(),
                self.flag_bits.tolist(),
            )
        )


def _parse_epoch_us(text: str, line_no: int) -> int:
    try:
        ts = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
        # a bare timestamp is taken as UTC; astimezone rejects an offset
        # that moves the instant outside years 1-9999
        ts = ts.replace(tzinfo=UTC) if ts.tzinfo is None else ts.astimezone(UTC)
    except (ValueError, OverflowError) as exc:
        raise SensorFormatError(f"bad timestamp {text!r}: {exc}", line=line_no) from None
    return _epoch_us(ts)


def ingest_csv(path, nominal_voltage: float = 230.0, calibration=None) -> list:
    """Read sensor_id,timestamp,voltage_v rows into per-sensor series.

    Rows may arrive in any order; each series comes back sorted.  A
    repeated timestamp within one sensor keeps the first reading seen in
    the file and counts the rest in duplicates_dropped.  Any malformed
    row fails with its line number.  A leading UTF-8 byte-order mark is
    skipped.  Returns series sorted by sensor id.
    """
    calibration = calibration or {}
    stamps: dict = {}  # timestamp text -> epoch microseconds
    per_sensor: dict = {}  # sensor id -> {epoch microseconds: volts}
    dropped: dict = {}
    with Path(path).open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SensorFormatError("empty file, expected header", line=1) from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise SensorFormatError(
                f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}",
                line=1,
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise SensorFormatError(
                    f"expected 3 fields, got {len(row)}", line=line_no
                )
            sensor_id = row[0].strip()
            if not sensor_id:
                raise SensorFormatError("empty sensor_id", line=line_no)
            us = stamps.get(row[1])
            if us is None:
                us = stamps[row[1]] = _parse_epoch_us(row[1], line_no)
            try:
                volts = float(row[2])
            except ValueError:
                raise SensorFormatError(
                    f"bad voltage {row[2]!r}", line=line_no
                ) from None
            if volts < 0.0 or not math.isfinite(volts):
                raise SensorFormatError(
                    f"voltage must be finite and >= 0, got {row[2]}", line=line_no
                )
            bucket = per_sensor.setdefault(sensor_id, {})
            if us in bucket:
                dropped[sensor_id] = dropped.get(sensor_id, 0) + 1
            else:
                bucket[us] = volts
    series = []
    for sensor_id in sorted(per_sensor):
        bucket = per_sensor[sensor_id]
        epoch_us = sorted(bucket)
        series.append(
            VoltageSeries._unchecked(
                sensor_id,
                epoch_us,
                [bucket[us] for us in epoch_us],
                nominal_voltage,
                calibration.get(sensor_id, 1.0),
                dropped.get(sensor_id, 0),
            )
        )
    return series


def align(
    series_a: VoltageSeries,
    series_b: VoltageSeries,
    grid_step_s: float = GRID_STEP_S,
    tolerance_s: float = PAIR_TOLERANCE_S,
) -> tuple:
    """Pair two series onto a shared time grid.

    Returns (grid, v_a, v_b) as float arrays: the grid in epoch seconds,
    spanning the overlap of the two series, and per grid point the
    nearest stored sample within tolerance_s from each side (ties go to
    the earlier sample), nan where there is none (a gap).  Raises when
    the series do not overlap or the overlap contains no grid point.
    """
    if not series_a.epoch_us.size or not series_b.epoch_us.size:
        raise ValueError("align needs two nonempty series")
    ea, eb = series_a.epoch_us / 1e6, series_b.epoch_us / 1e6
    start = max(float(ea[0]), float(eb[0]))
    end = min(float(ea[-1]), float(eb[-1]))
    if start > end:
        raise ValueError(
            f"series {series_a.sensor_id!r} and {series_b.sensor_id!r} do not overlap"
        )
    grid = grid_points(start, end, grid_step_s)
    if not grid.size:
        raise ValueError(
            f"overlap of {series_a.sensor_id!r} and {series_b.sensor_id!r} "
            f"contains no grid point at step {grid_step_s} s"
        )
    sides = []
    for epochs, series in ((ea, series_a), (eb, series_b)):
        index = nearest_index(epochs, grid, tolerance_s)
        sides.append(np.where(index >= 0, series.volts[index], np.nan))
    return (grid, *sides)


def _smoothed(series: VoltageSeries, window_s: float) -> tuple:
    """(clean samples, calibrated and median-smoothed; outage epoch seconds)."""
    clean = ~(series.volts < POWER_SUSPECT_FRACTION * series.nominal_voltage)
    epoch_us = series.epoch_us[clean]
    smoothed = rolling_median(
        epoch_us / 1e6, series.volts[clean] * series.calibration, window_s
    )
    return (
        VoltageSeries._unchecked(
            series.sensor_id, epoch_us, smoothed, series.nominal_voltage, 1.0, 0
        ),
        series.epoch_us[~clean] / 1e6,
    )


def _pair_curve(
    up: tuple,
    down: tuple,
    rho_s: Optional[float],
    window_s: float,
    grid_step_s: float,
    tolerance_s: float,
) -> LossCurve:
    (smooth_up, outage_up), (smooth_down, outage_down) = up, down
    if not smooth_up.epoch_us.size or not smooth_down.epoch_us.size:
        raise ValueError(
            f"no usable samples for pair {smooth_up.sensor_id!r}->"
            f"{smooth_down.sensor_id!r}"
        )
    grid, v_a, v_b = align(smooth_up, smooth_down, grid_step_s, tolerance_s)
    loss = np.full(grid.size, np.nan)
    bits = np.zeros(grid.size, dtype=np.uint8)
    gap = np.isnan(v_a) | np.isnan(v_b)
    near_outage = (nearest_index(outage_up, grid[gap], tolerance_s) >= 0) | (
        nearest_index(outage_down, grid[gap], tolerance_s) >= 0
    )
    bits[gap] = GAP_BIT + SUSPECT_BIT * near_outage
    paired = ~gap
    loss[paired], negative, out_of_range = voss_elementwise(
        v_a[paired], v_b[paired], rho_s
    )
    bits[paired] = NEGATIVE_BIT * negative + RANGE_BIT * out_of_range
    return LossCurve._unchecked(
        smooth_up.sensor_id,
        smooth_down.sensor_id,
        seconds_to_us(grid),
        loss,
        bits,
        window_s,
        grid_step_s,
        tolerance_s,
        rho_s,
    )


def loss_curve(
    chain: SensorChain,
    series: dict,
    window_s: float = SMOOTHING_WINDOW_S,
    grid_step_s: float = GRID_STEP_S,
    tolerance_s: float = PAIR_TOLERANCE_S,
) -> list:
    """One LossCurve per adjacent sensor pair of the chain.

    Per sensor, once: outage-suspect samples (below
    POWER_SUSPECT_FRACTION of nominal) are set aside and the remaining
    calibrated magnitudes are median-smoothed.  Per pair: the smoothed
    series are aligned, and each paired grid point yields one estimate
    (corrected when the pair has a rho_s, raw otherwise).  Grid points
    lost to an outage reading carry PowerStateSuspect; unpaired points
    carry Gap; negative drops are reported and flagged, never clamped.
    """
    missing = [sid for sid in chain.sensor_ids if sid not in series]
    if missing:
        raise ValueError(f"sensors missing from series map: {missing}")
    if not all(map(math.isfinite, (window_s, grid_step_s, tolerance_s))):
        raise ValueError(
            f"window_s, grid_step_s and tolerance_s must be finite, got "
            f"{window_s}, {grid_step_s}, {tolerance_s}"
        )
    smoothed = {sid: _smoothed(series[sid], window_s) for sid in chain.sensor_ids}
    return [
        _pair_curve(
            smoothed[up], smoothed[dn], rho_s, window_s, grid_step_s, tolerance_s
        )
        for up, dn, rho_s in chain.pairs()
    ]


def curve_filename(curve: LossCurve) -> str:
    return f"loss_curve_{curve.upstream}_{curve.downstream}.csv"


def write_loss_curve_csv(curve: LossCurve, out_dir) -> Path:
    """One row per grid point: timestamp,loss_fraction,flags (';'-joined)."""
    path = Path(out_dir) / curve_filename(curve)
    rows = list(
        zip(
            format_utc(curve.timestamp_us),
            map(format_float, curve.loss_fraction.tolist()),
            [_FLAG_TEXT[bits] for bits in curve.flag_bits.tolist()],
        )
    )
    write_csv(path, CURVE_HEADER, rows)
    return path


CHAIN_KEYS = {
    "sensors",
    "pairs",
    "nominal_voltage_v",
    "calibration",
    "grid_step_s",
    "tolerance_s",
    "smoothing_window_s",
}


@dataclass(frozen=True)
class ChainConfig:
    """Parsed chain configuration: who to pair and with what settings."""

    chain: SensorChain
    nominal_voltage_v: float = 230.0
    calibration: dict = field(default_factory=dict)
    grid_step_s: float = GRID_STEP_S
    tolerance_s: float = PAIR_TOLERANCE_S
    smoothing_window_s: float = SMOOTHING_WINDOW_S


def _positive_number(data: dict, key: str, default: float, context: str) -> float:
    value = data.get(key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not (
        0 < value < math.inf
    ):
        raise SensorFormatError(f"{context}: {key!r} must be a finite positive number")
    return float(value)


def parse_chain_config(path) -> ChainConfig:
    """Read a JSON chain config (schema in docs/sensor_chain_schema.md).

    A leading UTF-8 byte-order mark is skipped.  JSON NaN and Infinity
    are rejected wherever a number is expected.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise SensorFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    context = str(path)
    if not isinstance(data, dict):
        raise SensorFormatError(f"{context}: top level must be an object")
    unknown = sorted(set(data) - CHAIN_KEYS)
    if unknown:
        raise SensorFormatError(f"{context}: unknown keys {unknown}")
    sensors = data.get("sensors")
    if (
        not isinstance(sensors, list)
        or not sensors
        or not all(isinstance(s, str) and s for s in sensors)
    ):
        raise SensorFormatError(
            f"{context}: 'sensors' must be a nonempty list of sensor ids"
        )
    adjacent = {
        (sensors[i], sensors[i + 1]): i for i in range(max(len(sensors) - 1, 0))
    }
    rho_s: list = [None] * max(len(sensors) - 1, 0)
    pairs = data.get("pairs", [])
    if not isinstance(pairs, list):
        raise SensorFormatError(f"{context}: 'pairs' must be a list")
    seen = set()
    for entry in pairs:
        if not isinstance(entry, dict) or set(entry) - {
            "upstream",
            "downstream",
            "rho_s",
        }:
            raise SensorFormatError(
                f"{context}: each pair needs keys upstream, downstream, rho_s"
            )
        key = (entry.get("upstream"), entry.get("downstream"))
        if key not in adjacent:
            raise SensorFormatError(
                f"{context}: pair {key[0]!r}->{key[1]!r} is not an adjacent "
                f"pair of the sensor list"
            )
        if key in seen:
            raise SensorFormatError(
                f"{context}: duplicate pair entry {key[0]!r}->{key[1]!r}"
            )
        seen.add(key)
        value = entry.get("rho_s")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SensorFormatError(
                f"{context}: rho_s for {key[0]!r}->{key[1]!r} must be a number"
            )
        rho_s[adjacent[key]] = float(value)
    calibration = data.get("calibration", {})
    if not isinstance(calibration, dict):
        raise SensorFormatError(f"{context}: 'calibration' must be an object")
    for sid in calibration:
        if sid not in sensors:
            raise SensorFormatError(
                f"{context}: calibration for unknown sensor {sid!r}"
            )
        _positive_number(calibration, sid, None, f"{context}: calibration")
    try:
        chain = SensorChain(tuple(sensors), tuple(rho_s))
    except ValueError as exc:
        raise SensorFormatError(f"{context}: {exc}") from None
    return ChainConfig(
        chain=chain,
        nominal_voltage_v=_positive_number(data, "nominal_voltage_v", 230.0, context),
        calibration={sid: float(f) for sid, f in calibration.items()},
        grid_step_s=_positive_number(data, "grid_step_s", GRID_STEP_S, context),
        tolerance_s=_positive_number(data, "tolerance_s", PAIR_TOLERANCE_S, context),
        smoothing_window_s=_positive_number(
            data, "smoothing_window_s", SMOOTHING_WINDOW_S, context
        ),
    )
