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
built only when read.

Ingest (the file format and its two routes are in
docs/sensor_chain_schema.md) reads the file in blocks of about
INGEST_BLOCK_BYTES cut at line ends, and decodes each block itself, so
an undecodable byte is reported with its line.  A block of plain
three-field lines is cut into columns with str.split; from the first
other block on (quoting, CR ends, another field count, or a line longer
in bytes than csv.field_size_limit()), one csv.reader reads the rest.
Both routes give the columns the same checks, once per block, and a
failure names the first bad record as csv.reader numbers it.  One
stable sort by (sensor, time) at the end drops repeated timestamps and
cuts out the series.
``loss_curve`` smooths each sensor once, however many pairs it belongs
to, and shares one grid's lookups and timestamp text between adjacent
pairs by the one rule its docstring states.  The array kernels (rolling
median, nearest sample, grid, timestamp parsing and rounding) and the
conversions between datetimes and epoch microseconds are in
``voss.timeseries``, the estimate policy in ``voss.estimator``.

Each setting has one rule: _check_scale (nominal voltage and calibration,
finite and > 0), timeseries.check_seconds (window, grid step, tolerance),
estimator.check_rho for rho_s.  Each reads its value through
ioutil.json_number, so a bool or a string is not a number.  A chain's
settings are checked where it is built, in SensorChain, whose fields
give the chain config's keys, defaults and rules; parse_chain_config
checks only the JSON form.  rolling_median and align apply the time
rules to their own arguments.  A VoltageSeries and a LossCurve check
their own rules (see their docstrings) however they are built.

Scaling both series of a pair by the same factor leaves the curve
unchanged; for power-of-two factors the output is bit-identical, since
every step (calibration, median, ratio) then commutes exactly with the
scaling.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import datetime
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .estimator import EstimateFlag, check_ends, check_rho, first_broken_rule, voss_estimate
from .ioutil import FLOAT_FORMAT, NOT_IN_FILE_NAMES, json_number, open_output
from .ioutil import write_csv  # noqa: F401  (bench/tracing.py wraps this name)
from .timeseries import (
    check_seconds,
    datetime_to_us,
    grid_points,
    nearest_index,
    parse_timestamps,
    rolling_median,
    seconds_to_us,
    us_to_datetime,
)

CSV_HEADER = ["sensor_id", "timestamp", "voltage_v"]
CURVE_HEADER = ["timestamp", "loss_fraction", "flags"]

NOMINAL_VOLTAGE = 230.0
GRID_STEP_S = 120.0
PAIR_TOLERANCE_S = 60.0
SMOOTHING_WINDOW_S = 600.0

# Ingest reads the file in blocks of about this many bytes, cut at line
# ends, and checks each block's rows as columns; memory for the text in
# flight stays bounded however long the file.  Each block pays a fixed
# cost (the route scan, one timestamp parse, per-block sets), so larger
# blocks save time until the cache no longer holds one.  Ingest of the
# generated two-week sensor set (bench/gen_sensors.py, seed 1; 3.8 MB)
# took 48.4 ms at 64 KiB and 44 to 46 ms at every size from 192 KiB to
# 1 MiB; 256 KiB is the smallest power of two on that level.  One pass's
# tracemalloc peak, which holds a block's text and its fields, was 6.6 MB
# at 64 KiB, 7.9 MB at 256 KiB and 17.5 MB at 1 MiB (2-vCPU Xeon VM,
# Python 3.11, numpy 2.4).
INGEST_BLOCK_BYTES = 1 << 18

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
# the last cell of a curve-file row, by flag bits
_FLAG_CELLS = np.array([";".join(flags) + "\n" for flags in _FLAG_TUPLES], dtype=object)


class SensorFormatError(ValueError):
    """Malformed sensor CSV or chain configuration."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _check_scale(name: str, value) -> float:
    """A nominal voltage or a calibration factor is a number (ioutil.json_number:
    never a bool), finite and > 0; returned as a float."""
    number = json_number(value)
    if number is None or not 0.0 < number < math.inf:
        shown = value if number is None else number
        raise ValueError(f"{name} must be finite and positive, got {shown}")
    return number


def _bad_reading(volts: np.ndarray, shown) -> Optional[tuple]:
    """(index, message) of the first reading not finite and >= 0, else None."""
    bad = np.flatnonzero(~((0.0 <= volts) & (volts < np.inf)))
    if not bad.size:
        return None
    k = int(bad[0])
    return k, f"voltage must be finite and >= 0, got {shown[k]}"


def _array(dtype):
    """A dataclass field holding a read-only numpy array of dtype."""
    return field(metadata={"dtype": dtype})


class _ArrayRecord:
    """Base of the frozen dataclasses that keep their data in _array fields."""

    def __post_init__(self) -> None:
        """Make each array field a read-only numpy array of its dtype, and
        check that they are 1-D columns of one length."""
        shapes = {}
        for f in fields(self):
            if "dtype" in f.metadata:
                value = np.array(getattr(self, f.name), dtype=f.metadata["dtype"])
                value.flags.writeable = False
                object.__setattr__(self, f.name, value)
                shapes[f.name] = value.shape
        if any(len(s) != 1 for s in shapes.values()) or len(set(shapes.values())) > 1:
            raise ValueError(f"{', '.join(shapes)} must be 1-D columns of one length, "
                             f"got shapes {', '.join(map(str, shapes.values()))}")

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

    Stored as epoch_us (int64 UTC epoch microseconds) and volts
    (float64); samples gives the (UTC datetime, volts) pairs back, and
    gaps are simply missing entries.  The constructor takes (aware
    datetime, volts) pairs and from_arrays the two columns; either way
    the series meets one rule set: a nonempty sensor_id, nominal_voltage
    finite and > 0, epoch_us strictly increasing, and every reading
    finite and >= 0.  A failure names the sensor and the instant in UTC.
    """

    sensor_id: str
    epoch_us: np.ndarray = _array(np.int64)
    volts: np.ndarray = _array(np.float64)
    nominal_voltage: float
    duplicates_dropped: int

    def __init__(self, sensor_id: str, samples, nominal_voltage: float = NOMINAL_VOLTAGE,
                 duplicates_dropped: int = 0) -> None:
        samples = tuple(samples)
        for ts, _ in samples:
            if ts.tzinfo is None:
                raise ValueError(f"{sensor_id}: naive timestamp {ts}")
        epoch_us = [datetime_to_us(ts) for ts, _ in samples]
        volts = [v for _, v in samples]
        self._fill(sensor_id, epoch_us, volts, nominal_voltage, duplicates_dropped)

    @classmethod
    def from_arrays(cls, sensor_id: str, epoch_us, volts, nominal_voltage: float = NOMINAL_VOLTAGE,
                    duplicates_dropped: int = 0) -> VoltageSeries:
        """A series from its epoch_us and volts columns, checked as __init__ checks."""
        series = cls.__new__(cls)
        series._fill(sensor_id, epoch_us, volts, nominal_voltage, duplicates_dropped)
        return series

    def _fill(self, *values) -> None:
        """Assign the fields in declaration order, then freeze and check them."""
        for f, value in zip(fields(self), values):
            object.__setattr__(self, f.name, value)
        super().__post_init__()
        if not self.sensor_id:
            raise ValueError("sensor_id must be nonempty")
        _check_scale("nominal_voltage", self.nominal_voltage)
        step = np.flatnonzero(np.diff(self.epoch_us) <= 0)
        if step.size:
            raise ValueError(f"{self.sensor_id}: timestamps not strictly increasing "
                             f"at {us_to_datetime(int(self.epoch_us[step[0] + 1]))}")
        bad = _bad_reading(self.volts, self.volts)
        if bad:
            when = us_to_datetime(int(self.epoch_us[bad[0]]))
            raise ValueError(f"{self.sensor_id}: {bad[1]} at {when}")

    @property
    def samples(self) -> tuple:
        """(UTC datetime, volts) pairs, built on each access."""
        return tuple(zip(map(us_to_datetime, self.epoch_us.tolist()), self.volts.tolist()))


_CURVE_FILE = "loss_curve_{}_{}.csv"  # of the upstream and downstream ids


def _setting(default: float, rule, name: str):
    """A SensorChain number with its default, checked by rule under name."""
    return field(default=default, metadata={"rule": partial(rule, name)})


def _named(where: str, rule, *args):
    """rule(*args), its ValueError's message led by where."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class SensorChain:
    """Sensors in feeder order, a power-ratio estimate per span, and the
    settings loss_curve reads.

    rho_s has one entry per adjacent pair.  None means no engineering
    estimate is available and that span uses the raw uncorrected
    estimate.  calibration maps chain sensors to the factors their
    readings are multiplied by (1 for the others).  Each pair's curve
    file must be a file of the output directory, and no other pair's.
    A field's config key is its name or "key".  Every rule is checked
    when the chain is built, in this order: the sensor ids, rho_s,
    calibration, the curve files, then the number settings in field
    order; the chain keeps each number as its rule's float.  A failure
    names the pair, the sensor or the key.
    """

    sensor_ids: tuple = field(metadata={"key": "sensors"})
    rho_s: tuple = field(default=(), metadata={"key": "pairs"})
    nominal_voltage_v: float = _setting(NOMINAL_VOLTAGE, _check_scale, "nominal_voltage")
    calibration: dict = field(default_factory=dict)
    grid_step_s: float = _setting(GRID_STEP_S, check_seconds, "grid_step_s")
    tolerance_s: float = _setting(PAIR_TOLERANCE_S, check_seconds, "tolerance_s")
    smoothing_window_s: float = _setting(SMOOTHING_WINDOW_S, check_seconds, "window_s")

    def __post_init__(self) -> None:
        ids, keep = self.sensor_ids, partial(object.__setattr__, self)
        if len(ids) < 2:
            raise ValueError("a chain needs at least two sensors")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sensor ids in chain")
        rho_s = self.rho_s or (None,) * (len(ids) - 1)
        if len(rho_s) != len(ids) - 1:
            raise ValueError(
                f"need {len(ids) - 1} rho_s entries (one per adjacent pair), got {len(rho_s)}"
            )
        keep("rho_s", tuple(_named(f"rho_s for {up!r}->{down!r}", check_rho, value, "rho_s")
                            for up, down, value in zip(ids, ids[1:], rho_s)))
        for sid in self.calibration:
            if sid not in ids:
                raise ValueError(f"calibration for unknown sensor {sid!r}")
        keep("calibration", {sid: _named(f"calibration for {sid!r}", _check_scale,
                                         "calibration", factor)
                             for sid, factor in self.calibration.items()})
        files: dict = {}  # each pair's curve file name -> the pair
        for up, down, _ in self.pairs():
            name = _CURVE_FILE.format(up, down)
            for sid in (up, down):
                if not NOT_IN_FILE_NAMES.isdisjoint(str(sid)):
                    raise ValueError(f"sensor id {sid!r} holds a path separator or NUL, "
                                     f"so {name!r} would not be a file of the output directory")
            if name in files:
                first = "->".join(map(repr, files[name]))
                raise ValueError(f"pairs {first} and {up!r}->{down!r} would both write {name}")
            files[name] = (up, down)
        for f in fields(self):
            if "rule" in f.metadata:
                keep(f.name, _named(repr(f.name), f.metadata["rule"], getattr(self, f.name)))

    def pairs(self) -> list:
        """(upstream, downstream, rho_s) per adjacent pair, feeder order."""
        return list(zip(self.sensor_ids, self.sensor_ids[1:], self.rho_s))


@dataclass(frozen=True)
class CurvePoint:
    timestamp: datetime
    loss_fraction: float  # nan when the point is a gap or outage-suspect
    flags: tuple = ()


@dataclass(frozen=True, eq=False)
class LossCurve(_ArrayRecord):
    """Loss-fraction estimates for one sensed span on the aligned grid.

    One array entry per grid point: timestamp_us (UTC epoch
    microseconds), loss_fraction (nan at gap and outage-suspect points)
    and flag_bits (see FLAG_NAMES).  points gives one CurvePoint per
    grid point.  However it is built, the three columns have one length
    and every flag_bits value is below 16, one bit per flag name.
    """

    # The curve file's timestamp cells, which loss_curve shares between
    # pairs on one grid; not a field, so a curve made otherwise has None.
    _stamp_cells = None

    upstream: str
    downstream: str
    timestamp_us: np.ndarray = _array(np.int64)
    loss_fraction: np.ndarray = _array(np.float64)
    flag_bits: np.ndarray = _array(np.uint8)

    def __post_init__(self) -> None:
        super().__post_init__()
        bad = np.flatnonzero(self.flag_bits >= len(_FLAG_TUPLES))
        if bad.size:
            raise ValueError(f"flag_bits must be below {len(_FLAG_TUPLES)}, "
                             f"got {self.flag_bits[bad[0]]} at index {bad[0]}")

    @property
    def points(self) -> tuple:
        """One CurvePoint per grid point, built on each access."""
        return tuple(
            CurvePoint(us_to_datetime(us), loss, _FLAG_TUPLES[bits])
            for us, loss, bits in zip(
                self.timestamp_us.tolist(),
                self.loss_fraction.tolist(),
                self.flag_bits.tolist(),
            )
        )


def _line_end(buf: bytes, end: int) -> int:
    """The end of the last line break in buf[:end] whose kind is known, else 0:
    an LF, a CRLF, or a CR before buf[end - 1], which may start a CRLF."""
    return max(buf.rfind(b"\n", 0, end), buf.rfind(b"\r", 0, end - 1)) + 1


class _Blocks:
    """The text of a binary file in blocks cut at line breaks.

    Each block holds whole lines of about INGEST_BLOCK_BYTES, cut at any
    line break csv.reader knows (LF, CRLF or CR), decoded as UTF-8 after
    a leading byte-order mark is dropped; iteration yields (text, bytes)
    pairs, the bytes being those the text was decoded from.  Iteration
    stops before the line that holds the first byte that is not UTF-8,
    and undecodable then describes it.
    """

    def __init__(self, handle) -> None:
        self.handle = handle
        self.undecodable: Optional[str] = None

    def __iter__(self):
        read = partial(self.handle.read, INGEST_BLOCK_BYTES)
        head = self.handle.read(len(codecs.BOM_UTF8)).removeprefix(codecs.BOM_UTF8)
        first = read()  # scanned with head; a file no longer than head is one block
        # the chunks of a line not yet ended: no line break of known kind is in
        # them, only perhaps a CR as their last byte, so each chunk is scanned once
        carry: list = [] if first else [head]
        chunks = itertools.chain([head + first] if first else [], iter(read, b""), [b""])
        for chunk in chunks:  # b"": end of file
            if not chunk:
                block, carry = b"".join(carry), []
                if not block:
                    continue
            elif cut := _line_end(chunk, len(chunk)):
                block, carry = b"".join([*carry, chunk[:cut]]), [chunk[cut:]]
            elif carry and carry[-1].endswith(b"\r"):  # a CR, and no LF after it
                block, carry = b"".join(carry), [chunk]
            else:
                carry.append(chunk)
                continue
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                self.undecodable = (
                    f"byte 0x{block[exc.start]:02x} is not UTF-8 ({exc.reason})"
                )
                # the byte is not a line break, so a CR just before it ends a line
                if good := _line_end(block, exc.start + 1):
                    yield block[:good].decode("utf-8"), block[:good]
                return
            yield text, block


def _lines(texts):
    """The lines of texts as csv.reader wants them, split at LF, CR or CRLF."""
    for text in texts:
        yield from io.StringIO(text, newline="")


def _splittable(raw: bytes) -> Optional[np.ndarray]:
    """Which lines of raw, a block's UTF-8 bytes, are blank, if raw has no quote, no
    CR, two commas on each other line and no line longer in bytes, its LF included,
    than csv.field_size_limit(); else None.  No byte of a multibyte character is
    ASCII, and no field has more characters than its line has bytes."""
    if b'"' in raw or b"\r" in raw:
        return None
    buf = np.frombuffer(raw if raw.endswith(b"\n") else raw + b"\n", dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    widths = np.diff(ends, prepend=-1)
    if widths.max() > csv.field_size_limit():
        return None
    commas = np.searchsorted(ends, np.flatnonzero(buf == ord(",")))
    blank = widths == 1
    two = np.bincount(commas, minlength=ends.size) == 2 * ~blank
    return blank if two.all() else None


def _check_header(header: list) -> None:
    if [h.strip() for h in header] != CSV_HEADER:
        raise SensorFormatError(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}",
            line=1,
        )


class _Readings:
    """Checked rows of a readings file, kept as column chunks.

    A chunk is three arrays: sensor code (int32), epoch_us (int64) and
    volts (float64).  Codes number the stripped sensor ids as they first
    arrive, in the hash order of each chunk's new ids; no output depends
    on the numbering, because series() ranks sensors by name.  Each add
    method takes the record number of its first record and returns the
    number of the record after its last; record 1 is the header.
    """

    def __init__(self) -> None:
        self.code_of: dict = {}  # sensor_id text as read -> code
        self.codes: dict = {}  # stripped sensor id -> code
        self.epoch_of: dict = {}  # timestamp text -> epoch microseconds
        self.chunks: list = []

    def add_text(self, text: str, line: int, blank: np.ndarray) -> int:
        """Add a block given _splittable's answer; a blank line only takes a number."""
        text = text.removesuffix("\n")
        if blank.any():
            text = "\n".join(filter(None, text.split("\n")))
        fields = text.replace("\n", ",").split(",") if text else []
        rows = np.flatnonzero(~blank)  # the line in the block of each row
        if line == 1:
            _check_header([] if blank[0] else fields[:3])
            del fields[:3]
            rows = rows[1:]
        self.add_columns(
            fields[0::3], fields[1::3], fields[2::3], lambda k: line + int(rows[k])
        )
        return line + blank.size

    def add_reader(self, reader, line: int) -> int:
        """Add every record a csv.reader yields, a block of rows at a time."""
        batch = max(1, INGEST_BLOCK_BYTES // 32)  # about a block of rows
        rows = []
        try:
            if line == 1:
                _check_header(next(reader))
                line = 2
            for row in reader:
                rows.append(row)
                if len(rows) == batch:
                    line, rows = self.add_records(rows, line), []
        except csv.Error as exc:  # a field longer than csv.field_size_limit()
            self.add_records(rows, line)  # a bad earlier record is reported first
            raise SensorFormatError(str(exc), line=line + len(rows)) from None
        return self.add_records(rows, line)

    def add_records(self, rows: list, line: int) -> int:
        """Add records as csv.reader gives them; blank ones only take a number."""
        kept, bad = [], None
        for k, row in enumerate(rows):
            if len(row) == 3:
                kept.append(k)
            elif row:
                bad = k
                break
        if kept:
            self.add_columns(
                *zip(*map(rows.__getitem__, kept)), lambda i: line + kept[i]
            )
        if bad is not None:
            raise SensorFormatError(
                f"expected 3 fields, got {len(rows[bad])}", line=line + bad
            )
        return line + len(rows)

    def add_columns(self, ids, stamps, volts_text, line_of) -> None:
        """Check and keep one chunk of rows; line_of(k) numbers row k.

        A failure is reported at the first bad row, with that row's
        first failing check in the order empty id, timestamp, voltage.
        """
        n = len(ids)
        errors = []  # (row, check, message)
        for raw in set(ids).difference(self.code_of):
            sensor_id = raw.strip()
            if sensor_id:
                self.code_of[raw] = self.codes.setdefault(sensor_id, len(self.codes))
            else:
                errors.append((ids.index(raw), 0, "empty sensor_id"))
        epoch_of, messages = parse_timestamps(list(set(stamps).difference(self.epoch_of)))
        self.epoch_of.update(epoch_of)
        errors += [(stamps.index(text), 1, message) for text, message in messages.items()]
        try:
            volts = np.fromiter(map(float, volts_text), np.float64, n)
        except ValueError:
            for k, value in enumerate(volts_text):
                try:
                    float(value)
                except ValueError:
                    break
            errors.append((k, 2, f"bad voltage {value!r}"))
            volts = np.fromiter(map(float, volts_text[:k]), np.float64, k)
        bad = _bad_reading(volts, volts_text)
        if bad:
            errors.append((bad[0], 3, bad[1]))
        if errors:
            k, _, message = min(errors)
            raise SensorFormatError(message, line=line_of(k))
        self.chunks.append(
            (
                np.fromiter(map(self.code_of.__getitem__, ids), np.int32, n),
                np.fromiter(map(self.epoch_of.__getitem__, stamps), np.int64, n),
                volts,
            )
        )

    def series(self, nominal_voltage: float) -> list:
        """One VoltageSeries per sensor, sorted by sensor id."""
        if not self.chunks:
            return []
        names = sorted(self.codes)
        rank = np.empty(len(names), dtype=np.int32)
        rank[[self.codes[name] for name in names]] = np.arange(len(names))
        code, epoch_us, volts = (np.concatenate(c) for c in zip(*self.chunks))
        # one column at a time from here, so the peak holds one spare copy
        self.chunks.clear()
        code = rank[code]
        # lexsort is stable, so equal (sensor, time) keys stay in file order
        order = np.lexsort((epoch_us, code))
        code = code[order]
        epoch_us = epoch_us[order]
        volts = volts[order]
        del order
        first = np.ones(code.size, dtype=bool)
        first[1:] = (code[1:] != code[:-1]) | (epoch_us[1:] != epoch_us[:-1])
        dropped = np.bincount(code[~first], minlength=len(names))
        code = code[first]
        epoch_us = epoch_us[first]
        volts = volts[first]
        bounds = np.searchsorted(code, np.arange(len(names) + 1))
        return [
            VoltageSeries.from_arrays(name, epoch_us[lo:hi], volts[lo:hi], nominal_voltage,
                                      int(dropped[k]))
            for k, (name, lo, hi) in enumerate(zip(names, bounds, bounds[1:]))
        ]


def ingest_csv(path, nominal_voltage=NOMINAL_VOLTAGE) -> list:
    """Read sensor_id,timestamp,voltage_v rows into per-sensor series.

    Rows may arrive in any order; each series comes back sorted.  A
    repeated timestamp within one sensor keeps the first reading seen in
    the file and counts the rest in duplicates_dropped.  Any malformed
    row fails with its line number, counted in records as csv.reader
    yields them (blank lines included).  A leading UTF-8 byte-order mark
    is skipped.  Returns series sorted by sensor id, each with
    nominal_voltage, which meets VoltageSeries's rule.
    """
    readings = _Readings()
    line = 1  # record number of the next record
    with Path(path).open("rb") as handle:
        blocks = _Blocks(handle)
        pieces = iter(blocks)
        for text, raw in pieces:
            if (blank := _splittable(raw)) is None:
                # a quoted field may hold newlines and so span blocks:
                # csv.reader takes the rest of the file
                rest = (later for later, _ in pieces)
                reader = csv.reader(_lines(itertools.chain((text,), rest)))
                line = readings.add_reader(reader, line)
                break
            line = readings.add_text(text, line, blank)
    if blocks.undecodable:
        raise SensorFormatError(blocks.undecodable, line=line)
    if line == 1:
        raise SensorFormatError("empty file, expected header", line=1)
    return readings.series(nominal_voltage)


@contextmanager
def _grid_in_memory(up: str, down: str, grid_step_s: float):
    """A MemoryError in a pair's grid work becomes a ValueError naming the pair."""
    try:
        yield
    except MemoryError:
        raise ValueError(f"pair {up!r}->{down!r}: the grid at step {grid_step_s} s "
                         "does not fit in memory") from None


def _pair_grid(series_a: VoltageSeries, series_b: VoltageSeries, grid_step_s: float) -> np.ndarray:
    """align's grid for the pair, after align's checks of the two series."""
    if not series_a.epoch_us.size or not series_b.epoch_us.size:
        raise ValueError(
            f"no usable samples for pair {series_a.sensor_id!r}->"
            f"{series_b.sensor_id!r}"
        )
    start = max(float(series_a.epoch_us[0] / 1e6), float(series_b.epoch_us[0] / 1e6))
    end = min(float(series_a.epoch_us[-1] / 1e6), float(series_b.epoch_us[-1] / 1e6))
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
    return grid


def _on_grid(series: VoltageSeries, grid: np.ndarray, tolerance_s: float) -> np.ndarray:
    """Per grid point the volts of the nearest sample within tolerance_s, else nan."""
    index = nearest_index(series.epoch_us / 1e6, grid, tolerance_s)
    return np.where(index >= 0, series.volts[index], np.nan)


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
    either series is empty, when the series do not overlap or the overlap
    contains no grid point, when grid_step_s or tolerance_s breaks its
    check_seconds rule, and when the grid does not fit in memory.
    """
    grid_step_s = check_seconds("grid_step_s", grid_step_s)
    tolerance_s = check_seconds("tolerance_s", tolerance_s)
    with _grid_in_memory(series_a.sensor_id, series_b.sensor_id, grid_step_s):
        grid = _pair_grid(series_a, series_b, grid_step_s)
        return grid, _on_grid(series_a, grid, tolerance_s), _on_grid(series_b, grid, tolerance_s)


def _smoothed(series: VoltageSeries, window_s: float, calibration: float) -> tuple:
    """(clean samples, times calibration and median-smoothed; outage epoch seconds)."""
    clean = ~(series.volts < POWER_SUSPECT_FRACTION * series.nominal_voltage)
    epoch_us = series.epoch_us[clean]
    with np.errstate(over="ignore"):  # an inf reading fails from_arrays below
        volts = series.volts[clean] * calibration
    smoothed = rolling_median(epoch_us / 1e6, volts, window_s)
    return (
        VoltageSeries.from_arrays(series.sensor_id, epoch_us, smoothed, series.nominal_voltage),
        series.epoch_us[~clean] / 1e6,
    )


def _pair_curve(grid: np.ndarray, up: tuple, down: tuple, rho_s: Optional[float],
                tolerance_s: float) -> LossCurve:
    """One pair's curve; up and down are (sensor id, outage epoch seconds, volts on grid)."""
    (up_id, outage_up, v_a), (down_id, outage_down, v_b) = up, down
    loss = np.full(grid.size, np.nan)
    bits = np.zeros(grid.size, dtype=np.uint8)
    gap = np.isnan(v_a) | np.isnan(v_b)
    near_outage = (nearest_index(outage_up, grid[gap], tolerance_s) >= 0) | (
        nearest_index(outage_down, grid[gap], tolerance_s) >= 0
    )
    bits[gap] = GAP_BIT + SUSPECT_BIT * near_outage
    paired = ~gap
    v_up, v_down = v_a[paired], v_b[paired]
    try:  # a calibration may underflow volts to 0
        check_ends(v_up, v_down)
        _, _, loss[paired], negative, out_of_range = voss_estimate(v_down / v_up, rho_s)
    except ValueError:
        k, rule = first_broken_rule(v_up, v_down, rho_s)
        when = us_to_datetime(int(seconds_to_us(grid[paired][k])))
        raise ValueError(f"pair {up_id!r}->{down_id!r} at {when}: {rule}") from None
    bits[paired] = NEGATIVE_BIT * negative + RANGE_BIT * out_of_range
    return LossCurve(up_id, down_id, seconds_to_us(grid), loss, bits)


def loss_curve(chain: SensorChain, series: dict) -> list:
    """One LossCurve per adjacent sensor pair of the chain.

    Per sensor, once: outage-suspect samples (below
    POWER_SUSPECT_FRACTION of the series' nominal) are set aside and the
    remaining magnitudes, times the chain's calibration factor, are
    median-smoothed.  Per pair: the smoothed series are aligned, and
    each paired grid point yields one estimate (corrected when the pair
    has a rho_s, raw otherwise).  Grid points lost to an outage reading
    carry PowerStateSuspect; unpaired points carry Gap; negative drops
    are reported and flagged, never clamped.  The chain's settings met
    their rules when it was built (a window of 0 is no smoothing); a
    grid past memory is align's ValueError.  A pair whose grid equals
    the previous pair's takes that pair's downstream nearest samples as
    its upstream ones, and its timestamp cells; other pairs make their
    own.
    """
    missing = [sid for sid in chain.sensor_ids if sid not in series]
    if missing:
        raise ValueError(f"sensors missing from series map: {missing}")
    step, tolerance_s = chain.grid_step_s, chain.tolerance_s
    window_s, calibration = chain.smoothing_window_s, chain.calibration
    smoothed = {sid: _smoothed(series[sid], window_s, calibration.get(sid, 1.0))
                for sid in chain.sensor_ids}
    curves, last = [], (None, None)  # the last pair's grid, its downstream volts on it
    for up, dn, rho_s in chain.pairs():
        (smooth_up, outage_up), (smooth_dn, outage_dn) = smoothed[up], smoothed[dn]
        with _grid_in_memory(up, dn, step):
            grid = _pair_grid(smooth_up, smooth_dn, step)
            # this pair's upstream sensor is the last pair's downstream one
            shared = np.array_equal(grid, last[0])
            v_up = last[1] if shared else _on_grid(smooth_up, grid, tolerance_s)
            last = grid, _on_grid(smooth_dn, grid, tolerance_s)
            curve = _pair_curve(grid, (up, outage_up, v_up), (dn, outage_dn, last[1]),
                                rho_s, tolerance_s)
            cells = curves[-1]._stamp_cells if shared else _timestamp_cells(curve.timestamp_us)
        object.__setattr__(curve, "_stamp_cells", cells)
        curves.append(curve)
    return curves


def curve_filename(curve: LossCurve) -> str:
    return _CURVE_FILE.format(curve.upstream, curve.downstream)


def _timestamp_cells(timestamp_us: np.ndarray) -> np.ndarray:
    """The timestamp cells of one grid's rows, a read-only object array.

    A cell is the instant as datetime.isoformat() writes it, with Z for
    +00:00, and the comma that ends the cell.  Each distinct day and
    time of day of the grid is formatted once; loss_curve shares the
    cells between pairs on equal grids.
    """
    day, time_of_day = np.divmod(timestamp_us, 86_400_000_000)
    (days, day_at), (times, time_at) = (
        np.unique(column, return_inverse=True) for column in (day, time_of_day)
    )
    day_text = np.array(
        [t + "T" for t in np.datetime_as_string(days.astype("M8[D]")).tolist()],
        dtype=object,
    )
    clock = np.datetime_as_string(times.astype("M8[us]"), timezone="UTC").tolist()
    # as datetime.isoformat() writes a time: microseconds only when nonzero
    time_text = np.array(
        [t.partition("T")[2].replace(".000000", "") + "," for t in clock], dtype=object
    )
    cells = day_text[day_at] + time_text[time_at]
    cells.flags.writeable = False
    return cells


def write_loss_curve_csv(curve: LossCurve, out_dir) -> Path:
    """One row per grid point: timestamp,loss_fraction,flags (';'-joined).

    A curve from loss_curve carries its timestamp cells, shared with the
    previous pair's when their grids are equal, so the writer formats only
    the loss and flag columns; a curve built by hand gets its cells here
    from the same _timestamp_cells.  Each distinct loss value is formatted
    once.
    """
    path = Path(out_dir) / curve_filename(curve)
    stamps = curve._stamp_cells
    if stamps is None:
        stamps = _timestamp_cells(curve.timestamp_us)
    keys, at = np.unique(curve.loss_fraction.view(np.int64), return_inverse=True)
    losses = [FLOAT_FORMAT % value + "," for value in keys.view(np.float64).tolist()]
    rows = np.column_stack(
        (stamps, np.array(losses, dtype=object)[at], _FLAG_CELLS[curve.flag_bits])
    )
    with open_output(path) as fh:
        fh.write(",".join(CURVE_HEADER) + "\n")
        fh.write("".join(rows.ravel().tolist()))
    return path


CHAIN_KEYS = frozenset(f.metadata.get("key", f.name) for f in fields(SensorChain))


def parse_chain_config(path) -> SensorChain:
    """Read a JSON chain config (schema in docs/sensor_chain_schema.md).

    A leading UTF-8 byte-order mark is skipped.  The parser checks the
    JSON form (a null number is refused here) and SensorChain every
    value's rule; either way the error leads with the file name.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise SensorFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # not UTF-8, or past sys.get_int_max_str_digits()
        raise SensorFormatError(f"{path}: {exc}") from None
    except RecursionError:
        raise SensorFormatError(f"{path}: invalid JSON: nested too deeply") from None
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
    adjacent = {pair: i for i, pair in enumerate(zip(sensors, sensors[1:]))}
    rho_s: list = [None] * (len(sensors) - 1)
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
        if not all(isinstance(sid, str) for sid in key) or key not in adjacent:
            raise SensorFormatError(
                f"{context}: pair {key[0]!r}->{key[1]!r} is not an adjacent "
                f"pair of the sensor list"
            )
        if key in seen:
            raise SensorFormatError(
                f"{context}: duplicate pair entry {key[0]!r}->{key[1]!r}"
            )
        seen.add(key)
        if entry.get("rho_s") is None:
            raise SensorFormatError(
                f"{context}: rho_s for {key[0]!r}->{key[1]!r} must be a number"
            )
        rho_s[adjacent[key]] = entry["rho_s"]
    calibration = data.get("calibration", {})
    if not isinstance(calibration, dict):
        raise SensorFormatError(f"{context}: 'calibration' must be an object")
    settings = {f.name: data[f.name] for f in fields(SensorChain)
                if "rule" in f.metadata and f.name in data}
    named = [*((f"calibration for {sid!r}", f) for sid, f in calibration.items()),
             *((repr(key), value) for key, value in settings.items())]
    for where, value in named:
        if value is None:
            raise SensorFormatError(f"{context}: {where} must be a number")
    try:
        return SensorChain(tuple(sensors), tuple(rho_s), calibration=calibration, **settings)
    except ValueError as exc:
        raise SensorFormatError(f"{context}: {exc}") from None
