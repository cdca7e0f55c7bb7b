"""Field-data pipeline: CSV ingest, alignment, smoothing, loss curves."""

import bisect
import codecs
import csv
import io
import itertools
import json
import math
import random
import re
import statistics
import tempfile
from collections import Counter
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import json_values
from voss.estimator import (
    CorrectionParams,
    EstimateFlag,
    SegmentVoltages,
    voss_corrected,
    voss_estimate,
    voss_single,
)
from voss import sensors, timeseries
from voss.feeder import bundled_feeder_path
from voss.sensors import (
    CSV_HEADER,
    CURVE_HEADER,
    FLAG_NAMES,
    CurvePoint,
    LossCurve,
    SensorChain,
    SensorFormatError,
    VoltageSeries,
    align,
    curve_filename,
    ingest_csv,
    loss_curve,
    parse_chain_config,
    rolling_median,
    write_loss_curve_csv,
)
from voss.timeseries import MEDIAN_BLOCK_CELLS, parse_canonical_us, parse_timestamps

UTC = timezone.utc
EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
T0 = datetime(2024, 3, 12, 0, 0, tzinfo=UTC)  # epoch is a multiple of 120 s


def series(sensor_id, values, start=T0, step_s=120.0, **kwargs):
    samples = tuple(
        (start + timedelta(seconds=i * step_s), float(v))
        for i, v in enumerate(values)
        if v is not None
    )
    return VoltageSeries(sensor_id, samples, **kwargs)


def aligned_points(series_a, series_b, **kwargs):
    """align() as one (timestamp, v_a, v_b) point per grid time, None on a gap side."""
    grid, v_a, v_b = align(series_a, series_b, **kwargs)
    return [
        SimpleNamespace(
            timestamp=datetime.fromtimestamp(t, tz=UTC),
            v_a=None if math.isnan(a) else a,
            v_b=None if math.isnan(b) else b,
        )
        for t, a, b in zip(grid.tolist(), v_a.tolist(), v_b.tolist())
    ]


def median_of(samples, window_s):
    """rolling_median over (epoch_s, value) pairs, as a list."""
    epochs = [t for t, _ in samples]
    values = [v for _, v in samples]
    return rolling_median(epochs, values, window_s=window_s).tolist()


def write_readings(path, rows):
    lines = ["sensor_id,timestamp,voltage_v"]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------- ingest


def test_ingest_groups_and_sorts_regardless_of_row_order(tmp_path):
    rows = [
        ("s2", "2024-03-12T00:04:00Z", 229.0),
        ("s1", "2024-03-12T00:02:00Z", 231.5),
        ("s2", "2024-03-12T00:00:00Z", 230.0),
        ("s1", "2024-03-12T00:00:00Z", 232.0),
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_readings(a, rows)
    write_readings(b, rows[::-1])
    got = ingest_csv(a)
    assert [s.sensor_id for s in got] == ["s1", "s2"]
    assert [v for _, v in got[0].samples] == [232.0, 231.5]
    assert all(ts.tzinfo is not None for s in got for ts, _ in s.samples)
    assert got == ingest_csv(b)


def test_ingest_keeps_first_reading_on_duplicate_timestamp(tmp_path):
    path = tmp_path / "dup.csv"
    write_readings(
        path,
        [
            ("s1", "2024-03-12T00:00:00Z", 230.0),
            ("s1", "2024-03-12T00:00:00Z", 999.0),
            ("s1", "2024-03-12T00:02:00Z", 231.0),
        ],
    )
    (got,) = ingest_csv(path)
    assert [v for _, v in got.samples] == [230.0, 231.0]
    assert got.duplicates_dropped == 1


def test_ingest_applies_nominal_voltage(tmp_path):
    path = tmp_path / "cal.csv"
    write_readings(path, [("s1", "2024-03-12T00:00:00Z", 230.0)])
    (got,) = ingest_csv(path, nominal_voltage=240.0)
    assert got.nominal_voltage == 240.0


def test_a_calibrated_chain_sensor_with_no_rows_is_missing_from_the_series_map(tmp_path):
    # the chain holds the calibration, so a calibrated sensor without rows
    # meets the rule every sensor without rows meets
    path = tmp_path / "cal.csv"
    write_readings(path, [("s1", "2024-03-12T00:00:00Z", 230.0)])
    header_only = tmp_path / "empty.csv"
    write_readings(header_only, [])
    chain = SensorChain(("s1", "x"), calibration={"s1": 1.02, "x": 1.01})
    for data, missing in ((path, ["x"]), (header_only, ["s1", "x"])):
        series = {s.sensor_id: s for s in ingest_csv(data)}
        with pytest.raises(ValueError) as exc:
            loss_curve(chain, series)
        assert str(exc.value) == f"sensors missing from series map: {missing}"


def test_naive_timestamps_are_read_as_utc(tmp_path):
    path = tmp_path / "naive.csv"
    write_readings(path, [("s1", "2024-03-12T00:00:00", 230.0)])
    (got,) = ingest_csv(path)
    assert got.samples[0][0] == T0


@pytest.mark.parametrize(
    "text,line,needle",
    [
        ("", 1, "empty file"),
        ("id,time,volts\ns1,2024-03-12T00:00:00Z,230\n", 1, "expected header"),
        ("sensor_id,timestamp,voltage_v\ns1,2024-03-12T00:00:00Z\n", 2, "3 fields"),
        (
            "sensor_id,timestamp,voltage_v\ns1,2024-03-12T00:00:00Z,230\n"
            "s1,not-a-time,230\n",
            3,
            "timestamp",
        ),
        ("sensor_id,timestamp,voltage_v\ns1,2024-03-12T00:00:00Z,volts\n", 2, "voltage"),
        ("sensor_id,timestamp,voltage_v\ns1,2024-03-12T00:00:00Z,-4\n", 2, ">= 0"),
        ("sensor_id,timestamp,voltage_v\n,2024-03-12T00:00:00Z,230\n", 2, "sensor_id"),
    ],
)
def test_ingest_failures_carry_line_numbers(tmp_path, text, line, needle):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(SensorFormatError) as err:
        ingest_csv(path)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)
    assert needle in str(err.value)


def test_ingest_rejects_instant_outside_datetime_range(tmp_path):
    path = tmp_path / "early.csv"
    write_readings(path, [("s1", "0001-01-01T00:00:00+01:00", 230.0)])
    with pytest.raises(SensorFormatError, match="line 2: bad timestamp"):
        ingest_csv(path)



@pytest.mark.parametrize(
    "body",
    [
        b"s1,2024-03-12T00:00:00Z,230\ns1,2024-03-12T00:02:00Z,2\xff0\n",
        b"s1,2024-03-12T00:00:00Z,230\r\ns1,2024-03-12T00:02:00Z,2\xff0\r\n",
        b's1,2024-03-12T00:00:00Z,230\n"s1",2024-03-12T00:02:00Z,2\xff0\n',
        b"s1,2024-03-12T00:00:00Z,230\rs1,2024-03-12T00:02:00Z,2\xff0\r",
        b's1,2024-03-12T00:00:00Z,230\r"s1",2024-03-12T00:02:00Z,2\xff0\r',
        b'"s\n1",2024-03-12T00:00:00Z,230\ns1,2024-03-12T00:02:00Z,2\xff0\n',
        b'"s\r\n1",2024-03-12T00:00:00Z,230\r\ns1,2024-03-12T00:02:00Z,2\xff0\r\n',
        b'"s\r1",2024-03-12T00:00:00Z,230\rs1,2024-03-12T00:02:00Z,2\xff0\r',
        b"s1,2024-03-12T00:00:00Z,230\r\xff1,2024-03-12T00:02:00Z,230\r",
    ],
)
@pytest.mark.parametrize("block_bytes", [1, 2, 3, 7, 1 << 16])
def test_undecodable_byte_fails_with_its_line(tmp_path, body, block_bytes):
    end = body[len(body.rstrip(b"\r\n")) :]  # the body's line break, on every line
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"sensor_id,timestamp,voltage_v" + end + body + b"s1,x,230" + end)
    with mock.patch.object(sensors, "INGEST_BLOCK_BYTES", block_bytes):
        with pytest.raises(SensorFormatError, match="line 3: byte 0xff is not UTF-8"):
            ingest_csv(path)


def test_bad_record_before_an_undecodable_byte_fails_first_with_cr_ends(tmp_path):
    path = tmp_path / "cr.csv"
    path.write_bytes(
        b"sensor_id,timestamp,voltage_v\rs1,not-a-time,230\r"
        b"s1,2024-03-12T00:02:00Z,2\xff0\r"
    )
    with pytest.raises(SensorFormatError, match="line 2: bad timestamp 'not-a-time'"):
        ingest_csv(path)


def test_cr_ended_file_is_read_in_bounded_blocks(tmp_path):
    lines = ["sensor_id,timestamp,voltage_v"] + [
        f"s1,2024-03-12T00:{k:02d}:00Z,230" for k in range(40)
    ]
    text = "".join(line + "\r" for line in lines)
    path = tmp_path / "cr.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(sensors, "INGEST_BLOCK_BYTES", 100):
        with path.open("rb") as handle:
            pieces = list(sensors._Blocks(handle))
        got = ingest_csv(path)
    blocks = [block for block, _ in pieces]
    assert all(raw == block.encode() for block, raw in pieces)
    assert "".join(blocks) == text
    assert len(blocks) > 1
    assert max(map(len, blocks)) <= 100 + max(len(line) + 1 for line in lines)
    assert got == reference_ingest(path)


def reference_blocks(data, block_bytes):
    """_Blocks's cuts of data (no byte-order mark), found by scanning all that
    is carried: after each read, one block up to the last line break read, a
    CR that is the last byte read waiting as it may start a CRLF."""
    blocks, start = [], 0
    for end in range(3 + block_bytes, len(data) + block_bytes, block_bytes):
        carried = data[start:end]
        cut = max(carried.rfind(b"\n"), carried.rfind(b"\r", 0, len(carried) - 1)) + 1
        if cut:
            blocks.append(carried[:cut])
            start += cut
    return blocks + [data[start:]] if start < len(data) else blocks


@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(
        st.sampled_from([b"a", b",", b"\r", b"\n", b"\r\n", "\u00e9".encode(), b"x" * 40])
    ).map(b"".join),
    block_bytes=st.sampled_from([1, 2, 3, 7, 16]),
)
def test_blocks_are_cut_at_the_last_line_end_read(data, block_bytes):
    with mock.patch.object(sensors, "INGEST_BLOCK_BYTES", block_bytes):
        got = [raw for _, raw in sensors._Blocks(io.BytesIO(data))]
    assert got == reference_blocks(data, block_bytes)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_line_of_hundreds_of_chunks_is_one_block(tmp_path, end):
    # a line of 500 chunks is its own block and reads as the reference reads it
    long_id = "s" + "x" * 49_999
    lines = ["sensor_id,timestamp,voltage_v", "s1,2024-03-12T00:00:00Z,230",
             f"{long_id},2024-03-12T00:02:00Z,231", "s1,2024-03-12T00:02:00Z,232"]
    data = ("\ufeff" + "".join(line + end for line in lines)).encode()
    path = tmp_path / "long.csv"
    path.write_bytes(data)
    with mock.patch.object(sensors, "INGEST_BLOCK_BYTES", 100):
        with path.open("rb") as handle:
            raws = [raw for _, raw in sensors._Blocks(handle)]
        got = ingest_csv(path)
    assert b"".join(raws) == data.removeprefix(codecs.BOM_UTF8)
    assert [raw for raw in raws if long_id.encode() in raw] == [(lines[2] + end).encode()]
    assert got == reference_ingest(path)
    assert [s.sensor_id for s in got] == ["s1", long_id]


@pytest.mark.parametrize(
    "second,needle",
    [
        ('"s1",2024-03-12T00:00:00Z,230', "line 3: field larger than field limit"),
        ("", "line 3: field larger than field limit"),
        ('"s1",not-a-time,230', "line 2: bad timestamp"),
    ],
    ids=["quoted", "blank-line", "earlier-bad-record"],
)
def test_field_past_csv_limit_fails_with_its_line(tmp_path, second, needle):
    path = tmp_path / "long.csv"
    path.write_text(
        f"sensor_id,timestamp,voltage_v\n{second}\n"
        f"s1,2024-03-12T00:02:00Z,{'1' * (csv.field_size_limit() + 1)}\n"
    )
    with pytest.raises(SensorFormatError, match=needle):
        ingest_csv(path)


def test_csv_limit_bounds_a_field_not_a_line(tmp_path):
    # a record whose three fields each fit the limit is a reading, though
    # its line is longer in bytes than the limit; one field past it fails
    pad = " " * 60_000
    head = "sensor_id,timestamp,voltage_v\ns1,2024-03-12T00:00:00Z,230\n"
    tail = "\ns1,2024-03-12T00:04:00Z,232\n"
    path = tmp_path / "long.csv"
    path.write_text(f"{head}{pad}s1,{pad}2024-03-12T00:02:00Z,231{pad}{tail}")
    assert path.stat().st_size == 180_114 > 3 * 60_000 > csv.field_size_limit()
    with mock.patch.object(sensors.csv, "reader", wraps=csv.reader) as reader:
        got = ingest_csv(path)
    assert reader.call_count == 1
    assert got == reference_ingest(path) and got[0].volts.tolist() == [230.0, 231.0, 232.0]
    path.write_text(f"{head}s1,2024-03-12T00:02:00Z,{' ' * csv.field_size_limit()}231{tail}")
    with pytest.raises(SensorFormatError) as err:
        ingest_csv(path)
    assert (err.value.line, str(err.value)) == (
        3, f"line 3: field larger than field limit ({csv.field_size_limit()})")


def test_undecodable_header_fails_on_line_one(tmp_path):
    path = tmp_path / "header.csv"
    path.write_bytes(codecs.BOM_UTF8 + b"sensor_id,times\xe9tamp,voltage_v\n")
    with pytest.raises(SensorFormatError, match="line 1: byte 0xe9 is not UTF-8"):
        ingest_csv(path)


def _reference_epoch_us(text, line_no):
    try:
        ts = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
        ts = ts.replace(tzinfo=UTC) if ts.tzinfo is None else ts.astimezone(UTC)
    except (ValueError, OverflowError) as exc:
        raise SensorFormatError(f"bad timestamp {text!r}: {exc}", line=line_no) from None
    return (ts - EPOCH) // timedelta(microseconds=1)


def reference_ingest(path):
    """ingest_csv as one csv.reader loop with one dict entry per sample.

    A byte that is not UTF-8 ends the file before the line that holds it
    (a line ends at LF, CR or CRLF), and fails at the record after the
    last one read.
    """
    stamps = {}
    per_sensor = {}
    dropped = {}
    data = Path(path).read_bytes()
    undecodable = None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        undecodable = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        head = data[: exc.start]
        data = head[: max(head.rfind(b"\n"), head.rfind(b"\r")) + 1]
    with io.StringIO(data.decode("utf-8-sig"), newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            message = undecodable or "empty file, expected header"
            raise SensorFormatError(message, line=1) from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise SensorFormatError(
                f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}",
                line=1,
            )
        line_no = 1
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
                us = stamps[row[1]] = _reference_epoch_us(row[1], line_no)
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
    if undecodable:
        raise SensorFormatError(undecodable, line=line_no + 1)
    return [
        VoltageSeries(
            sensor_id,
            [(EPOCH + timedelta(microseconds=us), bucket[us]) for us in sorted(bucket)],
            duplicates_dropped=dropped.get(sensor_id, 0),
        )
        for sensor_id, bucket in sorted(per_sensor.items())
    ]


def csv_field(text, quoted):
    if quoted or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# ids that strip to s1 or s2, and others; 00:00Z, 00:02Z and 00:04Z in
# several spellings; voltages as float() reads them
INGEST_IDS = ["s1", " s1", "s1 ", "s1\n", "s2", "\ts2", "s 3", 'q"t', "a,b", "é"]
INGEST_STAMPS = [
    "2024-03-12T00:00:00Z",
    "2024-03-12T01:00:00+01:00",
    "2024-03-12T00:02:00Z",
    " 2024-03-12T00:02:00",
    "2024-03-12T05:32:00+05:30",
    "2024-03-12T00:04:00+00:00",
    "2024-03-11T19:04:00-05:00",
]
INGEST_VOLTS = ["230", "229.5", " 231.25", "1e2", "0", "230.0", "2_30"]
MALFORMED_ROWS = [
    ["s1", "2024-03-12T00:00:00Z"],
    ["s1", "2024-03-12T00:00:00Z", "230", "x"],
    ["  ", "2024-03-12T00:00:00Z", "230"],
    ["s1", "not-a-time", "230"],
    ["s1", "0001-01-01T00:00:00+01:00", "230"],
    ["s1", "2024-03-12T00:00:00Z", "volts"],
    ["s1", "2024-03-12T00:00:00Z", "-1"],
    ["s1", "2024-03-12T00:00:00Z", "nan"],
    ["s1", "2024-03-12T00:00:00Z", "inf"],
    [" ", "not-a-time", "volts"],
    ["s1", "not-a-time", "-1"],
]
HEADERS = [CSV_HEADER, [" sensor_id", "timestamp\t", "voltage_v"], ["id", "t", "v"]]


CANONICAL_STAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(Z|[+-]\d\d:[0-5]\d)", re.A)


def stamp_text(year, month, day, hour, minute, second, offset):
    date = f"{year:04d}-{month:02d}-{day:02d}"
    return f"{date}T{hour:02d}:{minute:02d}:{second:02d}{offset}"


# canonical texts with each field at and just past its range, and the
# same texts spelt in ways only datetime.fromisoformat reads (or rejects)
offsets = st.just("Z") | st.builds(
    "{}{:02d}:{:02d}".format,
    st.sampled_from("+-"),
    st.sampled_from([0, 1, 5, 23, 24]),
    st.sampled_from([0, 30, 59, 60]),
)
canonical_stamps = st.builds(
    stamp_text,
    st.sampled_from([0, 1, 1900, 1970, 2000, 2023, 2024, 9999]) | st.integers(1, 9999),
    st.integers(0, 13),
    st.sampled_from([0, 1, 28, 29, 30, 31, 32]),
    st.sampled_from([0, 12, 23, 24]),
    st.sampled_from([0, 59, 60]),
    st.sampled_from([0, 1, 59, 60]),
    offsets,
)
STAMP_SPELLINGS = [
    lambda t: t,
    lambda t: t.replace("Z", "z"),
    lambda t: t.replace("T", " "),
    lambda t: t.replace("T", "t"),
    lambda t: t[:19] + ".5" + t[19:],
    lambda t: t[:19] + ".000000" + t[19:],
    lambda t: f" {t}",
    lambda t: f"{t}\t",
    lambda t: t[:19],
    lambda t: t[:19] + "+0000",
    lambda t: t.replace("0", "\u0660"),  # ARABIC-INDIC DIGIT ZERO
    lambda t: t.replace("1", "\uff11", 1),  # FULLWIDTH DIGIT ONE
    lambda t: t + "0",
    lambda t: t[:-1],
    lambda t: t[:19] + "~" + t[20:],
]
stamps = st.builds(
    lambda t, spell: spell(t), canonical_stamps, st.sampled_from(STAMP_SPELLINGS)
)


@st.composite
def readings_files(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(INGEST_IDS),
                st.sampled_from(INGEST_STAMPS) | stamps,
                st.sampled_from(INGEST_VOLTS),
            ).map(list),
            max_size=40,
        )
    )
    if draw(st.booleans()):
        bad = draw(st.sampled_from(MALFORMED_ROWS))
        rows.insert(draw(st.integers(0, len(rows))), bad)
    quote = st.booleans() if draw(st.booleans()) else st.just(False)
    ending = st.sampled_from(["\n", "\r\n", "\r"] if draw(st.booleans()) else ["\n"])
    text = "\ufeff" if draw(st.booleans()) else ""
    for row in [draw(st.sampled_from(HEADERS)), *rows]:
        text += ",".join(csv_field(f, draw(quote)) for f in row) + draw(ending)
        if draw(st.integers(0, 9)) == 0:
            text += draw(ending)  # a blank line
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode()
    if draw(st.integers(0, 3)) == 0:  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(data=readings_files(), block_bytes=st.sampled_from([1, 7, 40, 1 << 16]))
@example(  # a CR just before the byte ends its line, a CR just after it too
    data=b"sensor_id,timestamp,voltage_v\rs1,2024-03-12T00:00:00Z,230\r\xc3\r", block_bytes=7
)
@example(
    data=b"sensor_id,timestamp,voltage_v\ns1,2024-03-12T00:00:00Z,230\r\xff\ns1,x,230\n",
    block_bytes=1,
)
def test_ingest_matches_row_loop_reference(data, block_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "readings.csv"
        path.write_bytes(data)
        try:
            want = reference_ingest(path)
        except SensorFormatError as exc:
            want = (exc.line, str(exc))
        with mock.patch.object(sensors, "INGEST_BLOCK_BYTES", block_bytes):
            try:
                got = ingest_csv(path)
            except SensorFormatError as exc:
                got = (exc.line, str(exc))
    assert got == want


@settings(max_examples=500, deadline=None)
@given(texts=st.lists(stamps, max_size=20))
@example(
    texts=[
        "1900-02-29T00:00:00Z",
        "2000-02-29T00:00:00Z",
        "2023-02-29T00:00:00Z",
        "2024-02-29T23:59:59-23:59",
        "0001-01-01T00:00:00Z",
        "0001-01-01T00:59:59+01:00",
        "0001-01-01T01:00:00+01:00",
        "9999-12-31T23:59:59Z",
        "9999-12-31T23:00:00-01:00",
        "9999-12-31T22:59:59-01:00",
        "2024-03-12T24:00:00Z",
        "2024-03-12T00:00:60Z",
        "2024-03-12T00:00:00+24:00",
        "2024-03-12T00:00:00-24:00",
        "2024-03-12T00:00:00-00:00",
        "2024-03-12T00:00:00Z\x00",
        "0000-12-31T23:00:00-01:00",
        "2024-03-12T00:00:00~05:30",
        "2024-03-12T00:00:00,05:30",
    ]
)
def test_timestamp_texts_parse_as_fromisoformat_reads_them(texts):
    # parse_timestamps reads each text as the reference does, value or
    # message, and its array parse takes exactly the canonical texts the
    # reference accepts (offset minutes below 60), with their values
    texts = list(dict.fromkeys(texts))
    want, messages = {}, {}
    for text in texts:
        try:
            want[text] = _reference_epoch_us(text, None)
        except SensorFormatError as exc:
            messages[text] = str(exc)
    assert parse_timestamps(texts) == (want, messages)
    canonical = {text: us for text, us in want.items() if CANONICAL_STAMP.fullmatch(text)}
    assert parse_canonical_us(texts) == canonical


def test_a_canonical_file_of_several_blocks_takes_the_split_route(tmp_path):
    # a canonical file's lines are short, so no block of it falls back to
    # csv.reader at the shipped block size, though that is longer than
    # csv.field_size_limit()
    path = tmp_path / "long.csv"
    stamps = np.datetime_as_string(  # three rows of about 30 bytes per stamp
        np.datetime64("2024-03-12T00:00:00")
        + np.arange(sensors.INGEST_BLOCK_BYTES // 30) * np.timedelta64(120, "s")
    )
    path.write_text("sensor_id,timestamp,voltage_v\n" + "".join(
        f"s{k},{stamp}Z,{230 - k}.{j % 10}\n"
        for j, stamp in enumerate(stamps.tolist()) for k in range(3)
    ))
    with mock.patch.object(sensors._Readings, "add_text", autospec=True,
                           side_effect=sensors._Readings.add_text) as add_text:
        with mock.patch.object(sensors.csv, "reader", side_effect=AssertionError):
            got = ingest_csv(path)
    assert add_text.call_count >= 3  # blocks
    assert got == reference_ingest(path)


@pytest.fixture
def field_limit():
    """csv.field_size_limit() set to 1000 for one test."""
    shipped = csv.field_size_limit(1000)
    yield 1000
    csv.field_size_limit(shipped)


def test_the_route_goes_by_the_longest_line_in_bytes(tmp_path, field_limit):
    rows = [f"s{k % 3},2024-03-12T{k // 180:02d}:{k // 3 % 60:02d}:00Z,{230 + k % 7}"
            for k in range(400)]
    path = tmp_path / "route.csv"
    # a canonical block many times the limit takes the split route
    path.write_text("\n".join(["sensor_id,timestamp,voltage_v", *rows]) + "\n")
    assert path.stat().st_size > 8 * field_limit
    with mock.patch.object(sensors.csv, "reader", side_effect=AssertionError):
        got = ingest_csv(path)
    assert got == reference_ingest(path) and len(got) == 3
    # one line past the limit in bytes, not in characters, sends its block
    # to csv.reader, which reads it as the split route would
    wide = "\u00e9" * (field_limit // 2 + 1)
    assert len(wide) < field_limit < len(wide.encode())
    rows[200] = f"{wide},2024-03-12T09:00:00Z,231"
    path.write_text("\n".join(["sensor_id,timestamp,voltage_v", *rows]) + "\n")
    with mock.patch.object(sensors.csv, "reader", wraps=csv.reader) as reader:
        got = ingest_csv(path)
    assert reader.call_count == 1
    assert got == reference_ingest(path) and got[-1].sensor_id == wide
    # a field past the limit fails at its own line, whether csv.reader
    # takes the file from its first block or from a later one
    rows[300] = f"s1,2024-03-12T09:00:00Z,{'1' * (field_limit + 1)}"
    path.write_text("\n".join(["sensor_id,timestamp,voltage_v", *rows]) + "\n")
    needle = f"line 302: field larger than field limit ({field_limit})"
    for block_bytes in (100, sensors.INGEST_BLOCK_BYTES):
        with mock.patch.object(sensors, "INGEST_BLOCK_BYTES", block_bytes):
            with pytest.raises(SensorFormatError) as err:
                ingest_csv(path)
        assert (err.value.line, str(err.value)) == (302, needle)


def test_blank_lines_keep_the_block_route_and_their_line_numbers(tmp_path):
    rows = [f"s1,2024-03-12T00:{k // 60:02d}:{k % 60:02d}Z,230" for k in range(40)]
    lines = ["sensor_id,timestamp,voltage_v", ""]
    for k, row in enumerate(rows):
        lines += [row, ""] if k % 7 == 0 else [row]
    lines += ["", "s1,2024-03-12T01:00:00Z,volts", "s1,later-bad,230"]
    path = tmp_path / "blank.csv"
    path.write_text("\n".join(lines) + "\n")
    bad_line = lines.index("s1,2024-03-12T01:00:00Z,volts") + 1
    with mock.patch.object(sensors, "INGEST_BLOCK_BYTES", 100):  # many blocks
        with mock.patch.object(sensors.csv, "reader", side_effect=AssertionError):
            with pytest.raises(SensorFormatError) as err:
                ingest_csv(path)
    assert (err.value.line, str(err.value)) == (
        bad_line,
        f"line {bad_line}: bad voltage 'volts'",
    )
    with pytest.raises(SensorFormatError) as want:
        reference_ingest(path)
    assert want.value.line == bad_line
    path.write_text("\n".join(lines[:-3]) + "\n\n")
    with mock.patch.object(sensors, "INGEST_BLOCK_BYTES", 100):
        with mock.patch.object(sensors.csv, "reader", side_effect=AssertionError):
            got = ingest_csv(path)
    assert got == reference_ingest(path)


def test_blank_first_line_is_a_bad_header(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("\nsensor_id,timestamp,voltage_v\ns1,2024-03-12T00:00:00Z,230\n")
    with pytest.raises(SensorFormatError, match="line 1: expected header .*got ''$"):
        ingest_csv(path)


def splittable_by_text(text):
    """_splittable's answer read off the text: blank lines, or None.  A line
    longer than csv.field_size_limit() in UTF-8 bytes, its line end included
    (a last line without one counts one), leaves the text to csv.reader."""
    if '"' in text or "\r" in text:
        return None
    lines = text.removesuffix("\n").split("\n")
    if max(len(line.encode()) + 1 for line in lines) > csv.field_size_limit():
        return None
    blank = [not line for line in lines]
    if any(line.count(",") != 2 * (not b) for line, b in zip(lines, blank)):
        return None
    return blank


@pytest.mark.parametrize(
    "text",
    [
        "sensor_id,timestamp,voltage_v\nsé,2024-03-12T00:00:00Z,230\n\n€1,x,1",
        "\n\u00e9\u20ac\U0001f600,2024-03-12T00:00:00Z,230\n",
        "a,\u00e9,b,c\n",  # three commas
        "\u00e9" * 17 + ",ab,c\n",  # 23 characters, 40 bytes: within a limit of 40
        "\u00e9" * 17 + ",ab,cd\n",  # 24 characters, 41 bytes: past it
        "s1,a,b\n" * 10,  # 70 bytes in lines of 7: within it
        "sé,\"q\",1\n",
    ],
)
def test_splittable_scans_the_bytes_as_it_would_the_text(text):
    limit = csv.field_size_limit(40)
    try:
        got = sensors._splittable(text.encode())
        want = splittable_by_text(text)
    finally:
        csv.field_size_limit(limit)
    assert (got if got is None else got.tolist()) == want


def test_splittable_answers_on_the_part_before_an_undecodable_byte(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(
        "sensor_id,timestamp,voltage_v\nsé,2024-03-12T00:00:00Z,230\n\n".encode()
        + b"s1,2024-03-12T00:02:00Z,2\xff0\n"
    )
    with path.open("rb") as handle:
        blocks = sensors._Blocks(handle)
        (text, raw), = blocks
    assert blocks.undecodable and raw == text.encode() and text.count("\n") == 3
    assert sensors._splittable(raw).tolist() == splittable_by_text(text)


# ----------------------------------------------------- series and chains


def test_series_rejects_disordered_or_bad_samples():
    with pytest.raises(ValueError, match="strictly increasing"):
        VoltageSeries("s", ((T0, 230.0), (T0, 231.0)))
    with pytest.raises(ValueError, match="naive"):
        VoltageSeries("s", ((datetime(2024, 3, 12), 230.0),))
    needle = "s: voltage must be finite and >= 0, got -1.0 at"
    with pytest.raises(ValueError, match=needle):
        VoltageSeries("s", ((T0, -1.0),))
    with pytest.raises(ValueError, match="nominal_voltage"):
        VoltageSeries("s", (), nominal_voltage=0.0)
    with pytest.raises(ValueError, match="sensor_id must be nonempty"):
        VoltageSeries("", ())


def test_records_are_equal_only_in_type_and_every_field():
    a = series("s", [230.0, 231.0])
    assert a == series("s", [230.0, 231.0])
    assert a != series("s", [230.0, 232.0])
    assert a != series("s", [230.0, 231.0], nominal_voltage=240.0)
    assert a != (a.sensor_id, a.epoch_us, a.volts)
    curve = LossCurve("a", "b", [0, 120_000_000], [0.01, math.nan], [0, 1])
    assert curve == replace(curve)
    assert curve != replace(curve, loss_fraction=[0.02, math.nan])
    assert curve != replace(curve, downstream="c")
    assert curve != a


def _columns(samples):
    """The epoch_us and volts arrays of (datetime, volts) pairs."""
    epoch_us = [(ts - EPOCH) // timedelta(microseconds=1) for ts, _ in samples]
    return np.array(epoch_us, dtype=np.int64), np.array([v for _, v in samples])


T1 = T0 + timedelta(minutes=2)
PLUS_TWO = timezone(timedelta(hours=2))
NOT_INCREASING = "s: timestamps not strictly increasing at 2024-03-12 "
BAD_READING = "s: voltage must be finite and >= 0, got "


@pytest.mark.parametrize(
    "samples,message",
    [
        (((T0, 230.0), (T0, 231.0)), NOT_INCREASING + "00:00:00+00:00"),
        (((T1, 230.0), (T0, 231.0)), NOT_INCREASING + "00:00:00+00:00"),
        # an error names the instant in UTC, whatever offset the datetime has
        (((T0, 230.0), (T0.astimezone(PLUS_TWO), 231.0)), NOT_INCREASING + "00:00:00+00:00"),
        (((T0, 230.0), (T1, -1.0)), BAD_READING + "-1.0 at 2024-03-12 00:02:00+00:00"),
        (((T0, math.nan),), BAD_READING + "nan at 2024-03-12 00:00:00+00:00"),
        (((T0, math.inf),), BAD_READING + "inf at 2024-03-12 00:00:00+00:00"),
    ],
    ids=["repeated-instant", "backwards", "offset", "negative", "nan", "inf"],
)
def test_a_series_from_arrays_fails_as_one_from_datetimes(samples, message):
    with pytest.raises(ValueError) as from_datetimes:
        VoltageSeries("s", samples)
    with pytest.raises(ValueError) as from_arrays:
        VoltageSeries.from_arrays("s", *_columns(samples))
    assert str(from_arrays.value) == str(from_datetimes.value) == message


def test_a_series_from_arrays_equals_one_from_datetimes():
    samples = ((T0, 230.0), (T1, 229.5))
    kwargs = {"nominal_voltage": 240.0, "duplicates_dropped": 2}
    built = VoltageSeries.from_arrays("s", *_columns(samples), **kwargs)
    assert built == VoltageSeries("s", samples, **kwargs)
    assert built.samples == samples
    assert VoltageSeries.from_arrays("s", [], []) == VoltageSeries("s", ())


@pytest.mark.parametrize(
    "epoch_us,volts,shapes",
    [([0, 120_000_000], [230.0], "(2,), (1,)"), ([[0]], [[230.0]], "(1, 1), (1, 1)"),
     (0, 230.0, "(), ()")],
    ids=["ragged", "2-d", "scalars"],
)
def test_a_series_needs_two_columns_of_one_length(epoch_us, volts, shapes):
    message = f"epoch_us, volts must be 1-D columns of one length, got shapes {shapes}"
    with pytest.raises(ValueError, match=re.escape(message)):
        VoltageSeries.from_arrays("s", epoch_us, volts)


def test_a_ragged_curve_fails_on_construction():
    message = ("timestamp_us, loss_fraction, flag_bits must be 1-D columns of one length, "
               "got shapes (3,), (1,), (2,)")
    with pytest.raises(ValueError, match=re.escape(message)):
        LossCurve("a", "b", [0, 120_000_000, 240_000_000], [0.1], [0, 0])
    curve = LossCurve("a", "b", [0, 120_000_000], [0.1, 0.2], [0, 0])
    with pytest.raises(ValueError, match=re.escape("got shapes (2,), (1,), (2,)")):
        replace(curve, loss_fraction=[0.1])


def test_flag_bits_past_the_flag_names_fail_on_construction():
    curve = LossCurve("a", "b", [0, 120_000_000], [0.1, math.nan], [0, 15])
    assert curve.points[1].flags == FLAG_NAMES
    with pytest.raises(ValueError, match="^flag_bits must be below 16, got 16 at index 1$"):
        replace(curve, flag_bits=[0, 16])
    with pytest.raises(ValueError, match="^flag_bits must be below 16, got 255 at index 0$"):
        LossCurve("a", "b", [0], [0.1], np.array([255]))


def test_chain_defaults_and_validation():
    chain = SensorChain(("a", "b", "c"))
    assert chain.rho_s == (None, None)
    assert chain.pairs() == [("a", "b", None), ("b", "c", None)]
    assert SensorChain(("a", "b"), (0.75,)).pairs() == [("a", "b", 0.75)]
    with pytest.raises(ValueError, match="two sensors"):
        SensorChain(("a",))
    with pytest.raises(ValueError, match="duplicate"):
        SensorChain(("a", "a"))
    with pytest.raises(ValueError, match="rho_s entries"):
        SensorChain(("a", "b", "c"), (0.5,))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SensorChain(("a", "b"), (1.2,))


CURVE_FILE_CLASHES = [
    (("a", "b_c", "a_b", "c"),
     "pairs 'a'->'b_c' and 'a_b'->'c' would both write loss_curve_a_b_c.csv"),
    (("a", "b", "x/y"),
     "sensor id 'x/y' holds a path separator or NUL, "
     "so 'loss_curve_b_x/y.csv' would not be a file of the output directory"),
    (("a", "b", "c\0d"),
     "sensor id 'c\\x00d' holds a path separator or NUL, "
     "so 'loss_curve_b_c\\x00d.csv' would not be a file of the output directory"),
]


@pytest.mark.parametrize("sensor_ids,message", CURVE_FILE_CLASHES,
                         ids=["colliding", "separator", "nul"])
def test_a_chain_built_by_hand_checks_its_curve_files_as_the_config_does(
    tmp_path, sensor_ids, message
):
    with pytest.raises(ValueError) as built:
        SensorChain(sensor_ids)
    assert str(built.value) == message
    path = write_config(tmp_path, {"sensors": list(sensor_ids)})
    with pytest.raises(SensorFormatError) as parsed:
        parse_chain_config(path)
    assert str(parsed.value) == f"{path}: {message}"


# ------------------------------------------------------------- alignment


def test_align_pairs_offset_samples_within_tolerance():
    a = series("a", [230.0, 231.0, 232.0, 233.0])
    b = series("b", [228.0, 229.0, 230.0], start=T0 + timedelta(seconds=30))
    # overlap is [T0+30, T0+270]; grid multiples inside it are 120 and 240
    points = aligned_points(a, b)
    assert [p.timestamp for p in points] == [
        T0 + timedelta(seconds=120),
        T0 + timedelta(seconds=240),
    ]
    # each b sample sits 30 s off its nearest grid point, well within 60 s
    assert [p.v_b for p in points] == [229.0, 230.0]
    assert [p.v_a for p in points] == [231.0, 232.0]


def test_align_tie_prefers_earlier_sample():
    a = series("a", [230.0, 230.0, 230.0])
    b = VoltageSeries(
        "b",
        (
            (T0 + timedelta(seconds=60), 201.0),
            (T0 + timedelta(seconds=180), 202.0),
        ),
    )
    points = aligned_points(a, b)
    mid = next(p for p in points if p.timestamp == T0 + timedelta(seconds=120))
    assert mid.v_b == 201.0


def test_align_leaves_gaps_beyond_tolerance():
    a = series("a", [230.0] * 5)
    b = VoltageSeries(
        "b",
        ((T0, 228.0), (T0 + timedelta(seconds=480), 229.0)),
    )
    points = aligned_points(a, b)
    assert [p.v_b for p in points] == [228.0, None, None, None, 229.0]


def test_align_errors_on_disjoint_or_tiny_overlap():
    a = series("a", [230.0, 230.0])
    late = series("b", [228.0, 228.0], start=T0 + timedelta(hours=2))
    with pytest.raises(ValueError, match="do not overlap"):
        align(a, late)
    shifted = VoltageSeries(
        "a", ((T0 + timedelta(seconds=20), 230.0), (T0 + timedelta(seconds=90), 230.0))
    )
    other = VoltageSeries(
        "b", ((T0 + timedelta(seconds=25), 228.0), (T0 + timedelta(seconds=85), 228.0))
    )
    with pytest.raises(ValueError, match="no grid point"):
        align(shifted, other)


# ------------------------------------------------------------- smoothing


def test_rolling_median_is_identity_below_sampling_interval():
    samples = [(i * 120.0, float(v)) for i, v in enumerate([230, 10, 240, 0, 230])]
    assert median_of(samples, window_s=60.0) == [230.0, 10.0, 240.0, 0.0, 230.0]


def test_rolling_median_swallows_single_sample_glitch():
    samples = [(i * 120.0, v) for i, v in enumerate([230.0, 230.0, 400.0, 230.0, 230.0])]
    assert median_of(samples, window_s=600.0) == [230.0] * 5


def test_rolling_median_window_is_centered_and_inclusive():
    samples = [(0.0, 1.0), (100.0, 3.0), (200.0, 5.0)]
    # half window 100 s reaches both neighbours exactly
    assert median_of(samples, window_s=200.0) == [2.0, 3.0, 4.0]


# ------------------------------------------------------------ loss curves


def chain_curves(up_vals, down_vals, rho_s=None, window_s=60.0, **series_kw):
    chain = SensorChain(("up", "down"), (rho_s,), smoothing_window_s=window_s)
    data = {
        "up": series("up", up_vals, **series_kw),
        "down": series("down", down_vals, **series_kw),
    }
    return loss_curve(chain, data)


def test_volts_a_calibration_underflows_to_zero_fail_the_ends_rule():
    # 1e-200 V read through a 1e-200 calibration is 0 V: upstream, the
    # ends' rule (SegmentVoltages's) rejects the pair before any ratio;
    # downstream, 0 V is a whole drop
    data = {sid: series(sid, [1e-200] * 3, nominal_voltage=1e-200) for sid in ("up", "down")}
    with pytest.raises(ValueError) as exc:
        loss_curve(SensorChain(("up", "down"), (None,), calibration={"up": 1e-200}), data)
    assert str(exc.value) == ("pair 'up'->'down' at 2024-03-12 00:00:00+00:00: "
                              "v_start must be finite and > 0, got 0.0")
    (curve,) = loss_curve(SensorChain(("up", "down"), (None,), calibration={"down": 1e-200}),
                          data)
    assert curve.loss_fraction.tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("rho_s", [None, 0.8])
def test_a_volt_that_underflows_upstream_names_its_pair_and_first_instant(rho_s):
    # only the second reading underflows; unsmoothed, it is the second
    # grid point that breaks the rule
    with pytest.raises(ValueError) as exc:
        loss_curve(SensorChain(("up", "down"), (rho_s,), calibration={"up": 1e-200},
                               smoothing_window_s=0.0),
                   {"up": series("up", [1.0, 1e-200, 1e-200], nominal_voltage=1e-200),
                    "down": series("down", [1e-200] * 3, nominal_voltage=1e-200)})
    assert str(exc.value) == ("pair 'up'->'down' at 2024-03-12 00:02:00+00:00: "
                              "v_start must be finite and > 0, got 0.0")


def test_a_volt_that_underflows_downstream_breaks_the_ratio_rule_with_a_power_ratio():
    # without rho_s a 0 V end is a whole drop (above); with one, the
    # voltage ratio 0 breaks rho_from_ratios's rule
    with pytest.raises(ValueError) as exc:
        loss_curve(SensorChain(("up", "mid", "down"), (None, 0.8), calibration={"down": 1e-200},
                               smoothing_window_s=0.0),
                   {"up": series("up", [1.0] * 3, nominal_voltage=1e-200),
                    "mid": series("mid", [1.0] * 3, nominal_voltage=1e-200),
                    "down": series("down", [1.0, 1.0, 1e-200], nominal_voltage=1e-200)})
    assert str(exc.value) == ("pair 'mid'->'down' at 2024-03-12 00:04:00+00:00: "
                              "rho_v must be > 0, got 0.0")


def test_identical_series_give_exactly_zero():
    (curve,) = chain_curves([230.0, 231.0, 229.5], [230.0, 231.0, 229.5])
    assert [p.loss_fraction for p in curve.points] == [0.0, 0.0, 0.0]
    assert all(p.flags == () for p in curve.points)


def test_constant_ratio_matches_hand_arithmetic():
    (curve,) = chain_curves([240.0] * 4, [228.0] * 4)
    for p in curve.points:
        assert abs(p.loss_fraction - 0.05) < 1e-12


def test_known_power_ratio_applies_correction():
    (curve,) = chain_curves([240.0] * 3, [228.0] * 3, rho_s=0.8)
    expected = voss_corrected(
        SegmentVoltages(240.0, 228.0),
        CorrectionParams(rho_s=0.8, rho_v=228.0 / 240.0),
    ).loss_fraction
    assert expected < 1.0 - 228.0 / 240.0
    for p in curve.points:
        assert p.loss_fraction == expected
        assert p.flags == ()


def test_voltage_rise_is_reported_negative_and_flagged():
    (curve,) = chain_curves([228.0] * 3, [240.0] * 3)
    for p in curve.points:
        assert p.loss_fraction < 0.0
        assert EstimateFlag.NEGATIVE_DROP.value in p.flags


def test_correction_out_of_band_is_flagged():
    # power ratio far above the voltage ratio pushes the estimated leak
    # fraction negative; the factor is clamped to 1, so the point reads
    # exactly the raw drop
    (curve,) = chain_curves([240.0] * 3, [220.0] * 3, rho_s=1.0)
    for p in curve.points:
        assert p.loss_fraction == 1.0 - 220.0 / 240.0
        assert p.flags == (EstimateFlag.CORRECTION_OUT_OF_RANGE.value,)


def test_dropout_produces_gap_points():
    down = [228.0] * 30 + [None] * 10 + [228.0] * 20
    (curve,) = chain_curves([240.0] * 60, down)
    gaps = [p for p in curve.points if EstimateFlag.GAP.value in p.flags]
    assert len(gaps) == 10
    assert all(math.isnan(p.loss_fraction) for p in gaps)
    start = T0 + timedelta(seconds=30 * 120)
    assert [p.timestamp for p in gaps] == [
        start + timedelta(seconds=120 * k) for k in range(10)
    ]


def test_outage_reading_is_quarantined_before_smoothing():
    down = [228.0] * 10
    down[4] = 80.0  # below half of nominal 230
    (curve,) = chain_curves([240.0] * 10, down, window_s=600.0)
    flagged = curve.points[4]
    assert set(flagged.flags) == {
        EstimateFlag.GAP.value,
        EstimateFlag.POWER_STATE_SUSPECT.value,
    }
    assert math.isnan(flagged.loss_fraction)
    # neighbours keep the clean ratio: the 80 V reading never enters the median
    for k, p in enumerate(curve.points):
        if k != 4:
            assert abs(p.loss_fraction - 0.05) < 1e-12


def test_scaling_data_and_nominal_by_powers_of_two_is_bit_identical():
    up = [240.0, 239.5, 238.0, 80.0, 241.0, 240.5]
    down = [228.0, 227.0, None, 226.5, 227.5, 228.5]
    base = chain_curves(up, down, rho_s=0.7, nominal_voltage=230.0)[0]
    for alpha in (2.0, 0.25, 1024.0):
        scaled = chain_curves(
            [None if v is None else v * alpha for v in up],
            [None if v is None else v * alpha for v in down],
            rho_s=0.7,
            nominal_voltage=230.0 * alpha,
        )[0]
        for p, q in zip(base.points, scaled.points):
            assert p.flags == q.flags
            if math.isnan(p.loss_fraction):
                assert math.isnan(q.loss_fraction)
            else:
                assert p.loss_fraction == q.loss_fraction


def test_smooth_daily_profile_reproduces_pointwise_ratio():
    ratio = 0.97
    up = [240.0 + 3.0 * math.sin(2 * math.pi * i / 48) for i in range(48)]
    down = [v * ratio for v in up]
    (curve,) = chain_curves(up, down)
    for p in curve.points:
        assert abs(p.loss_fraction - (1.0 - ratio)) < 1e-14


def test_missing_series_error_names_the_sensor():
    chain = SensorChain(("a", "b", "c"))
    data = {"a": series("a", [230.0] * 2), "b": series("b", [230.0] * 2)}
    with pytest.raises(ValueError, match=r"missing from series map: \['c'\]"):
        loss_curve(chain, data)


def test_all_suspect_series_is_an_error():
    with pytest.raises(ValueError, match="no usable samples"):
        chain_curves([240.0] * 3, [10.0, 20.0, 30.0])


@pytest.mark.parametrize("step", [0.0, 1e-300])
def test_grid_step_below_a_microsecond_is_an_error(step):
    up, down = series("up", [230.0] * 3), series("down", [229.0] * 3)
    needle = "grid_step_s must be finite and >= 1e-06 s"
    with pytest.raises(ValueError, match=needle):
        align(up, down, grid_step_s=step)
    with pytest.raises(ValueError, match=needle):
        chain = SensorChain(("up", "down"), grid_step_s=step)
        loss_curve(chain, {"up": up, "down": down})


CENTURY_APART = {  # two samples 100 years apart
    sid: series(sid, [230.0, 230.0], step_s=100 * 365.25 * 86400) for sid in ("up", "down")
}
TOO_LARGE = "pair 'up'->'down': the grid at step 1e-06 s does not fit in memory"


def test_a_grid_too_large_for_memory_names_its_pair_and_step():
    # at 1e-6 s the grid asks for about 25 PB, which a 64-bit address
    # space refuses before a page is touched
    with pytest.raises(ValueError) as exc:
        loss_curve(SensorChain(("up", "down"), grid_step_s=1e-6), CENTURY_APART)
    assert str(exc.value) == TOO_LARGE


def test_align_on_a_grid_too_large_for_memory_names_its_pair_and_step():
    with pytest.raises(ValueError) as exc:
        align(CENTURY_APART["up"], CENTURY_APART["down"], grid_step_s=1e-6)
    assert str(exc.value) == TOO_LARGE


def test_each_curve_of_a_chain_is_its_pair_alone():
    # "a" stops and "c" starts a day into "b"'s two days, so b has two grids
    # of one size; b-c and c-d share one grid
    rng = random.Random(4)

    def readings(count, level):
        values = [None if rng.random() < 0.02 else 20.0 if rng.random() < 0.005
                  else level + rng.gauss(0.0, 1.0) for _ in range(count)]
        values[0] = values[-1] = level
        return values

    data = {
        "a": series("a", readings(720, 231.0)),
        "b": series("b", readings(1440, 230.0)),
        "c": series("c", readings(720, 229.0), start=T0 + timedelta(days=1)),
        "d": series("d", readings(720, 228.0), start=T0 + timedelta(days=1)),
    }
    chain = SensorChain(tuple(data), (0.5, None, 0.3), calibration={"d": 1.01})
    curves = loss_curve(chain, data)
    grids = [curve.timestamp_us for curve in curves]
    assert grids[0].size == grids[1].size and grids[0][-1] < grids[1][0]
    assert np.array_equal(grids[1], grids[2])
    assert any(curve.flag_bits.any() for curve in curves)
    for curve, (up, down, rho_s) in zip(curves, chain.pairs()):
        calibration = {sid: f for sid, f in chain.calibration.items() if sid in (up, down)}
        assert loss_curve(SensorChain((up, down), (rho_s,), calibration=calibration),
                          data) == [curve]
        (smooth_up, _), (smooth_down, _) = (
            sensors._smoothed(data[sid], 600.0, chain.calibration.get(sid, 1.0))
            for sid in (up, down))
        grid, v_a, v_b = align(smooth_up, smooth_down)
        assert curve.timestamp_us.tolist() == [round(t * 1e6) for t in grid.tolist()]
        paired = ~(np.isnan(v_a) | np.isnan(v_b))
        assert np.isnan(curve.loss_fraction[~paired]).all()
        loss = voss_estimate(v_b[paired] / v_a[paired], rho_s)[2]
        assert np.array_equal(curve.loss_fraction[paired], loss)


# ----------------------------------------------------------- chain config


def good_config():
    return {
        "sensors": ["a", "b", "c"],
        "pairs": [{"upstream": "a", "downstream": "b", "rho_s": 0.8}],
        "nominal_voltage_v": 230.0,
        "calibration": {"b": 1.01},
        "grid_step_s": 120,
        "tolerance_s": 60,
        "smoothing_window_s": 600,
    }


def write_config(tmp_path, doc):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    return path


def test_chain_config_round_trip(tmp_path):
    cfg = parse_chain_config(write_config(tmp_path, good_config()))
    assert cfg.sensor_ids == ("a", "b", "c")
    assert cfg.rho_s == (0.8, None)
    assert cfg.calibration == {"b": 1.01}
    assert (cfg.grid_step_s, cfg.tolerance_s, cfg.smoothing_window_s) == (
        120.0,
        60.0,
        600.0,
    )
    assert cfg == SensorChain(("a", "b", "c"), (0.8, None), nominal_voltage_v=230.0,
                              calibration={"b": 1.01}, grid_step_s=120, tolerance_s=60,
                              smoothing_window_s=600)


def test_a_chain_built_in_python_equals_its_config_and_holds_floats(tmp_path):
    doc = good_config() | {"pairs": [{"upstream": "a", "downstream": "b", "rho_s": 1}],
                           "nominal_voltage_v": 230, "calibration": {"b": 2}}
    built = SensorChain(("a", "b", "c"), rho_s=(1, None), nominal_voltage_v=230,
                        calibration={"b": 2}, grid_step_s=120, tolerance_s=60,
                        smoothing_window_s=600)
    assert built == parse_chain_config(write_config(tmp_path, doc))
    numbers = (built.rho_s[0], built.nominal_voltage_v, built.calibration["b"],
               built.grid_step_s, built.tolerance_s, built.smoothing_window_s)
    assert [type(number) for number in numbers] == [float] * 6


@pytest.mark.parametrize(
    "setting,message",
    [
        ({"grid_step_s": -1},
         "'grid_step_s': grid_step_s must be finite and >= 1e-06 s, got -1.0"),
        ({"nominal_voltage_v": 0},
         "'nominal_voltage_v': nominal_voltage must be finite and positive, got 0.0"),
        ({"calibration": {"zz": 1.0}}, "calibration for unknown sensor 'zz'"),
        ({"calibration": {"a": 0}},
         "calibration for 'a': calibration must be finite and positive, got 0.0"),
        ({"rho_s": (1.5,)}, "rho_s for 'a'->'b': rho_s must lie in [0, 1], got 1.5"),
    ],
    ids=["grid-step", "nominal-voltage", "calibration-sensor", "calibration-factor", "rho-s"],
)
def test_a_chain_checks_every_setting_when_it_is_built(setting, message):
    with pytest.raises(ValueError) as exc:
        SensorChain(("a", "b"), **setting)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "edit,message",
    [
        # the curve-file rules before the number settings
        (lambda d: d.update(sensors=["a/b", "b"], pairs=[], calibration={}, grid_step_s=-1),
         "sensor id 'a/b' holds a path separator or NUL, "
         "so 'loss_curve_a/b_b.csv' would not be a file of the output directory"),
        # the JSON form before the chain
        (lambda d: d.update(sensors=["a/b", "b"], pairs=[], calibration={"a/b": None}),
         "calibration for 'a/b' must be a number"),
        # a calibration factor before the curve-file rules
        (lambda d: d.update(sensors=["a/b", "b"], pairs=[], calibration={"a/b": 0}),
         "calibration for 'a/b': calibration must be finite and positive, got 0.0"),
    ],
    ids=["curve-file-before-setting", "calibration-before-curve-file",
         "factor-before-curve-file"],
)
def test_chain_config_checks_in_its_documented_order(tmp_path, edit, message):
    doc = good_config()
    edit(doc)
    path = write_config(tmp_path, doc)
    with pytest.raises(SensorFormatError) as exc:
        parse_chain_config(path)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "edit,needle",
    [
        (lambda d: d.update({"extra": 1}), "unknown keys"),
        (lambda d: d.update({"sensors": []}), "nonempty list"),
        (
            lambda d: d.update({"sensors": ["a"], "pairs": [], "calibration": {}}),
            "two sensors",
        ),
        (
            lambda d: d["pairs"].append(
                {"upstream": "a", "downstream": "c", "rho_s": 0.5}
            ),
            "not an adjacent pair",
        ),
        (
            lambda d: d["pairs"].append(
                {"upstream": "a", "downstream": "b", "rho_s": 0.5}
            ),
            "duplicate pair",
        ),
        (lambda d: d["pairs"][0].update({"rho_s": "high"}), r"\[0, 1\], got high$"),
        (lambda d: d["pairs"][0].update({"rho_s": 1.4}), r"\[0, 1\]"),
        (lambda d: d.update({"calibration": {"zz": 1.0}}), "unknown sensor"),
        (lambda d: d.update({"calibration": {"a": 0.0}}), "positive"),
        (lambda d: d.update({"grid_step_s": -120}), "grid_step_s must be finite"),
        (lambda d: d["pairs"][0].pop("rho_s"), "must be a number"),
        (lambda d: d["pairs"][0].update({"note": "x"}), "needs keys"),
        (lambda d: d.update({"pairs": {"upstream": "a", "downstream": "b"}}),
         "'pairs' must be a list"),
    ],
)
def test_chain_config_rejects_bad_documents(tmp_path, edit, needle):
    doc = good_config()
    edit(doc)
    with pytest.raises(SensorFormatError, match=needle):
        parse_chain_config(write_config(tmp_path, doc))


@pytest.mark.parametrize(
    "edit,needle",
    [
        (lambda d: d["pairs"][0].update({"upstream": ["a"]}), "not an adjacent pair"),
        (lambda d: d["pairs"][0].update({"downstream": {}}), "not an adjacent pair"),
        (lambda d: d.update({"grid_step_s": 10**400}), "grid_step_s must be finite"),
        (lambda d: d["pairs"][0].update({"rho_s": -(10**400)}), r"\[0, 1\]"),
    ],
    ids=["upstream-list", "downstream-object", "step-10e400", "rho-s-minus-10e400"],
)
def test_chain_config_rejects_unhashable_ids_and_huge_integers(tmp_path, edit, needle):
    doc = good_config()
    edit(doc)
    with pytest.raises(SensorFormatError, match=needle):
        parse_chain_config(write_config(tmp_path, doc))


@st.composite
def chain_documents(draw):
    """good_config() with schema keys, a pair's too, dropped or set to any value."""
    doc = good_config()
    pair_keys = ["upstream", "downstream", "rho_s"]
    targets = ((doc, sorted(sensors.CHAIN_KEYS)), (doc["pairs"][0], pair_keys))
    for target, keys in targets:
        for key in draw(st.sets(st.sampled_from(keys))):
            if draw(st.booleans()):
                target[key] = draw(json_values)
            else:
                del target[key]
    doc.update(draw(st.dictionaries(st.text(max_size=6), json_values, max_size=2)))
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=chain_documents() | json_values)
def test_chain_config_parser_fails_only_with_format_errors(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.json"
        path.write_text(json.dumps(doc))
        try:
            cfg = parse_chain_config(path)
        except SensorFormatError:
            return
    assert isinstance(cfg, SensorChain)
    assert cfg.sensor_ids == tuple(doc["sensors"])
    for value in (cfg.nominal_voltage_v, *cfg.calibration.values()):
        assert 0.0 < value < math.inf
    for value in (cfg.tolerance_s, cfg.smoothing_window_s):
        assert 0.0 <= value < math.inf
    assert 1e-6 <= cfg.grid_step_s < math.inf


def test_chain_config_reports_json_location(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text('{\n  "sensors": }\n')
    with pytest.raises(SensorFormatError, match="line 2"):
        parse_chain_config(path)


@pytest.mark.parametrize(
    "text,needle",
    [
        (b'{"sensors": ["a\xff", "b"]}', "can't decode byte 0xff"),
        (b'{"grid_step_s": ' + b"1" * 5000 + b"}", "integer string conversion"),
    ],
    ids=["not-utf8", "integer-5000-digits"],
)
def test_chain_config_unreadable_text_is_a_format_error(tmp_path, text, needle):
    path = tmp_path / "chain.json"
    path.write_bytes(text)
    with pytest.raises(SensorFormatError, match=needle) as err:
        parse_chain_config(path)
    assert str(path) in str(err.value)


# -------------------------------------------------------------- curve CSV


def test_curve_csv_golden():
    t0_us = (T0 - EPOCH) // timedelta(microseconds=1)
    curve = LossCurve(
        upstream="up",
        downstream="down",
        timestamp_us=[t0_us, t0_us + 120_000_000, t0_us + 240_000_000],
        loss_fraction=[0.05, math.nan, -0.015625],
        flag_bits=[0, sensors.GAP_BIT, sensors.NEGATIVE_BIT],
    )
    assert curve.points[0] == CurvePoint(T0, 0.05, ())
    assert [p.flags for p in curve.points[1:]] == [
        (EstimateFlag.GAP.value,),
        (EstimateFlag.NEGATIVE_DROP.value,),
    ]
    with tempfile.TemporaryDirectory() as out:
        path = write_loss_curve_csv(curve, out)
        assert path.name == "loss_curve_up_down.csv"
        assert curve_filename(curve) == path.name
        assert path.read_text() == (
            "timestamp,loss_fraction,flags\n"
            "2024-03-12T00:00:00Z,0.05,\n"
            "2024-03-12T00:02:00Z,nan,Gap\n"
            "2024-03-12T00:04:00Z,-0.015625,NegativeDrop\n"
        )


def format_utc(epoch_us):
    """datetime.isoformat() of each UTC instant, with Z for +00:00."""
    stamps = epoch_us.astype("datetime64[us]")
    text = np.datetime_as_string(stamps, unit="s", timezone="UTC").astype(object)
    fractional = epoch_us % 1_000_000 != 0  # isoformat shows microseconds only then
    text[fractional] = np.datetime_as_string(
        stamps[fractional], unit="us", timezone="UTC"
    )
    return text.tolist()


def reference_curve_csv(curve):
    """The curve file as one csv.writer row per grid point."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CURVE_HEADER)
    for stamp, value, bits in zip(
        format_utc(curve.timestamp_us),
        curve.loss_fraction.tolist(),
        curve.flag_bits.tolist(),
    ):
        flags = ";".join(name for k, name in enumerate(FLAG_NAMES) if bits >> k & 1)
        writer.writerow([stamp, "%.12g" % value, flags])
    return out.getvalue().encode()


FIRST_US = (datetime.min.replace(tzinfo=UTC) - EPOCH) // timedelta(microseconds=1)
LAST_US = (datetime.max.replace(tzinfo=UTC) - EPOCH) // timedelta(microseconds=1)


@st.composite
def curve_stamps(draw):
    """Grid stamps from any start and step, or stamps in any order."""
    n = draw(st.integers(0, 30))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(FIRST_US, LAST_US), min_size=n, max_size=n))
    step = draw(
        st.sampled_from([1, 999_999, 1_000_000, 7_000_001, 120_000_000, 86_400_000_000])
        | st.integers(1, 10**11)
    )
    start = draw(st.integers(FIRST_US, LAST_US - 30 * step))
    return [start + k * step for k in range(n)]


loss_values = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324]
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_curve_csv_matches_row_by_row_reference(data):
    stamps = data.draw(curve_stamps())
    n = len(stamps)
    curve = LossCurve(
        "up",
        "down",
        stamps,
        data.draw(st.lists(loss_values, min_size=n, max_size=n)),
        data.draw(st.lists(st.integers(0, 15), min_size=n, max_size=n)),
    )
    with tempfile.TemporaryDirectory() as out:
        got = write_loss_curve_csv(curve, out).read_bytes()
    assert got == reference_curve_csv(curve)


def test_bundled_sample_day_pipeline():
    cfg = parse_chain_config(bundled_feeder_path("sample_chain.json"))
    got = ingest_csv(bundled_feeder_path("sample_day.csv"), nominal_voltage=cfg.nominal_voltage_v)
    data = {s.sensor_id: s for s in got}
    assert sorted(data) == ["sensor-03", "sensor-17", "sensor-22"]
    assert data["sensor-17"].duplicates_dropped == 1
    curves = loss_curve(cfg, data)
    assert [(c.upstream, c.downstream) for c in curves] == [
        ("sensor-03", "sensor-17"),
        ("sensor-17", "sensor-22"),
    ]
    assert all(len(c.points) == 720 for c in curves)
    first = Counter(f for p in curves[0].points for f in p.flags)
    second = Counter(f for p in curves[1].points for f in p.flags)
    gap, suspect = EstimateFlag.GAP.value, EstimateFlag.POWER_STATE_SUSPECT.value
    assert first[gap] == 30  # one-hour dropout of the middle sensor
    assert second[gap] == 37
    assert second[suspect] == 7  # evening outage readings


def assert_files_match_reference(curves):
    with tempfile.TemporaryDirectory() as out:
        for curve in curves:
            got = write_loss_curve_csv(curve, out).read_bytes()
            assert got == reference_curve_csv(curve)


def traced(make):
    """(make()'s curves, nearest-sample lookups made, timestamp-cell arrays made)."""
    with mock.patch.object(sensors, "_on_grid", wraps=sensors._on_grid) as lookups, \
            mock.patch.object(sensors, "_timestamp_cells", wraps=sensors._timestamp_cells) as cells:
        curves = make()
    return curves, lookups.call_count, cells.call_count


def own_cells(curves):
    """Whether each curve has timestamp cells of its own grid's length, shared with no other."""
    return len({id(c._stamp_cells) for c in curves}) == len(curves) and all(
        c._stamp_cells.size == c.timestamp_us.size for c in curves
    )


def test_sample_day_curves_share_one_timestamp_table():
    cfg = parse_chain_config(bundled_feeder_path("sample_chain.json"))
    got = ingest_csv(bundled_feeder_path("sample_day.csv"), nominal_voltage=cfg.nominal_voltage_v)
    curves, lookups, tables = traced(lambda: loss_curve(cfg, {s.sensor_id: s for s in got}))
    assert curves[0]._stamp_cells is curves[1]._stamp_cells  # one grid, one text
    assert curves[0]._stamp_cells.size == 720
    assert (lookups, tables) == (3, 1)  # the interior sensor is looked up once
    assert_files_match_reference(curves)


def chain_of(layout, step_s):
    """Curves of sensors sampled every step_s, each laid out as (first sample,
    count, missing samples) in steps from 40 steps before T0, with an outage
    reading at its middle sample; the first pair has a rho_s."""
    start = T0 - timedelta(seconds=40 * step_s)
    data = {}
    for n, (sid, (first, count, gaps)) in enumerate(layout.items()):
        values = [
            None if k in gaps else 226.0 - n + (k * 7 % 11) * 0.3 for k in range(count)
        ]
        values[count // 2] = 20.0  # below half of nominal: an outage reading
        data[sid] = series(
            sid, values, start=start + timedelta(seconds=first * step_s), step_s=step_s
        )
    chain = SensorChain(tuple(layout), (0.5,) + (None,) * (len(layout) - 2),
                        grid_step_s=step_s, tolerance_s=step_s / 4, smoothing_window_s=0.0)
    return loss_curve(chain, data)


def staggered_chain(step_s):
    """Curves of three sensors that start and stop at different grid points,
    with gaps and an outage reading; the grids cross a midnight."""
    layout = {"a": (0, 100, range(10, 15)), "b": (7, 90, range(30, 34)), "c": (19, 60, (41,))}
    return chain_of(layout, step_s)


@pytest.mark.parametrize("step_s", [60.0, 7.0, 0.25])
def test_staggered_chain_curves_match_row_by_row_reference(step_s):
    curves, lookups, tables = traced(lambda: staggered_chain(step_s))
    stamps = np.concatenate([c.timestamp_us for c in curves])
    assert np.unique(stamps).size < stamps.size  # the two grids overlap
    assert own_cells(curves)  # unequal grids keep their own cells
    assert (lookups, tables) == (4, 2)
    assert any(c.flag_bits.any() for c in curves)
    if step_s < 1:
        assert (stamps % 1_000_000 != 0).any()  # microseconds in some stamps
    assert_files_match_reference(curves)


def test_a_grid_that_comes_back_after_another_is_made_again():
    # pair grids g1, g2, g1: only adjacent pairs share
    layout = {"a": (40, 21, ()), "b": (0, 101, range(10, 15)), "c": (0, 101, (70,)),
              "d": (40, 21, ())}
    curves, lookups, tables = traced(lambda: chain_of(layout, 60.0))
    first, middle, last = (c.timestamp_us for c in curves)
    assert np.array_equal(first, last) and middle.size > first.size
    assert own_cells(curves)
    assert (lookups, tables) == (6, 3)
    assert_files_match_reference(curves)


def test_pairs_apart_in_time_format_only_their_own_instants():
    hour = [230.0 + k % 3 for k in range(31)]
    later = T0 + timedelta(days=300)
    b_samples = series("b", hour).samples + series("b", hour, start=later).samples
    data = {
        "a": series("a", [231.0] * 31),
        "b": VoltageSeries("b", b_samples),
        "c": series("c", [229.0] * 31, start=later),
    }
    curves = loss_curve(SensorChain(("a", "b", "c")), data)
    assert [c.timestamp_us.size for c in curves] == [31, 31]
    assert own_cells(curves)  # not the 300 days between the pairs
    assert_files_match_reference(curves)


def test_replaced_and_hand_built_curves_write_the_same_bytes():
    layout = {"a": (0, 60, (9,)), "b": (0, 60, ()), "c": (0, 60, (50,))}
    first, curve = chain_of(layout, 60.0)
    assert curve._stamp_cells is first._stamp_cells  # one grid, one text
    rebuilt = replace(curve)
    by_hand = LossCurve(curve.upstream, curve.downstream, curve.timestamp_us,
                        curve.loss_fraction, curve.flag_bits)
    assert rebuilt == by_hand == curve and repr(rebuilt) == repr(curve)
    assert rebuilt._stamp_cells is by_hand._stamp_cells is None  # text made by the writer
    with tempfile.TemporaryDirectory() as out:
        shared = write_loss_curve_csv(curve, out).read_bytes()
        assert write_loss_curve_csv(rebuilt, out).read_bytes() == shared
        assert write_loss_curve_csv(by_hand, out).read_bytes() == shared
    assert shared == reference_curve_csv(curve)


def test_successive_calls_write_their_own_timestamps():
    first = staggered_chain(60.0)
    second = staggered_chain(0.25)
    assert first[0]._stamp_cells is not second[0]._stamp_cells
    for curves in (first, second, first):  # no call's text outlives its curves
        assert_files_match_reference(curves)


def test_byte_order_mark_is_skipped(tmp_path):
    readings = tmp_path / "excel.csv"
    readings.write_bytes(
        codecs.BOM_UTF8
        + b"sensor_id,timestamp,voltage_v\ns1,2024-03-12T00:00:00Z,230\n"
    )
    (got,) = ingest_csv(readings)
    assert got.sensor_id == "s1"
    assert got.samples == ((T0, 230.0),)
    chain = tmp_path / "chain.json"
    chain.write_bytes(codecs.BOM_UTF8 + json.dumps(good_config()).encode())
    assert parse_chain_config(chain).sensor_ids == ("a", "b", "c")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "key,edit",
    [
        ("smoothing_window_s", lambda d, x: d.update({"smoothing_window_s": x})),
        ("tolerance_s", lambda d, x: d.update({"tolerance_s": x})),
        ("grid_step_s", lambda d, x: d.update({"grid_step_s": x})),
        ("nominal_voltage_v", lambda d, x: d.update({"nominal_voltage_v": x})),
        ("calibration", lambda d, x: d["calibration"].update({"b": x})),
        ("rho_s", lambda d, x: d["pairs"][0].update({"rho_s": x})),
    ],
)
def test_chain_config_rejects_non_finite_numbers(tmp_path, key, edit, bad):
    doc = good_config()
    edit(doc, bad)
    path = write_config(tmp_path, doc)
    assert ("NaN" if math.isnan(bad) else "Infinity") in path.read_text()
    with pytest.raises(SensorFormatError) as err:
        parse_chain_config(path)
    assert str(path) in str(err.value)
    assert key in str(err.value)


# ------------------------------------------- array kernels against oracles


def oracle_median(epochs, values, window_s):
    """statistics.median over each inclusive window, by brute force."""
    half = window_s / 2.0
    return [
        statistics.median(
            v for s, v in zip(epochs, values) if t - half <= s <= t + half
        )
        for t in epochs
    ]


def oracle_nearest(epochs, values, t, tol):
    """Linear scan in time order: a strictly nearer sample replaces the earlier one."""
    best, best_dt = None, math.inf
    for s, v in zip(epochs, values):
        if abs(s - t) < best_dt:
            best, best_dt = v, abs(s - t)
    return best if best_dt <= tol else None


def quarter_second_epochs(gaps):
    """Strictly increasing epochs (seconds) from gaps in quarter seconds."""
    return [1_710_201_600.0 + q / 4.0 for q in itertools.accumulate(gaps)]


volt_values = st.one_of(
    st.sampled_from([0.0, 229.5, 230.0, 231.0]),
    st.floats(0.0, 1.7e308),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rolling_median_matches_statistics_median(data):
    epochs = quarter_second_epochs(
        data.draw(st.lists(st.integers(1, 1600), min_size=0, max_size=50))
    )
    n = len(epochs)
    values = data.draw(st.lists(volt_values, min_size=n, max_size=n))
    window = data.draw(
        st.one_of(
            st.sampled_from([0.0, 60.0, 120.0, 240.0, 600.0]), st.floats(0.0, 3000.0)
        )
    )
    assert rolling_median(epochs, values, window).tolist() == oracle_median(
        epochs, values, window
    )


def test_rolling_median_dense_sampling_spans_several_blocks():
    rng = random.Random(3)
    epochs = [float(t) for t in range(4000) if rng.random() > 0.02]  # a few holes
    values = [rng.uniform(225.0, 235.0) for _ in epochs]
    window = 600.0
    # widest window is 601 samples, so the rows need three or more blocks
    assert len(epochs) * 601 > 2 * MEDIAN_BLOCK_CELLS
    half = window / 2.0
    expected = []
    for t in epochs:
        lo = bisect.bisect_left(epochs, t - half)
        hi = bisect.bisect_right(epochs, t + half)
        expected.append(statistics.median(values[lo:hi]))
    assert rolling_median(epochs, values, window).tolist() == expected


@pytest.mark.parametrize(
    "pool",
    [(0.0, 229.5, 230.0, math.inf, -math.inf), (0.0, -0.0, 229.5, math.inf)],
    ids=["repeats-and-inf", "signed-zeros"],
)
def test_rolling_median_gives_statistics_median_bits_on_narrow_windows(pool):
    # widest windows of 1 to 8 samples are sorted by the network (unless a -0.0
    # is present), 9 by np.sort; either way the bits are statistics.median's
    rng = random.Random(11)
    widest = set()
    for _ in range(400):
        epochs = quarter_second_epochs([rng.randint(1, 8) for _ in range(rng.randint(1, 30))])
        values = [rng.choice(pool) for _ in epochs]
        window = rng.randint(0, 36) / 4
        widest.add(max(bisect.bisect_right(epochs, t + window / 2)
                       - bisect.bisect_left(epochs, t - window / 2) for t in epochs))
        got = rolling_median(epochs, values, window)
        assert got.tobytes() == np.array(oracle_median(epochs, values, window)).tobytes()
    assert widest >= set(range(1, 10))


def test_rolling_median_with_a_nan_sorts_as_np_sort_does():
    # each window sorted on its own by np.sort (a NaN goes last), and its
    # middle taken, however wide the other windows are
    rng = random.Random(12)
    epochs = quarter_second_epochs([rng.randint(1, 8) for _ in range(60)])
    values = [rng.choice((math.nan, 229.5, 230.0, 231.0, math.inf)) for _ in epochs]
    for window in (0.0, 3.0, 6.0, 20.0):
        half = window / 2
        bounds = [(bisect.bisect_left(epochs, t - half), bisect.bisect_right(epochs, t + half))
                  for t in epochs]
        want = []
        for lo, hi in bounds:
            block = np.sort(values[lo:hi])
            mid = (hi - lo) // 2
            want.append(block[mid] if (hi - lo) % 2 else (block[mid - 1] + block[mid]) / 2)
        assert rolling_median(epochs, values, window).tobytes() == np.array(want).tobytes()


def integer_series(sensor_id, start, gaps):
    """(series, epochs, values) at whole seconds start + cumulative gaps."""
    epochs = list(itertools.accumulate([start] + gaps))
    values = [200.0 + k for k in range(len(epochs))]
    samples = [
        (datetime.fromtimestamp(t, tz=UTC), v) for t, v in zip(epochs, values)
    ]
    return VoltageSeries(sensor_id, samples), [float(t) for t in epochs], values


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_align_matches_linear_scan(data):
    # whole seconds, so samples often land exactly at +-tolerance and
    # midway between grid points
    sides = []
    for sensor_id in ("a", "b"):
        gaps = data.draw(st.lists(st.integers(1, 300), min_size=0, max_size=40))
        start = 1_710_201_600 + data.draw(st.integers(0, 240))
        sides.append(integer_series(sensor_id, start, gaps))
    step = data.draw(st.sampled_from([60.0, 120.0, 90.0]))
    tol = data.draw(st.sampled_from([0.0, 30.0, 45.0, 60.0, 120.0]))
    (a, ea, va), (b, eb, vb) = sides
    start, end = max(ea[0], eb[0]), min(ea[-1], eb[-1])
    ks = range(math.ceil(start / step - 1e-9), math.floor(end / step + 1e-9) + 1)
    if start > end or not ks:
        with pytest.raises(ValueError):
            align(a, b, step, tol)
        return
    grid, got_a, got_b = align(a, b, step, tol)
    assert grid.tolist() == [k * step for k in ks]
    for t, x, y in zip(grid.tolist(), got_a.tolist(), got_b.tolist()):
        for got, epochs, values in ((x, ea, va), (y, eb, vb)):
            want = oracle_nearest(epochs, values, t, tol)
            assert (None if math.isnan(got) else got) == want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_grid_points_lie_in_their_bounds_up_to_rounding(data):
    # whole-microsecond bounds within 2**52 us of 1970, any step from the
    # least to far past the bounds, at most about 1000 points
    step = data.draw(st.integers(-6, 19).flatmap(lambda e: st.floats(10.0**e, 10.0 ** (e + 1))))
    start_us = data.draw(st.integers(-(2**52), 2**52))
    end_us = start_us + data.draw(st.integers(0, min(10**12, int(step * 1e9))))
    start, end = start_us / 1e6, end_us / 1e6
    grid = timeseries.grid_points(start, end, step)
    # a microsecond of slack, and the rounding of start / step and of k * step
    rounding = 1e-6 + 4 * np.spacing(max(abs(start), abs(end)))
    assert ((start - rounding <= grid) & (grid <= end + rounding)).all()
    # where a slack of 1e-9 step alone gives points that all lie in
    # [start, end], the grid is those points, bit for bit
    ks = np.arange(math.ceil(start / step - 1e-9), math.floor(end / step + 1e-9) + 1)
    if ((start <= ks * step) & (ks * step <= end)).all():
        assert np.array_equal(grid, ks * step)


def test_align_counts_samples_exactly_at_tolerance():
    t = T0 + timedelta(seconds=120)
    grid_side = series("a", [230.0] * 3)
    for offsets, want in [
        ((-60, 60), 201.0),  # equidistant at -tol and +tol: earlier wins
        ((60,), 201.0),  # only +tol
        ((-60,), 201.0),  # only -tol
        ((-60.000001, 60.000001), None),  # both just outside
    ]:
        samples = tuple(
            (t + timedelta(seconds=dt), 201.0 + k) for k, dt in enumerate(offsets)
        )
        # anchors at both ends of the grid, 120 s from t
        samples = ((T0, 300.0),) + samples + ((T0 + timedelta(seconds=240), 300.0),)
        points = aligned_points(
            grid_side, VoltageSeries("b", samples), tolerance_s=60.0
        )
        assert [p.v_b for p in points if p.timestamp == t] == [want]


@settings(max_examples=50, deadline=None)
@given(
    start_us=st.integers(-2_000_000_000_000_000, 4_000_000_000_000_000),
    step=st.sampled_from([0.25, 0.1]),
)
def test_sub_second_grid_timestamps_match_fromtimestamp(start_us, step):
    epoch_us = [start_us + k * 50_000 for k in range(40)]  # 2 s at 20 Hz
    stamps = [EPOCH + timedelta(microseconds=us) for us in epoch_us]
    data = {
        "up": VoltageSeries("up", [(ts, 240.0) for ts in stamps]),
        "down": VoltageSeries("down", [(ts, 228.0) for ts in stamps]),
    }
    (curve,) = loss_curve(
        SensorChain(("up", "down"), grid_step_s=step, tolerance_s=0.03, smoothing_window_s=0.0),
        data,
    )
    first, last = epoch_us[0] / 1e6, epoch_us[-1] / 1e6
    ks = range(math.ceil(first / step - 1e-9), math.floor(last / step + 1e-9) + 1)
    expected = [datetime.fromtimestamp(k * step, tz=UTC) for k in ks]
    assert [p.timestamp for p in curve.points] == expected
    with tempfile.TemporaryDirectory() as out:
        lines = write_loss_curve_csv(curve, out).read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == [
        ts.isoformat().replace("+00:00", "Z") for ts in expected
    ]


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.floats(200.0, 260.0), st.floats(0.9, 1.1)), min_size=1, max_size=20
    ),
    rho_s=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_curve_values_match_scalar_estimator(pairs, rho_s):
    up = [u for u, _ in pairs]
    down = [u * r for u, r in pairs]
    (curve,) = chain_curves(up, down, rho_s=rho_s)  # 60 s window: no smoothing
    assert len(curve.points) == len(pairs)
    for p, u, d in zip(curve.points, up, down):
        seg = SegmentVoltages(u, d)
        if rho_s is None:
            value = voss_single(seg)
            flags = (EstimateFlag.NEGATIVE_DROP.value,) if value < 0.0 else ()
        else:
            est = voss_corrected(seg, CorrectionParams(rho_s=rho_s, rho_v=d / u))
            value = est.loss_fraction
            flags = tuple(
                flag.value
                for flag in (
                    EstimateFlag.NEGATIVE_DROP,
                    EstimateFlag.CORRECTION_OUT_OF_RANGE,
                )
                if est.has_flag(flag)
            )
        assert p.loss_fraction == value
        assert p.flags == flags
