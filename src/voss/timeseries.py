"""Array kernels for UTC time series held as numpy arrays, and the one
reading of a timestamp text.

Times are float64 epoch seconds or int64 epoch microseconds.  Each
kernel gives exactly what a scalar formulation gives: statistics.median
over a window, a scan for the nearest sample, datetime.fromtimestamp and
datetime.fromisoformat.  The tests compare them against those oracles.
Times in seconds are ``epoch_us / 1e6``, which equals
``datetime.timestamp()`` bit for bit (within 2**53 us, about 285 years,
of 1970), so grid and alignment arithmetic is the same as on datetimes.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone

import numpy as np

from .ioutil import json_number

UTC = timezone.utc
EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
_ONE_US = timedelta(microseconds=1)

# The rolling median sorts its windows in blocks of at most this many
# cells (rows x widest window), so memory stays bounded however dense
# the sampling.
MEDIAN_BLOCK_CELLS = 1 << 20
# A block whose windows are at most this wide is sorted by a sorting network.
NETWORK_WIDTH = 8

# The least value of each time setting, in seconds; each must also be finite.
# Grid timestamps are whole microseconds, so a step is at least one.
LEAST_SECONDS = {"window_s": 0.0, "grid_step_s": 1e-6, "tolerance_s": 0.0}


def check_seconds(name: str, value) -> float:
    """value as a float, if it is a number (ioutil.json_number: never a bool)
    that is finite and at least LEAST_SECONDS[name]."""
    least = LEAST_SECONDS[name]
    number = json_number(value)
    if number is None or not least <= number < math.inf:
        shown = value if number is None else number
        raise ValueError(f"{name} must be finite and >= {least:g} s, got {shown}")
    return number


def nearest_index(epochs: np.ndarray, t: np.ndarray, tol: float) -> np.ndarray:
    """Index into sorted epochs of the sample nearest each t within tol, else -1.

    A tie goes to the earlier sample, and a sample exactly tol away
    counts.
    """
    n = epochs.size
    if n == 0:
        return np.full(t.shape, -1)
    after = np.searchsorted(epochs, t, side="left")
    before = after - 1
    d_before = np.where(before >= 0, np.abs(epochs[np.maximum(before, 0)] - t), np.inf)
    d_after = np.where(after < n, np.abs(epochs[np.minimum(after, n - 1)] - t), np.inf)
    take_after = d_after < d_before
    best = np.where(take_after, after, before)
    distance = np.where(take_after, d_after, d_before)
    return np.where(distance <= tol, best, -1)


def grid_points(start: float, end: float, step: float) -> np.ndarray:
    """Multiples k * step of the step inside [start, end], in epoch seconds."""
    # Grid points sit at absolute multiples of the step (UTC epoch), so
    # runs over different but overlapping files share timestamps.  The
    # slack keeps a multiple that start / step rounds past; it is 1e-9
    # step, but at most a microsecond, the resolution of a timestamp.
    slack = min(1e-9, 1e-6 / step)
    k0 = math.ceil(start / step - slack)
    k1 = math.floor(end / step + slack)
    return np.arange(k0, k1 + 1, dtype=np.int64) * step


def rolling_median(epoch_s, values, window_s: float) -> np.ndarray:
    """Centered time-windowed median, one output per sample.

    epoch_s must be strictly increasing.  The value at time t is the
    median of all samples within window_s/2 of t (inclusive), exactly
    as statistics.median takes it (the mean of the two middle values
    for an even count), so a window shorter than the sampling interval
    is the identity.  Median rather than mean keeps single-sample
    telemetry glitches out of the curve.

    A block of windows at most NETWORK_WIDTH wide is sorted by an odd-even
    transposition network, an np.minimum/np.maximum pair per step on whole
    columns, which sorts bit for bit as sorted() does when values that
    compare equal have equal bits: no NaN and no -0.0.  Other blocks go to
    np.sort, a stable one if a -0.0 is present, so that +-0 keep their order.
    Short windows are padded to the block's widest with inf, or with NaN
    when a value is NaN, so the padding sorts after every value and each
    window's median is the one np.sort gives on that window alone.
    """
    check_seconds("window_s", window_s)
    epoch_s = np.asarray(epoch_s, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    out = np.empty(n)
    if n == 0:
        return out
    half = window_s / 2.0
    lo = np.searchsorted(epoch_s, epoch_s - half, side="left")
    width = np.searchsorted(epoch_s, epoch_s + half, side="right") - lo
    signed_zero = np.signbit(values[values == 0]).any()
    nan = np.isnan(values).any()
    network = not (signed_zero or nan)
    rows = max(1, MEDIAN_BLOCK_CELLS // int(width.max()))
    for start in range(0, n, rows):
        w = width[start : start + rows]
        cols = np.arange(w.max())[:, None]
        # one column of windows per row: block[k, i] is row i's k-th sample
        block = values[np.minimum(lo[start : start + rows] + cols, n - 1)]
        block[cols >= w] = np.nan if nan else np.inf  # sorts after every value
        if network and cols.size <= NETWORK_WIDTH:
            for step in range(cols.size):
                a = block[step % 2 : cols.size - 1 : 2]
                b = block[step % 2 + 1 : cols.size : 2]
                a[...], b[...] = np.minimum(a, b), np.maximum(a, b)
        else:
            block.sort(axis=0, kind="stable" if signed_zero else None)
        r = np.arange(w.size)
        mid = w // 2
        median = block[mid, r]
        even = np.flatnonzero(w % 2 == 0)
        # huge values overflow to inf, and inf - inf is nan, as in Python
        with np.errstate(over="ignore", invalid="ignore"):
            median[even] = (block[mid[even] - 1, even] + median[even]) / 2
        out[start : start + rows] = median
    return out


def seconds_to_us(seconds: np.ndarray) -> np.ndarray:
    """Epoch microseconds, rounded as datetime.fromtimestamp rounds (half even)."""
    whole = np.trunc(seconds)
    return whole.astype(np.int64) * 1_000_000 + np.rint(
        (seconds - whole) * 1e6
    ).astype(np.int64)


# A canonical timestamp: 0 is an ASCII digit, + is + or -, a Z suffix reads
# as +00:00.  Its digit pairs (century, year, month, day, hour, minute, second,
# offset hours, minutes) are at most _STAMP_MOST.
_STAMP = np.array([ord(c) for c in "0000-00-00T00:00:00+00:00"], dtype=np.uint32)
_STAMP_SPAN = np.where(_STAMP == ord("0"), 9, 0).astype(np.uint32)
_STAMP_TENS = np.flatnonzero(_STAMP_SPAN)[::2]  # each pair's ones digit follows
_STAMP_MOST = np.array([99, 99, 12, 31, 23, 59, 59, 23, 59])
_FIRST_S, _LAST_S = -62_135_596_800, 253_402_300_799  # 0001-01-01, 9999-12-31T23:59:59


def parse_canonical_us(texts: list) -> dict:
    """Epoch microseconds of each canonical timestamp text, as datetime.fromisoformat
    reads it: YYYY-MM-DDTHH:MM:SS then Z or +HH:MM/-HH:MM in ASCII digits, all fields
    in range, the instant in years 1-9999 UTC.  Other texts are left out."""
    size = np.fromiter(map(len, texts), np.int64, len(texts))
    chars = np.array(texts, dtype="<U25").view(np.uint32).reshape(-1, 25)  # cut to 25
    chars[(size == 20) & (chars[:, 19] == ord("Z")), 19:] = _STAMP[19:]
    digits = chars - _STAMP  # a character below the template's wraps round
    form = digits <= _STAMP_SPAN
    form[:, 19] |= chars[:, 19] == ord("-")
    pick = np.flatnonzero(form.all(axis=1) & (size <= 25))
    rows = digits[pick]
    numbers = rows[:, _STAMP_TENS].astype(np.int64) * 10 + rows[:, _STAMP_TENS + 1]
    century, year, month, day, hour, minute, second, off_h, off_m = numbers.T
    first = (century * 100 + year - 1970).astype("M8[Y]").astype("M8[M]") + (month - 1)
    date = first.astype("M8[D]") + (day - 1)
    offset = np.where(chars[pick, 19] == ord("-"), -60, 60) * (off_h * 60 + off_m)
    seconds = ((date.astype(np.int64) * 24 + hour) * 60 + minute) * 60 + second - offset
    good = (numbers <= _STAMP_MOST).all(axis=1) & (century + year > 0) & (month > 0)
    good &= date.astype("M8[M]") == first  # the day is one of its month's
    good &= (_FIRST_S <= seconds) & (seconds <= _LAST_S)
    epoch_us = (seconds[good] * 1_000_000).tolist()
    if len(epoch_us) == len(texts):  # every text canonical
        return dict(zip(texts, epoch_us))
    return dict(zip(map(texts.__getitem__, pick[good].tolist()), epoch_us))


def datetime_to_us(ts: datetime) -> int:
    """Epoch microseconds of an aware datetime."""
    return (ts - EPOCH) // _ONE_US


def us_to_datetime(epoch_us: int) -> datetime:
    """The UTC datetime of epoch microseconds."""
    return EPOCH + timedelta(microseconds=epoch_us)


def parse_timestamps(texts: list) -> tuple:
    """(epoch microseconds by text, message by text) of distinct timestamp texts.

    Each text is read as datetime.fromisoformat reads it once stripped,
    with Z for +00:00; a time with no offset is taken as UTC.  Canonical
    texts are read as arrays by parse_canonical_us.  A text that does not
    parse, or whose offset moves the instant outside years 1-9999, gets
    the message ``bad timestamp <text>: <reason>`` in place of a value.
    """
    epoch_us = parse_canonical_us(texts)
    messages = {}
    if len(epoch_us) == len(texts):
        return epoch_us, messages
    for text in texts:
        if text in epoch_us:
            continue
        try:
            ts = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
            # astimezone rejects an offset that moves the instant out of range
            ts = ts.replace(tzinfo=UTC) if ts.tzinfo is None else ts.astimezone(UTC)
        except (ValueError, OverflowError) as exc:
            messages[text] = f"bad timestamp {text!r}: {exc}"
        else:
            epoch_us[text] = datetime_to_us(ts)
    return epoch_us, messages
