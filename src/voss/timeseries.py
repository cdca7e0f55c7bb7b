"""Array kernels for UTC time series held as numpy arrays, and the one
reading of a timestamp text.

Times are int64 epoch microseconds.  A time setting (window, grid step,
tolerance) is given in seconds and taken to whole microseconds by
whole_us, so every comparison of times is exact.  Each kernel gives
exactly what a scalar formulation gives: statistics.median over a
window, a scan for the nearest sample, datetime.fromisoformat.  The
tests compare them against those oracles.
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
# The instants of years 1-9999 UTC, which hold every series' times.  whole_us
# caps a setting at US_CAP, past their span, so a time plus or minus a
# setting stays an int64.
FIRST_US, LAST_US = -62_135_596_800_000_000, 253_402_300_799_999_999
US_CAP = 1 << 62


def check_seconds(name: str, value) -> float:
    """value as a float, if it is a number (ioutil.json_number: never a bool)
    that is finite and at least LEAST_SECONDS[name]."""
    least = LEAST_SECONDS[name]
    number = json_number(value)
    if number is None or not least <= number < math.inf:
        shown = value if number is None else number
        raise ValueError(f"{name} must be finite and >= {least:g} s, got {shown}")
    return number


def whole_us(seconds: float) -> int:
    """seconds (finite, >= 0) to the nearest whole microsecond, half to
    even, computed exactly; at most US_CAP."""
    numerator, denominator = float(seconds).as_integer_ratio()
    us, rest = divmod(2_000_000 * numerator + denominator, 2 * denominator)  # half up
    return min(us - (rest == 0 and us % 2), US_CAP)  # but a tie goes to even


def nearest_index(epoch_us: np.ndarray, t_us: np.ndarray, tol_us: int) -> np.ndarray:
    """Index into sorted epoch_us of the sample nearest each t_us within
    tol_us (all microseconds), else -1.  A tie goes to the earlier
    sample, and a sample exactly tol_us away counts."""
    if epoch_us.size == 0:
        return np.full(t_us.shape, -1)
    after = np.searchsorted(epoch_us, t_us)
    # clipped at the ends, where both then name the one neighbour
    before, after = np.maximum(after - 1, 0), np.minimum(after, epoch_us.size - 1)
    nearer = np.abs(epoch_us[after] - t_us) < np.abs(epoch_us[before] - t_us)
    best = np.where(nearer, after, before)
    return np.where(np.abs(epoch_us[best] - t_us) <= tol_us, best, -1)


def grid_points(start_us: int, end_us: int, step_us: int) -> np.ndarray:
    """The multiples of step_us >= 1 inside [start_us, end_us], int64 epoch
    microseconds: absolute multiples, so runs over different but
    overlapping files share timestamps."""
    return np.arange(-(-start_us // step_us), end_us // step_us + 1, dtype=np.int64) * step_us


def _window_bounds(epoch_us: np.ndarray, half: int) -> tuple:
    """(first index, width) of each sample's window in strictly increasing
    epoch_us, the samples at most half away: step s adds the neighbours s
    places away, while any window grows.  Past NETWORK_WIDTH steps a window
    is wider than the network sorts, and np.searchsorted finds them all."""
    n = epoch_us.size
    left, right = np.zeros(n, np.int64), np.zeros(n, np.int64)
    for s in range(1, n):
        if s > NETWORK_WIDTH:
            lo = np.searchsorted(epoch_us, epoch_us - half, side="left")
            return lo, np.searchsorted(epoch_us, epoch_us + half, side="right") - lo
        near = epoch_us[s:] - epoch_us[:-s] <= half
        if not near.any():
            break
        left[s:] += near
        right[:-s] += near
    return np.arange(n) - left, left + right + 1


def rolling_median(epoch_us, values, window_s: float) -> np.ndarray:
    """Centered time-windowed median, one output per sample.

    epoch_us, in years 1-9999, must be strictly increasing.  The value
    at time t is the median of all samples within window_s/2 of t
    (inclusive; window_s taken to whole microseconds), exactly
    as statistics.median takes it (the mean of the two middle values
    for an even count), so a window shorter than the sampling interval
    is the identity.  Median rather than mean keeps single-sample
    telemetry glitches out of the curve.

    _window_bounds finds the windows, by linear steps while they are narrow.
    A block of windows at most NETWORK_WIDTH wide is sorted by an odd-even
    transposition network, an np.minimum/np.maximum pair per step on whole
    columns, which sorts bit for bit as sorted() does when values that
    compare equal have equal bits: no NaN and no -0.0.  Other blocks go to
    np.sort, a stable one if a -0.0 is present, so that +-0 keep their order.
    Short windows are padded to the block's widest with inf, or with NaN
    when a value is NaN, so the padding sorts after every value and each
    window's median is the one np.sort gives on that window alone.
    """
    half = whole_us(check_seconds("window_s", window_s)) // 2  # times are whole us
    epoch_us = np.asarray(epoch_us, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    out = np.empty(n)
    if n == 0:
        return out
    lo, width = _window_bounds(epoch_us, half)
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


# A canonical timestamp: 0 is an ASCII digit, + is + or -, a Z suffix reads
# as +00:00.  Its digit pairs (century, year, month, day, hour, minute, second,
# offset hours, minutes) are at most _STAMP_MOST.
_STAMP = np.array([ord(c) for c in "0000-00-00T00:00:00+00:00"], dtype=np.uint32)
_STAMP_SPAN = np.where(_STAMP == ord("0"), 9, 0).astype(np.uint32)
_STAMP_TENS = np.flatnonzero(_STAMP_SPAN)[::2]  # each pair's ones digit follows
_STAMP_MOST = np.array([99, 99, 12, 31, 23, 59, 59, 23, 59])


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
    epoch_us = seconds * 1_000_000
    good &= (FIRST_US <= epoch_us) & (epoch_us <= LAST_US)
    epoch_us = epoch_us[good].tolist()
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
