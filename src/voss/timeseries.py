"""Array kernels for UTC time series held as numpy arrays.

Times are float64 epoch seconds or int64 epoch microseconds.  Each
kernel gives exactly what a scalar formulation gives: statistics.median
over a window, a scan for the nearest sample, datetime.fromtimestamp and
datetime.isoformat.  The tests compare them against those oracles.
"""

from __future__ import annotations

import math

import numpy as np

# The rolling median sorts its windows in blocks of at most this many
# cells (rows x widest window), so memory stays bounded however dense
# the sampling.
MEDIAN_BLOCK_CELLS = 1 << 20


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
    # runs over different but overlapping files share timestamps.
    k0 = math.ceil(start / step - 1e-9)
    k1 = math.floor(end / step + 1e-9)
    return np.arange(k0, k1 + 1, dtype=np.int64) * step


def rolling_median(epoch_s, values, window_s: float) -> np.ndarray:
    """Centered time-windowed median, one output per sample.

    epoch_s must be strictly increasing.  The value at time t is the
    median of all samples within window_s/2 of t (inclusive), exactly
    as statistics.median takes it (the mean of the two middle values
    for an even count), so a window shorter than the sampling interval
    is the identity.  Median rather than mean keeps single-sample
    telemetry glitches out of the curve.
    """
    if not window_s >= 0.0:
        raise ValueError(f"window_s must be >= 0, got {window_s}")
    epoch_s = np.asarray(epoch_s, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    out = np.empty(n)
    if n == 0:
        return out
    half = window_s / 2.0
    lo = np.searchsorted(epoch_s, epoch_s - half, side="left")
    width = np.searchsorted(epoch_s, epoch_s + half, side="right") - lo
    rows = max(1, MEDIAN_BLOCK_CELLS // int(width.max()))
    for start in range(0, n, rows):
        w = width[start : start + rows]
        cols = np.arange(w.max())
        block = values[np.minimum(lo[start : start + rows, None] + cols, n - 1)]
        block[cols >= w[:, None]] = np.inf  # padding sorts after every value
        block.sort(axis=1)
        r = np.arange(w.size)
        mid = w // 2
        median = block[r, mid]
        even = np.flatnonzero(w % 2 == 0)
        with np.errstate(over="ignore"):  # huge values overflow to inf, as in Python
            median[even] = (block[even, mid[even] - 1] + median[even]) / 2
        out[start : start + rows] = median
    return out


def seconds_to_us(seconds: np.ndarray) -> np.ndarray:
    """Epoch microseconds, rounded as datetime.fromtimestamp rounds (half even)."""
    whole = np.trunc(seconds)
    return whole.astype(np.int64) * 1_000_000 + np.rint(
        (seconds - whole) * 1e6
    ).astype(np.int64)


def format_utc(epoch_us: np.ndarray) -> list:
    """datetime.isoformat() of each UTC instant, with Z for +00:00."""
    stamps = epoch_us.astype("datetime64[us]")
    text = np.datetime_as_string(stamps, unit="s", timezone="UTC").astype(object)
    fractional = epoch_us % 1_000_000 != 0  # isoformat shows microseconds only then
    text[fractional] = np.datetime_as_string(
        stamps[fractional], unit="us", timezone="UTC"
    )
    return text.tolist()
