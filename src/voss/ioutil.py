"""Small shared helpers: number, count, text, exact-cast and memory rules; deterministic CSV."""

from __future__ import annotations

import contextlib
import csv
import math
import numbers
import os
from typing import Optional

import numpy as np

# Shortest round-trippable-ish decimal form, stable across runs; every
# float cell of an output CSV is written with it.
FLOAT_FORMAT = "%.12g"

# a name that goes into an output file name holds none of these: a path
# separator, or NUL, which no file name can hold
NOT_IN_FILE_NAMES = frozenset(filter(None, ("/", os.sep, os.altsep, "\0")))


def format_column(values) -> list:
    """Each value of a float array written with FLOAT_FORMAT."""
    return list(map(FLOAT_FORMAT.__mod__, values.tolist()))


def json_number(value) -> Optional[float]:
    """A JSON number as a float (+-inf past the float range), else None.

    A bool is never a number.  Feeder files and chain configs both use it.
    An exact float is returned as it is, which float() would also give.
    """
    if type(value) is float:
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_count(name: str, value, least: int = 1):
    """value, if it is an integer (a numpy one too, never a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value}")
    return value


def check_text(name: str, value):
    """value, if it is a nonempty str."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a nonempty string, got {value!r}")
    return value


def exact_array(name: str, value, dtype) -> np.ndarray:
    """value as a new array of dtype, each number as it is; a ValueError naming
    the column refuses a non-number (a bool too) and a number dtype cannot hold."""
    given = np.array(value)  # never the caller's array
    if given.dtype == dtype:
        return given
    if given.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold {np.dtype(dtype)} numbers, got {given.dtype} values")
    wide = given.astype(given.dtype.kind + "8")  # int64, uint64 or float64 holds given
    with np.errstate(all="ignore"):  # kept if it casts back to itself (NaN too) with its sign
        kept = wide.astype(dtype)
        lost = np.flatnonzero(((kept.astype(wide.dtype) != wide) & ~np.isnan(kept))
                              | ((kept < 0) != (wide < 0)))
    if lost.size:
        raise ValueError(f"{name} must hold {np.dtype(dtype)} numbers, "
                         f"got {given.flat[lost[0]]} at index {lost[0]}")
    return kept


@contextlib.contextmanager
def in_memory(what: str):
    """A MemoryError inside becomes the ValueError "<what> does not fit in memory"."""
    try:
        yield
    except MemoryError:
        raise ValueError(f"{what} does not fit in memory") from None


def open_output(path):
    """path opened for writing after the file there (a symlink's target) is
    removed, not truncated: ext4 writes out truncated or renamed-over data.
    A replaced file keeps neither its permissions nor its hard links."""
    target = os.path.realpath(path)
    if os.path.isfile(target):
        with contextlib.suppress(OSError):
            os.unlink(target)
    return open(path, "w", newline="")


def write_csv(path, header, rows) -> None:
    """Write rows of str cells with a fixed header.

    The bytes are always those of csv.writer with lineterminator "\\n".
    When no cell can need quoting (every row as wide as a header of two
    or more columns, and no comma, newline, quote or CR inside a cell),
    that is the rows joined with commas and newlines, built in one join.
    """
    lines = [header, *rows]
    width = len(header)
    text = None
    if width > 1 and set(map(len, lines)) == {width}:
        text = "\n".join(map(",".join, lines))
    with open_output(path) as fh:
        if (
            text is not None
            and text.count(",") == (width - 1) * len(lines)
            and text.count("\n") == len(lines) - 1
            and '"' not in text
            and "\r" not in text
        ):
            fh.write(text)
            fh.write("\n")
        else:
            csv.writer(fh, lineterminator="\n").writerows(lines)
