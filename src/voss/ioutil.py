"""Small shared helpers: the JSON number rule and deterministic CSV output."""

from __future__ import annotations

import csv
import math
from typing import Optional

# Shortest round-trippable-ish decimal form, stable across runs; every
# float cell of an output CSV is written with it.
FLOAT_FORMAT = "%.12g"


def format_float(x: float) -> str:
    """x written with FLOAT_FORMAT."""
    return FLOAT_FORMAT % x


def json_number(value) -> Optional[float]:
    """A JSON number as a float (+-inf past the float range), else None.

    A bool is never a number.  Feeder files and chain configs both use it.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
    with open(path, "w", newline="") as fh:
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
