"""Deterministic CSV output helpers."""

import csv
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voss.ioutil import exact_array, write_csv


def test_overwriting_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [[str(i), "x" * 50] for i in range(1000)])
    write_csv(str(path), ["a", "b"], [["1", "2"]])
    assert path.read_bytes() == b"a,b\n1,2\n"


def test_an_output_is_replaced_and_a_symlinked_one_stays_a_link(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n" * 1000)
    os.link(target, tmp_path / "hard.csv")
    link.symlink_to(target)
    write_csv(link, ["a", "b"], [["1", "2"]])
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == b"a,b\n1,2\n"
    # the old file was removed, not truncated: its other name keeps it
    assert (tmp_path / "hard.csv").read_text() == "old\n" * 1000
    write_csv(target, ["c"], [["3"]])
    assert link.read_bytes() == b"c\n3\n"


def test_a_dangling_symlink_gets_its_target(tmp_path):
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "new.csv")
    write_csv(link, ["a", "b"], [["1", "2"]])
    assert link.is_symlink()
    assert (tmp_path / "new.csv").read_bytes() == b"a,b\n1,2\n"


cells = st.text(st.sampled_from(["a", "7", " ", ",", '"', "\r", "\n", "é"]), max_size=3)


@st.composite
def tables(draw):
    """A header and rows, most as wide as the header, some ragged."""
    header = draw(st.lists(cells, min_size=1, max_size=4))
    width = len(header) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), max_size=8))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.lists(cells, max_size=5)))
    return header, rows


@settings(max_examples=300, deadline=None)
@given(table=tables())
@example(table=(["a", "b"], [["x,y"]]))  # a short row whose cell holds the comma
def test_write_csv_matches_csv_writer(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_csv(got, header, rows)
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "value,dtype,shown",
    [([2**70], np.int64, "object values"), ([2**63 - 1], np.float64, "9223372036854775807"),
     ([0.0, math.nan], np.int64, "nan at index 1"), ([256], np.uint8, "256 at index 0"),
     (np.array([2**63], dtype=np.uint64), np.int64, "9223372036854775808 at index 0"),
     (["5"], np.int64, "<U1 values"), ([None], np.float64, "object values")],
)
def test_exact_array_refuses_what_its_dtype_cannot_hold(value, dtype, shown):
    with pytest.raises(ValueError, match=f"^x must hold {np.dtype(dtype)} numbers, got {shown}"):
        exact_array("x", value, dtype)


def test_exact_array_keeps_every_exact_value_in_a_new_array():
    given = np.array([1.0, -2.0, 2.0**62])
    got = exact_array("x", given, np.int64)
    assert got.dtype == np.int64 and got.tolist() == [1, -2, 2**62]
    same = exact_array("x", given, np.float64)
    assert same.tolist() == given.tolist() and not np.shares_memory(same, given)
    assert np.isnan(exact_array("x", np.array([math.nan], np.float32), np.float64)).all()
