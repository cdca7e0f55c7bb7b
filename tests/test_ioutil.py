"""Deterministic CSV output helpers."""

import csv
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from voss.ioutil import write_csv


def test_overwriting_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [[str(i), "x" * 50] for i in range(1000)])
    write_csv(str(path), ["a", "b"], [["1", "2"]])
    assert path.read_bytes() == b"a,b\n1,2\n"


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
