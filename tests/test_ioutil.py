"""Deterministic CSV output helpers."""

from voss.ioutil import write_csv


def test_overwriting_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [[str(i), "x" * 50] for i in range(1000)])
    write_csv(str(path), ["a", "b"], [["1", "2"]])
    assert path.read_bytes() == b"a,b\n1,2\n"
