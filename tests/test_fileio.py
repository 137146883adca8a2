import numpy as np
import pytest

from nodal_expansion import fileio
from nodal_expansion.graph import build_graph


def test_edge_list_round_trip(tmp_path):
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    path = tmp_path / "g.txt"
    fileio.write_edge_list(g, path)
    assert fileio.read_edge_list(path).edges == g.edges


def test_edge_list_format():
    g = build_graph(2, [(0, 1)])
    assert fileio.format_edge_list(g) == "2 1\n0 1\n"


def test_comments_and_blank_lines():
    g = fileio.parse_edge_list("# a comment\n3 2\n\n0 1\n# mid\n1 2\n")
    assert g.n == 3 and g.m == 2


def test_parse_error_reports_line_number():
    with pytest.raises(fileio.ParseError) as e:
        fileio.parse_edge_list("3 2\n0 1\n1 x\n", source="bad.txt")
    assert "bad.txt:3" in str(e.value)


def test_header_edge_count_mismatch():
    with pytest.raises(fileio.ParseError):
        fileio.parse_edge_list("3 5\n0 1\n")


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("3 2\n0 5\n1 2\n", 2, "edge (0,5) has endpoint outside [0,3)"),
        ("3 3\n0 1\n1 1\n0 2\n", 3, "self-loop at node 1"),
        ("4 3\n0 1\n0 1\n2 3\n", 3, "duplicate edge (0,1)"),
        ("-1 1\n0 1\n", 1, "node count must be nonnegative, got -1"),
    ],
    ids=["endpoint", "self-loop", "duplicate", "node-count"],
)
def test_graph_validation_surfaces_as_parse_error(text, line_no, message):
    # the error names the offending edge's line, or the header's
    with pytest.raises(fileio.ParseError) as e:
        fileio.parse_edge_list(text)
    assert (e.value.line_no, str(e.value)) == (line_no, f"<string>:{line_no}: {message}")


def test_weights_round_trip(tmp_path):
    w = np.array([0.25, 1.5, 0.0])
    path = tmp_path / "w.txt"
    fileio.write_weights(w, path)
    assert np.array_equal(fileio.read_weights(path, 3), w)


def test_weights_wrong_count():
    with pytest.raises(fileio.ParseError):
        fileio.parse_weights("1.0\n2.0\n", 3)


def test_weights_negative():
    with pytest.raises(fileio.ParseError):
        fileio.parse_weights("1.0\n-2.0\n", 2)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_weights_non_finite(bad):
    # NaN slips past a `w < 0` test, since every comparison with NaN is False
    with pytest.raises(fileio.ParseError, match=":2: non-finite weight"):
        fileio.parse_weights(f"1.0\n{bad}\n", 2)


def test_partition_round_trip(tmp_path):
    classes = [[0, 2], [1], [3, 4]]
    path = tmp_path / "p.txt"
    fileio.write_partition(classes, path)
    assert fileio.read_partition(path) == classes


def test_partition_bad_token():
    with pytest.raises(fileio.ParseError):
        fileio.parse_partition("0 1\n2 zebra\n")
