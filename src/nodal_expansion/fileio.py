"""Text file formats: edge lists, node weights, and partitions.

Edge list: first non-comment line "n m", then m lines "u v" with 0-based
endpoints.  Weights: one finite, nonnegative decimal float per line, n
lines.  Partition: one line per class, space-separated 0-based node
indices.  Lines starting with '#' are comments in all three formats.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .graph import Graph, GraphError, build_graph


class ParseError(ValueError):
    def __init__(self, path: str | Path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((no, line))
    return out


def parse_edge_list(text: str, source: str | Path = "<string>") -> Graph:
    lines = _content_lines(text)
    if not lines:
        raise ParseError(source, 1, "empty edge list (expected header 'n m')")
    no, header = lines[0]
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(source, no, f"expected header 'n m', got {header!r}")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(source, no, f"non-integer header field in {header!r}") from None
    body = lines[1:]
    if len(body) != m:
        raise ParseError(
            source, no, f"header promises {m} edges, file has {len(body)}"
        )

    def edges():
        # build_graph reads one edge at a time: `no` names the one it rejects
        nonlocal no
        for no, line in body:
            fields = line.split()
            if len(fields) != 2:
                raise ParseError(source, no, f"expected 'u v', got {line!r}")
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError(source, no, f"non-integer endpoint in {line!r}") from None
            yield u, v

    try:
        return build_graph(n, edges())
    except GraphError as e:
        raise ParseError(source, no, str(e)) from e


def read_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text(), source=path)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def write_edge_list(g: Graph, path: str | Path) -> None:
    Path(path).write_text(format_edge_list(g))


def parse_weights(text: str, n: int, source: str | Path = "<string>") -> np.ndarray:
    lines = _content_lines(text)
    if len(lines) != n:
        raise ParseError(source, 1, f"expected {n} weight lines, got {len(lines)}")
    w = np.zeros(n)
    for i, (no, line) in enumerate(lines):
        try:
            w[i] = float(line)
        except ValueError:
            raise ParseError(source, no, f"non-numeric weight {line!r}") from None
        if not np.isfinite(w[i]):
            raise ParseError(source, no, f"non-finite weight {line!r}")
        if w[i] < 0:
            raise ParseError(source, no, f"negative weight {w[i]}")
    return w


def read_weights(path: str | Path, n: int) -> np.ndarray:
    return parse_weights(Path(path).read_text(), n, source=path)


def write_weights(w: np.ndarray, path: str | Path) -> None:
    Path(path).write_text("".join(f"{float(x):.12g}\n" for x in w))


def parse_partition(
    text: str, source: str | Path = "<string>"
) -> list[list[int]]:
    classes = []
    for no, line in _content_lines(text):
        try:
            nodes = [int(f) for f in line.split()]
        except ValueError:
            raise ParseError(source, no, f"non-integer node index in {line!r}") from None
        classes.append(nodes)
    return classes


def read_partition(path: str | Path) -> list[list[int]]:
    return parse_partition(Path(path).read_text(), source=path)


def write_partition(classes, path: str | Path) -> None:
    Path(path).write_text(
        "".join(" ".join(str(i) for i in cls) + "\n" for cls in classes)
    )
