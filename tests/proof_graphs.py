"""Graphs and partitions drawn the way the proof-check benchmark draws them.

Random 4-regular and connected G(n, 8/(n-1)) graphs of 600 to 1200 nodes,
each the first seed on which, for every k in KS, lambda_k is simple and no
entry of y_k lies near the zero band, so that the sign supports do not depend
on the eigensolver.  A partition cuts each sign support of y_k into classes of
consecutive y values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from nodal_expansion.generators import gen_gnp, gen_random_regular
from nodal_expansion.graph import is_connected, laplacian
from nodal_expansion.spectral import canonical_sign

SIZES = (600, 800, 1200)
FAMILIES = ("regular", "gnp")
KS = (2, 3, 4)
# lambda_k counts as simple when both neighbours lie this far away,
# relative to 1 + |lambda_k|
SIMPLE_GAP = 1e-6
# no entry of y_k may lie within this fraction of max|y_k| of zero
BAND = 1e-6


def _clear(values: np.ndarray, y: np.ndarray, k: int) -> bool:
    scale = 1.0 + abs(values[k - 1])
    simple = min(values[k - 1] - values[k - 2], values[k] - values[k - 1]) > SIMPLE_GAP * scale
    return simple and float(np.min(np.abs(y))) > BAND * float(np.max(np.abs(y)))


@lru_cache(maxsize=None)
def proof_graph(family: str, n: int):
    """(graph, {k: canonical y_k from numpy's eigh})."""
    for seed in range(100):
        if family == "regular":
            g = gen_random_regular(n, 4, seed)
        else:
            g = gen_gnp(n, 8.0 / (n - 1), seed)
            if not is_connected(g):
                continue
        values, vectors = np.linalg.eigh(laplacian(g))
        ys = {k: canonical_sign(vectors[:, k - 1]) for k in KS}
        if all(_clear(values, ys[k], k) for k in KS):
            return g, ys
    raise AssertionError(f"no clear {family} graph with {n} nodes")


def split(y: np.ndarray, sign: int, parts: int) -> list[list[int]]:
    """The sign support of y cut into `parts` classes of consecutive values."""
    nodes = np.flatnonzero(sign * y > 0)
    order = nodes[np.argsort(y[nodes], kind="stable")]
    return [sorted(int(v) for v in chunk) for chunk in np.array_split(order, parts)]


def proof_partition(y: np.ndarray, a: int, b: int):
    return split(y, 1, a), split(y, -1, b)
