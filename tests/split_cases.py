"""Seeded inputs with 14 to 20 positive-weight nodes, where the exact
engine builds its half table by the split (`expansion._phi_table`):
random and unit weights on G(p, 0.3) for p = 14..20, an edgeless graph, and
a 20-node star whose centre weighs 100 and whose leaves weigh 1, where
every set lies within the rounding bound of the minimum.

Shared by tests/test_expansion.py and tools/dump_reports.py, which loads
this file by its path.
"""

from __future__ import annotations

import numpy as np

from nodal_expansion.generators import gen_gnp
from nodal_expansion.graph import build_graph

SIZES = range(14, 21)


def split_cases():
    """(name, graph, weights) of each case, every weight positive."""
    for p in SIZES:
        g = gen_gnp(p, 0.3, p)
        yield f"gnp{p}-random", g, np.random.default_rng(p).random(p) + 0.01
        yield f"gnp{p}-unit", g, np.ones(p)
    yield "edgeless17", build_graph(17, []), np.random.default_rng(17).random(17) + 0.01
    star = np.ones(20)
    star[0] = 100.0
    yield "star20", build_graph(20, [(0, i) for i in range(1, 20)]), star
