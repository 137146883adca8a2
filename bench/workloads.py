"""The four workloads: inputs drawn from the workload seed, and the fixed list
of operations one round issues.

Every operation calls a user-facing entry point of the package, looked up on
the package at call time so that tracing can wrap it.  The package receives
only the generated inputs.  The generators are used here, in set-up, and
nowhere in the timed phase.
"""

from __future__ import annotations

import contextlib
import importlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from checks import GraphRef, count_range

# Relative gap to the neighbouring eigenvalues below which lambda_k counts as
# repeated when inputs are drawn.
SIMPLE_GAP = 1e-6
# Entries of y whose magnitude relative to max|y| falls in this band could
# change sign between eigensolvers; graphs with one are redrawn.
AMBIGUOUS_BAND = (1e-12, 1e-6)


@dataclass
class Op:
    kind: str  # "theorem", "corollary" or "proof"
    label: str
    call: Callable[[], object]
    graph: object  # the package Graph the operation runs on
    k: int = 2
    mode: str = "exact"
    pos: list = field(default_factory=list)  # proof: given classes
    neg: list = field(default_factory=list)


@dataclass
class Workload:
    ops: list[Op]
    max_order: int  # largest Laplacian order, for the eigh warm-up


def _api():
    return importlib.import_module("nodal_expansion")


def _gen():
    return importlib.import_module("nodal_expansion.generators")


def _sub_seeds(seed: int, salt: int):
    """An endless stream of generator seeds drawn from the workload seed."""
    rng = np.random.default_rng([seed, salt])
    while True:
        yield int(rng.integers(0, 2**31))


def theorem_op(g, k: int, mode: str, label: str) -> Op:
    api = _api()
    return Op("theorem", label, lambda: api.verify_theorem1(g, k, mode=mode), g, k, mode)


def corollary_op(g, label: str) -> Op:
    api = _api()
    return Op("corollary", label, lambda: api.verify_corollary1(g), g)


def proof_op(g, k: int, pos, neg, files: Path, tag: str) -> Op:
    cli = importlib.import_module("nodal_expansion.cli")
    fileio = importlib.import_module("nodal_expansion.fileio")
    edge_file = files / f"{tag}.edges"
    if not edge_file.exists():
        fileio.write_edge_list(g, edge_file)
    stem = f"{tag}-k{k}-a{len(pos)}-b{len(neg)}"
    pos_file, neg_file = files / f"{stem}.pos", files / f"{stem}.neg"
    fileio.write_partition(pos, pos_file)
    fileio.write_partition(neg, neg_file)
    argv = ["verify-proof", str(edge_file), "--k", str(k),
            "--pos", str(pos_file), "--neg", str(neg_file)]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.run(argv)
        return rc, out.getvalue()

    label = f"verify-proof {tag} k={k} a={len(pos)} b={len(neg)}"
    return Op("proof", label, call, g, k, "", pos, neg)


def _simple(ref: GraphRef, k: int) -> bool:
    v = ref.np_eigh[0]
    scale = 1.0 + abs(float(v[k - 1]))
    return (float(v[k - 1] - v[k - 2]) > SIMPLE_GAP * scale
            and float(v[k] - v[k - 1]) > SIMPLE_GAP * scale)


def _np_c(ref: GraphRef, k: int) -> float:
    """c from numpy's eigenvalues, as the package computes it."""
    v = ref.np_eigh[0]
    return (float(v[k]) - float(v[k - 1])) / 2.0


def _unambiguous(ref: GraphRef, k: int) -> bool:
    y = np.abs(ref.y(k))
    rel = y / y.max()
    return not np.any((rel > AMBIGUOUS_BAND[0]) & (rel <= AMBIGUOUS_BAND[1]))


# --- small-sweep -----------------------------------------------------------

SMALL_N7_GRAPHS = 1000


def small_sweep(seed: int, files: Path) -> Workload:
    """Every connected 5-node graph and a seeded sample of connected 7-node
    graphs, each at every k in 2..n-1, in exact mode."""
    gen = _gen()
    graphs = list(gen.enumerate_connected_graphs(5))
    graphs += list(gen.sample_connected_graphs(7, SMALL_N7_GRAPHS, seed))
    ops = [theorem_op(g, k, "exact", f"n={g.n} #{i} k={k}")
           for i, g in enumerate(graphs) for k in range(2, g.n)]
    return Workload(ops, max_order=7)


# --- exact-near-cap --------------------------------------------------------

# (n, k) of paths whose sign supports have 9-12 nodes; fixed, so the middle
# and the slowest operation of the list are the same on every seed.
NEAR_CAP_PATHS = ((24, 2), (18, 4), (20, 3), (22, 3), (20, 4), (18, 6))
# G(20, 0.3) instances are drawn until each (a, b) profile has this many:
# both supports of exactly 10 nodes, with a + b = 2 (the search fails at
# k = 2 on both sides) or a + b = 3 (it fails at k = 3 on one side).  The
# search cost depends on the support size and on where it fails, so pinning
# both keeps a round's cost from swinging with the seed.
NEAR_CAP_GNP = {2: 2, 3: 2}
NEAR_CAP_SUPPORT = 10
# verify_corollary1 instances: G(36, 0.2) with both y_2 supports of 18 nodes.
COROLLARY_GRAPHS = 3
COROLLARY_SUPPORT = 18
# Candidates examined in each family whatever the seed, so that set-up time
# does not swing with how soon the instances turn up; drawing goes on past
# these counts only if too few qualify.  Over seeds 1-10, 60 G(20, 0.3) draws
# held 14-25 instances with a + b = 2 and 4-13 with a + b = 3, and 60
# G(36, 0.2) draws held 0-3 with 18-node supports.
NEAR_CAP_DRAWS = 60
COROLLARY_DRAWS = 250


def exact_near_cap(seed: int, files: Path) -> Workload:
    api = _api()
    ops = []
    for n, k in NEAR_CAP_PATHS:
        ops.append(theorem_op(api.gen_path(n), k, "exact", f"path{n} k={k}"))
    want = dict(NEAR_CAP_GNP)
    for drawn, sub in enumerate(_sub_seeds(seed, 1)):
        if drawn >= NEAR_CAP_DRAWS and not any(want.values()):
            break
        g = api.gen_gnp(20, 0.3, sub)
        if not api.is_connected(g):
            continue
        ref = GraphRef.from_edges(g.n, g.edges)
        for k in range(2, 6):
            if not _simple(ref, k) or _np_c(ref, k) <= ref.tol:
                continue
            pos, neg, w = ref.supports(k)
            if len(pos) != NEAR_CAP_SUPPORT or len(neg) != NEAR_CAP_SUPPORT:
                continue
            c_search = _np_c(ref, k) - ref.tol
            counts = []
            for nodes in (pos, neg):
                side = ref.side(nodes, w)
                lo, hi = count_range(side.phi_table(), side.p, c_search)
                counts.append(lo if lo == hi else None)
            if None in counts or want.get(sum(counts), 0) == 0:
                continue
            want[sum(counts)] -= 1
            ops.append(theorem_op(g, k, "exact", f"gnp20 seed={sub} k={k} a+b={sum(counts)}"))
            break
    found = 0
    for drawn, sub in enumerate(_sub_seeds(seed, 2)):
        if drawn >= COROLLARY_DRAWS and found == COROLLARY_GRAPHS:
            break
        g = api.gen_gnp(36, 0.2, sub)
        if not api.is_connected(g):
            continue
        ref = GraphRef.from_edges(g.n, g.edges)
        if not _simple(ref, 2) or _np_c(ref, 2) <= ref.tol:
            continue
        pos, neg, _ = ref.supports(2)
        if len(pos) == len(neg) == COROLLARY_SUPPORT and found < COROLLARY_GRAPHS:
            ops.append(corollary_op(g, f"corollary gnp36 seed={sub}"))
            found += 1
    return Workload(ops, max_order=36)


# --- heuristic-large -------------------------------------------------------

# The random 4-regular graphs are drawn once, from fixed generator seeds, and
# do not follow the workload seed: the greedy moves' cost on them swings by
# +-35% from one random graph to the next (1.9-4.1 s for k = 2..4 over 12
# graphs at n = 400), which would bury any change this workload should show.
REGULAR_CASES = ((400, 1, (2, 3)), (800, 1, (3,)))
HEURISTIC_PATH = (300, (2, 3, 4, 6, 8))
# Bridged expanders: two 4-regular 100-node blocks joined by a 200-node path,
# blocks drawn from the workload seed.
BRIDGED = (100, 4, 200, (2, 3, 4, 5, 6))


def heuristic_large(seed: int, files: Path) -> Workload:
    api = _api()
    ops = []
    n, ks = HEURISTIC_PATH
    for k in ks:
        ops.append(theorem_op(api.gen_path(n), k, "heuristic", f"path{n} k={k}"))
    n_block, d, path_len, ks = BRIDGED
    sub = next(_sub_seeds(seed, 3))
    g = api.gen_expander_path_expander(n_block, d, path_len, sub)
    for k in ks:
        ops.append(theorem_op(g, k, "heuristic", f"bridged{g.n} seed={sub} k={k}"))
    for n, gen_seed, ks in REGULAR_CASES:
        g = api.gen_random_regular(n, 4, gen_seed)
        for k in ks:
            ops.append(theorem_op(g, k, "heuristic", f"regular{n} k={k}"))
    return Workload(ops, max_order=800)


# --- proof-check -----------------------------------------------------------

# (family, n, [(k, a, b), ...]): the given partitions split each sign support
# of y_k into a (resp. b) classes of consecutive y values.  a + b = k + 1
# makes verify-proof run prop_sum as well.
PROOF_GRAPHS = (
    ("regular", 400, ((2, 1, 1), (3, 2, 2))),
    ("gnp", 600, ((2, 1, 1),)),
    ("regular", 800, ((2, 2, 1),)),
    ("gnp", 1000, ((3, 1, 1),)),
    ("regular", 1200, ((2, 1, 1), (2, 2, 1))),
)
PROOF_GNP_DEGREE = 8.0


def _split(nodes: np.ndarray, y: np.ndarray, parts: int) -> list[list[int]]:
    order = nodes[np.argsort(y[nodes], kind="stable")]
    return [sorted(int(v) for v in chunk) for chunk in np.array_split(order, parts)]


def proof_check(seed: int, files: Path) -> Workload:
    """One graph at a time, so that set-up never holds more than one dense
    eigendecomposition and the peak memory stays the program's."""
    api = _api()
    subs = _sub_seeds(seed, 4)
    ops = []
    for family, n, cases in PROOF_GRAPHS:
        while True:
            sub = next(subs)
            if family == "regular":
                g = api.gen_random_regular(n, 4, sub)
            else:
                g = api.gen_gnp(n, PROOF_GNP_DEGREE / (n - 1), sub)
                if not api.is_connected(g):
                    continue
            ref = GraphRef.from_edges(g.n, g.edges)
            if all(_proof_ok(ref, k, a, b) for k, a, b in cases):
                break
        for k, a, b in cases:
            pos, neg, _ = ref.supports(k)
            y = ref.y(k)
            ops.append(proof_op(g, k, _split(pos, y, a), _split(neg, y, b),
                                files, f"{family}{n}-{sub}"))
        del ref
    return Workload(ops, max_order=max(n for _, n, _ in PROOF_GRAPHS))


def _proof_ok(ref: GraphRef, k: int, a: int, b: int) -> bool:
    """lambda_k simple and no entry of y near the zero band, so the sign
    supports do not depend on the eigensolver; supports large enough."""
    if not _simple(ref, k) or not _unambiguous(ref, k):
        return False
    pos, neg, _ = ref.supports(k)
    return len(pos) >= a and len(neg) >= b


WORKLOADS = {
    "small-sweep": small_sweep,
    "exact-near-cap": exact_near_cap,
    "heuristic-large": heuristic_large,
    "proof-check": proof_check,
}
