"""Weighted expansion, expander verdicts, and (k,c)-partition search.

The expansion of a node subset S under nonnegative node weights w is

    phi(S) = sum over edges {i,j} crossing S of sqrt(w_i w_j)
             / min(w(S), w(V \\ S)),

defined whenever 0 < w(S) < w(V).  The crossing sum runs over edges only;
nodes of zero weight contribute nothing to either side of the ratio, so
exact searches enumerate over the positive-weight nodes.

Every direct evaluation of phi (`phi` itself, certification, the
heuristic's greedy moves, the exact engine's confirmations) follows one
summation order on a boolean membership mask: w(S) and w(V \\ S) are each
summed in node-index order, the crossing terms in edge order, all three
strictly left to right.  `_cut_value` does this for one set; `_cut_values`
does it for a stack of sets, with +0.0 in place of the terms left out, which
gives the same bits.  The last bits of phi therefore do not depend on which
caller asks, phi(S) == phi(V \\ S) holds exactly, and the strict
comparisons against c and between candidate moves are reproducible.  A
`PartitionCertificate` carries each class's cut (`CutValue`) as certified,
and the proof checks read those cuts instead of summing them again.
Wherever many sets are in play, a cheaper arithmetic screens them first
with a proven rounding bound, and the kernel confirms: the exact engine's
table (below) and the heuristic's greedy moves, whose trials are all
screened at once from per-node sums by neighbour class.

Heuristic mode splits a support along Fiedler sweeps and then moves single
nodes between classes.  The splits form one chain per support, the classes
after 0, 1, 2, ... splits, so `max_partitionable` walks the chain once for
k = 1, 2, ... and `find_partition` draws k - 1 splits from it.

Exact mode rests on one table: phi of every subset of the p positive-weight
nodes, built by doubling.  Bit j takes the masks [2^j, 2^(j+1)) from the
masks [0, 2^j) by adding w_j, the weighted degree deg_j, and t_j(m), the
edge weight from node j into m; then cut = dsum - 2*inner.  Next to each
entry the table carries a rounding bound, after the gamma_k bounds of
Higham (Accuracy and Stability of Numerical Algorithms, 2002), that covers
both its own arithmetic and the kernel's sequential sums.  Table values only
screen and are never reported: every entry that can decide an outcome (a
possible minimum, or an entry within its bound of c) is evaluated again by
the kernel, and the kernel's value decides.  The smallest kernel value
decides `is_expander`, whose witness is the lowest mask among the kernel
minima; the kernel stops as soon as no set left can fall below the best
value found.  A dynamic program over submasks reads from the screened table
the largest partition into classes of phi below c, which serves
`max_partitionable` and `find_partition`.  The table costs 2^p work and the
partition DP up to 3^p, so each has its own cap on p: EXACT_BIPARTITION_CAP
for the table alone, EXACT_SET_PARTITION_CAP where the DP runs too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graph import Graph, induced_subgraph, laplacian
from .spectral import _gamma

EXACT_BIPARTITION_CAP = 20
EXACT_SET_PARTITION_CAP = 12
DEFAULT_BUDGET = 1000

# an absolute term for the divisions, whose results may fall into gradual
# underflow
_UNDERFLOW = 4 * np.finfo(float).smallest_subnormal
# the kernel runs on blocks of at most this many mask-by-node or mask-by-edge
# entries
_BLOCK = 1 << 22


class ExpansionError(ValueError):
    pass


class UndefinedCut(ExpansionError):
    """phi requested for a set with w(S) = 0 or w(S) = w(V)."""


class ExactCapExceeded(ExpansionError):
    pass


@dataclass(frozen=True)
class CutValue:
    numerator: float
    denominator: float

    @property
    def phi(self) -> float:
        """The expansion; inf for a set with an empty side (denominator 0)."""
        return self.numerator / self.denominator if self.denominator > 0 else np.inf


@dataclass(frozen=True)
class ExpanderVerdict:
    is_expander: bool
    c: float
    witness: tuple[int, ...] | None
    mode: str
    min_phi: float | None = None


@dataclass(frozen=True)
class PartitionCertificate:
    """A verified k-way split: disjoint classes covering the ground set, each
    with its kernel cut in the ground graph (none for a single class)."""

    classes: tuple[tuple[int, ...], ...]
    cuts: tuple[CutValue, ...]
    c: float
    valid: bool

    @property
    def phis(self) -> tuple[float, ...]:
        return tuple(cut.phi for cut in self.cuts)


def _check_weights(g: Graph, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (g.n,):
        raise ExpansionError(f"weights shape {w.shape} does not match n={g.n}")
    # one pass, as cheap as a sign test alone; NaN fails both comparisons
    if not ((w >= 0) & (w < np.inf)).all():
        raise ExpansionError("weights must be finite and nonnegative")
    return w


def _check_search(g: Graph, w: np.ndarray, c: float, mode: str) -> np.ndarray:
    """The checked weights of a search at threshold c in `mode`; the mode
    is checked first, so that no input returns early with an unknown one."""
    if mode not in ("exact", "heuristic"):
        raise ExpansionError(f"unknown mode {mode!r}")
    if not c > 0:  # NaN fails too
        raise ExpansionError(f"threshold c must be positive, got {c}")
    return _check_weights(g, w)


def _seq_sum(x: np.ndarray) -> float:
    """Left-to-right sum; np.sum's pairwise order would change the last bits."""
    return float(np.add.accumulate(x)[-1]) if len(x) else 0.0


def _edge_terms(g: Graph, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoint arrays and the crossing term sqrt(w_u w_v) of every edge."""
    us, vs = g.edge_arrays()
    return us, vs, np.sqrt(w[us] * w[vs])


def _cut_value(
    w: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    sqrt_e: np.ndarray,
    in_s: np.ndarray,
) -> tuple[float, float, float]:
    """(crossing sum, w(S), w(V \\ S)) for the set marked by the boolean mask
    in_s, each summed sequentially in edge or node order."""
    num = _seq_sum(sqrt_e[in_s[us] != in_s[vs]])
    return num, _seq_sum(w[in_s]), _seq_sum(w[~in_s])


def _cut_values(
    w: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    sqrt_e: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_cut_value` for each row of a stack of boolean masks, bit for bit.
    Each sum runs left to right over all edges or all nodes, and the terms
    that do not belong enter as +0.0, which leaves a sum of nonnegative
    terms unchanged.  The terms are stacked terms-major, one row per edge
    or node and one column per mask, and np.add.reduce down the rows adds
    them row after row.  numpy sums pairwise only along the fast axis in
    memory, which the rows would become for a one-mask stack, so an empty
    mask is appended and its column dropped.  On 200,000 masks of 19 terms
    the sum takes about 2 ms, against 10 ms for np.add.accumulate.

    This serves the exact engine's batches (`_subset_phis`).  On one set,
    or a few, it is about twice as slow as `_cut_value`, so certification
    and the greedy moves sum one set at a time, and their certificates
    carry those cuts to the proof checks."""
    cols = np.zeros((len(w), len(rows) + 1), dtype=bool)
    cols[:, :-1] = rows.T
    num = np.where(cols[us] != cols[vs], sqrt_e[:, None], 0.0)
    w_s = np.where(cols, w[:, None], 0.0)
    w_rest = np.where(cols, 0.0, w[:, None])
    return tuple(np.add.reduce(x, axis=0)[:-1] for x in (num, w_s, w_rest))


def _mask_cut(
    w: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    sqrt_e: np.ndarray,
    in_s: np.ndarray,
) -> CutValue:
    """The cut of the masked set; its phi is inf where it is undefined."""
    num, w_s, w_rest = _cut_value(w, us, vs, sqrt_e, in_s)
    return CutValue(num, min(w_s, w_rest))


def phi(g: Graph, w: np.ndarray, S: Iterable[int]) -> CutValue:
    """Expansion of S; raises UndefinedCut unless 0 < w(S) < w(V).

    Both weights are summed directly in node order (w(V \\ S) is not taken
    as w(V) - w(S)) and the crossing terms in edge order, so
    phi(S) == phi(V \\ S) holds exactly in floating point.
    """
    w = _check_weights(g, w)
    in_s = np.zeros(g.n, dtype=bool)
    for i in S:
        i = int(i)
        if not 0 <= i < g.n:
            raise ExpansionError(f"node {i} outside [0,{g.n})")
        in_s[i] = True
    num, w_s, w_rest = _cut_value(w, *_edge_terms(g, w), in_s)
    if w_s <= 0 or w_rest <= 0:
        raise UndefinedCut(
            f"w(S)={w_s} must lie strictly between 0 and w(V)={w_s + w_rest}"
        )
    return CutValue(numerator=num, denominator=min(w_s, w_rest))


def _positive_terms(
    g: Graph, w: np.ndarray, pos: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weights, edge endpoints (as indices into `pos`) and crossing terms of
    the subgraph on the positive-weight nodes `pos`.  The kernel gives the
    same bits on these as on the whole graph: the nodes and edges left out
    only add +0.0 to its sums."""
    us, vs, sqrt_e = _edge_terms(g, w)
    local = np.full(g.n, -1)
    local[pos] = np.arange(len(pos))
    keep = (local[us] >= 0) & (local[vs] >= 0)
    return w[pos], local[us[keep]], local[vs[keep]], sqrt_e[keep]


def _phi_table(
    g: Graph, terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The half table: phi of every subset of the positive-weight nodes pos
    (whose `_positive_terms` are `terms`) that leaves out pos[0], with inf
    for the empty set; and a bound on the distance from each entry to the
    kernel's value of the same set.  Entry i is the set of bitmask 2i (bit
    j stands for pos[j]); its complement, the odd mask 2^p - 1 - 2i, has
    the same phi.

    The half table is built by doubling over the nodes of pos[1:], O(2^p)
    per pass: node j extends every mask m of the nodes before it by w_j,
    the weighted degree deg_j and t_j(m), the edge weight from node j into
    m.  The t_j are themselves rows of the doubling, one per node not yet
    added, and each row is dropped once it is used.  This gives w(S),
    dsum(S) and inner(S), the weight of the edges inside S, for every mask;
    then cut = dsum - 2*inner, and w(V \\ S) is w(pos[0]) plus the weight of
    the complementary mask, not w(V) - w(S).

    The bound is 8 gamma_K (dsum + 2 inner) / min(w(S), w(V \\ S)), plus an
    absolute term for underflow, with K = m + 2n + 2 counting every rounding
    that any sum on either side passes through.  The table's value and the
    kernel's each lie within about 3 gamma_K times that ratio of the exact
    phi of the same float edge terms.  The ratio has dsum + 2*inner, not
    cut, on top because dsum - 2*inner cancels.
    """
    w_pos, us, vs, sqrt_e = terms
    p = len(w_pos)
    A = np.zeros((p, p))
    A[us, vs] = sqrt_e
    A[vs, us] = sqrt_e

    # Rows: inner(m), w(m), dsum(m), then the edge weight from pos[j] into
    # m for j = p-1 down to 1, over the masks m of the free nodes pos[1:]
    # with pos[0] pinned outside S; free bit b stands for pos[b + 1].
    # Column b of `step` is what setting bit b adds to each row; inner gains
    # the row of pos[b + 1], the last one, which is then dropped.
    step = np.zeros((p + 2, p - 1))
    step[1] = w_pos[1:]
    step[2] = A[1:p].sum(axis=1)
    step[3:] = A[p - 1: 0: -1, 1:p]
    rows = np.zeros((p + 2, 1))
    for b in range(p - 1):
        t, rows = rows[-1], rows[:-1]
        rows = np.concatenate((rows, rows + step[: len(rows), b, None]), axis=1)
        rows[0, 1 << b:] += t
    inner, ws, dsum = rows
    two_inner = 2.0 * inner
    denom = np.minimum(ws, w_pos[0] + ws[::-1])
    denom[0] = np.inf  # the empty set; its entry is set to inf below
    half = (dsum - two_inner) / denom
    err = (dsum + two_inner) / denom * (8.0 * _gamma(g.m + 2 * g.n + 2))
    half[0], err[0] = np.inf, 0.0
    return half, err + _UNDERFLOW


def _subset_phis(
    terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    masks: np.ndarray,
) -> np.ndarray:
    """Kernel phi of each subset of the positive-weight nodes pos named by a
    bitmask, bit for bit the value `phi` gives; in blocks of rows so that
    memory stays bounded.  Every mask must name a nonempty set that leaves
    out pos[0], so that both weights are positive."""
    bits = np.arange(len(terms[0]))
    step = max(1, _BLOCK // (len(terms[0]) + len(terms[1]) + 1))
    out = np.empty(len(masks))
    for start in range(0, len(masks), step):
        rows = ((masks[start: start + step, None] >> bits) & 1).astype(bool)
        num, w_s, w_rest = _cut_values(*terms, rows)
        out[start: start + step] = num / np.minimum(w_s, w_rest)
    return out


def _exact_min_phi(g: Graph, w: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Minimum kernel phi over all bipartitions with 0 < w(S) < w(V), and
    the minimizing positive-weight set that leaves out the lowest
    positive-weight node and has the lowest mask among the minimizers.

    The table screens: no set's kernel value lies below its table value
    minus its bound, nor below 0, and the table's minimum plus its bound
    caps the answer.  The kernel evaluates the sets within that cap in
    ascending mask order, in blocks that grow by 4; after each block only
    the sets whose lower bound lies below the best kernel value found stay,
    since a later set can at most tie it and loses the tie on its mask.  A
    set at phi 0 therefore ends the search."""
    pos = [i for i in range(g.n) if w[i] > 0]
    if len(pos) < 2:
        raise UndefinedCut("fewer than two positive-weight nodes; no proper cut")
    terms = _positive_terms(g, w, pos)
    half, err = _phi_table(g, terms)
    lo = np.maximum(half - err, 0.0)
    i = int(np.argmin(half))
    cand = np.flatnonzero(lo <= half[i] + err[i])
    best, best_i, size = np.inf, -1, 64
    while len(cand):
        block, cand = cand[:size], cand[size:]
        vals = _subset_phis(terms, 2 * block)
        j = int(np.argmin(vals))  # the first, so the lowest mask, among minima
        if vals[j] < best:
            best, best_i = vals[j], int(block[j])
        cand = cand[lo[cand] < best]
        size *= 4
    witness = tuple(node for b, node in enumerate(pos) if 2 * best_i >> b & 1)
    return float(best), witness


def is_expander(g: Graph, w: np.ndarray, c: float, mode: str = "exact") -> ExpanderVerdict:
    """Decide whether every proper-weight cut has phi >= c.

    Exact mode screens the subset phi table over the positive-weight nodes
    (cap EXACT_BIPARTITION_CAP on their number) with its rounding bound, and
    re-evaluates by the kernel every set that could still be the minimum.
    `min_phi` is the kernel's minimum, so it equals phi(g, w, witness).phi
    bit for bit; the witness is the lowest mask among the kernel minima.
    It is a proof either way.  Heuristic mode runs sweep cuts and is a proof
    only when it finds a witness.
    """
    w = _check_search(g, w, c, mode)
    if float(w.sum()) <= 0:
        raise ExpansionError("total weight must be positive")
    n_pos = int(np.count_nonzero(w > 0))
    if n_pos < 2:
        # no proper cut exists: vacuously an expander
        return ExpanderVerdict(is_expander=True, c=c, witness=None, mode=mode)
    if mode == "exact":
        if n_pos > EXACT_BIPARTITION_CAP:
            raise ExactCapExceeded(
                f"{n_pos} positive-weight nodes exceed exact bipartition cap "
                f"{EXACT_BIPARTITION_CAP}"
            )
        min_phi, witness = _exact_min_phi(g, w)
        if min_phi < c:
            return ExpanderVerdict(False, c, witness, "exact", min_phi)
        return ExpanderVerdict(True, c, None, "exact", min_phi)
    best: tuple[float, tuple[int, ...]] | None = None
    for order in _candidate_orders(g, w):
        S, cut = sweep_cut(g, w, order)
        if best is None or cut.phi < best[0]:
            best = (cut.phi, S)
    # re-verify the witness by direct evaluation; an explicit test, since
    # `python -O` strips asserts
    if best is not None and best[0] < c and phi(g, w, best[1]).phi < c:
        return ExpanderVerdict(False, c, best[1], "heuristic", best[0])
    return ExpanderVerdict(True, c, None, "heuristic", best[0] if best else None)


def _fiedler_order(g: Graph, w: np.ndarray) -> list[int]:
    """Nodes sorted by the Fiedler vector of the Laplacian, positive-weight
    nodes first, index as final tie-break."""
    if g.n == 1:
        return [0]
    L = laplacian(g)
    _, vecs = np.linalg.eigh(L)
    f = vecs[:, 1]
    return sorted(range(g.n), key=lambda i: (w[i] <= 0, float(f[i]), i))


def _candidate_orders(g: Graph, w: np.ndarray) -> list[list[int]]:
    orders = [_fiedler_order(g, w)]
    orders.append(sorted(range(g.n), key=lambda i: (w[i] <= 0, -w[i], i)))
    orders.append(sorted(range(g.n), key=lambda i: (w[i] <= 0, i)))
    return orders


def sweep_cut(
    g: Graph, w: np.ndarray, order: Sequence[int]
) -> tuple[tuple[int, ...], CutValue]:
    """Best prefix of `order` by phi; ties go to the shorter prefix.

    `order` must be a permutation of the nodes with positive-weight nodes
    first.  Raises if the weights are all zero.
    """
    w = _check_weights(g, w)
    if float(w.sum()) <= 0:
        raise ExpansionError("all-zero weights")
    order = [int(i) for i in order]
    if sorted(order) != list(range(g.n)):
        raise ExpansionError("order is not a permutation of the nodes")
    seen_zero = False
    for i in order:
        if w[i] <= 0:
            seen_zero = True
        elif seen_zero:
            raise ExpansionError("positive-weight nodes must precede zero-weight ones")
    total = float(w.sum())
    best: tuple[float, int] | None = None
    w_s = 0.0
    in_s = np.zeros(g.n, dtype=bool)
    us, vs = g.edge_arrays()
    sqrt_e = np.sqrt(w[us] * w[vs]) if len(us) else np.zeros(0)
    for t, node in enumerate(order[:-1], start=1):
        in_s[node] = True
        w_s += float(w[node])
        if not 0 < w_s < total:
            continue
        num = float(sqrt_e[in_s[us] ^ in_s[vs]].sum()) if len(us) else 0.0
        val = num / min(w_s, total - w_s)
        if best is None or val < best[0]:
            best = (val, t)
    if best is None:
        raise UndefinedCut("no prefix with proper weight")
    S = tuple(sorted(order[: best[1]]))
    return S, phi(g, w, S)


def _largest_partition(qualifying: list[bool]) -> list[int]:
    """Masks of a largest partition of the full mask into qualifying masks,
    in order of their lowest bit; [] when there is none.

    best(m) is the largest number of qualifying masks that partition m, or
    -1 if none do.  The class holding m's lowest bit is chosen among the
    qualifying submasks of m with that bit, so each partition is tried once.
    """
    full = len(qualifying) - 1
    memo: dict[int, tuple[int, int]] = {0: (0, 0)}

    def best(m: int) -> int:
        hit = memo.get(m)
        if hit is not None:
            return hit[0]
        low = m & -m
        rest = m ^ low
        out, choice = -1, 0
        s = rest
        while True:  # every submask s of rest, the class being s | low
            q = s | low
            if qualifying[q]:
                r = best(m ^ q)
                if r >= 0 and r + 1 > out:
                    out, choice = r + 1, q
            if not s:
                break
            s = (s - 1) & rest
        memo[m] = (out, choice)
        return out

    if best(full) < 0:
        return []
    classes = []
    m = full
    while m:
        q = memo[m][1]
        classes.append(q)
        m ^= q
    return classes


def _qualifying(g: Graph, w: np.ndarray, pos: list[int], c: float) -> list[bool]:
    """Whether each subset of the positive-weight nodes `pos`, by bitmask,
    has kernel phi below c.  The table decides where its value lies further
    from c than its bound; the kernel decides every other set."""
    terms = _positive_terms(g, w, pos)
    half, err = _phi_table(g, terms)
    below = half < c
    near = np.flatnonzero(np.abs(half - c) <= err)
    if len(near):
        below[near] = _subset_phis(terms, 2 * near) < c
    # each complement, the odd mask 2^p - 1 - 2i, goes with its set 2i
    qualifying = np.empty(2 * len(below), dtype=bool)
    qualifying[0::2] = below
    qualifying[1::2] = below[::-1]
    return qualifying.tolist()


def _exact_partition(
    g: Graph, w: np.ndarray, c: float, k: int | None = None
) -> PartitionCertificate | None:
    """Certified partition into k classes of phi < c, or into as many as
    possible when k is None; None when fewer than max(k, 2) classes exist.

    A subset qualifies when its kernel phi is below c.  The table decides
    this wherever its value lies further from c than its rounding bound; the
    kernel decides the rest, so the DP works on kernel verdicts throughout.
    `_certify` re-checks each class by direct phi.  A class merged from DP
    classes can still reach c; the DP classes that make it up then leave
    the qualifying set and the DP runs again.
    """
    pos = [i for i in range(g.n) if w[i] > 0]
    if len(pos) > EXACT_SET_PARTITION_CAP:
        raise ExactCapExceeded(
            f"{len(pos)} positive-weight nodes exceed set-partition cap "
            f"{EXACT_SET_PARTITION_CAP}"
        )
    qualifying = _qualifying(g, w, pos, c)
    while True:
        found = _largest_partition(qualifying)
        if len(found) < (2 if k is None else k):
            return None
        masks = found
        if k is not None and k < len(found):
            # Merging keeps every phi below c.  For classes A, B whose union
            # is the lighter side, cut(A|B) <= cut(A) + cut(B) < c*w(A|B);
            # otherwise cut(A|B) = cut(rest) <= sum of cut(C_i) over the
            # classes C_i of the rest < c*w(rest).
            merged = 0
            for q in found[k - 1:]:
                merged |= q
            masks = found[: k - 1] + [merged]
        classes = [[node for j, node in enumerate(pos) if q >> j & 1] for q in masks]
        cert = _certify(g, w, _attach_zero_weight_nodes(g, w, classes), c)
        if cert.valid:
            return cert
        for q, val in zip(masks, cert.phis):
            if not val < c:
                for part in found:
                    if part & ~q == 0:
                        qualifying[part] = False


def _attach_zero_weight_nodes(
    g: Graph, w: np.ndarray, classes: list[list[int]]
) -> list[list[int]]:
    """Assign zero-weight nodes to the class of their lowest-index assigned
    neighbor (iterated); stragglers join the first class."""
    assign = {}
    for ci, cls in enumerate(classes):
        for i in cls:
            assign[i] = ci
    pending = [i for i in range(g.n) if i not in assign]
    changed = True
    while pending and changed:
        changed = False
        for i in list(pending):
            nbrs = [j for j in g.neighbors(i) if j in assign]
            if nbrs:
                assign[i] = assign[min(nbrs)]
                pending.remove(i)
                changed = True
    for i in pending:
        assign[i] = 0
    out: list[list[int]] = [[] for _ in classes]
    for i in sorted(assign):
        out[assign[i]].append(i)
    return out


def _certify(
    g: Graph, w: np.ndarray, classes: list[list[int]], c: float
) -> PartitionCertificate:
    """Re-verify a candidate partition by direct evaluation of its cuts."""
    covered = sorted(itertools.chain.from_iterable(classes))
    if covered != list(range(g.n)):
        raise ExpansionError("classes do not partition the node set")
    if len(classes) == 1:
        valid = float(w.sum()) > 0
        return PartitionCertificate(
            classes=(tuple(sorted(classes[0])),), cuts=(), c=c, valid=valid
        )
    terms = _edge_terms(g, w)
    cuts = []
    for cls in classes:
        in_s = np.zeros(g.n, dtype=bool)
        in_s[cls] = True
        cuts.append(_mask_cut(w, *terms, in_s))
    return _certificate(classes, cuts, c)


def _certificate(
    classes: list[list[int]], cuts: Sequence[CutValue], c: float
) -> PartitionCertificate:
    """The certificate of a partition into two or more classes whose kernel
    cuts are known."""
    return PartitionCertificate(
        classes=tuple(tuple(sorted(cls)) for cls in classes),
        cuts=tuple(cuts),
        c=c,
        valid=all(cut.phi < c for cut in cuts),
    )


def find_partition(
    g: Graph,
    w: np.ndarray,
    k: int,
    c: float,
    mode: str = "exact",
    budget: int = DEFAULT_BUDGET,
) -> PartitionCertificate | None:
    """Search for a partition into k positive-weight classes, each phi < c.

    k=1 is trivially valid (there is no cut to measure).  Exact mode finds
    a largest partition of the positive-weight nodes with the subset phi
    table and the submask DP (cap EXACT_SET_PARTITION_CAP), then merges its
    classes down to k; None is then a proof of non-partitionability.
    Heuristic mode draws k - 1 splits from a fresh split chain and runs the
    greedy moves from them; its None proves nothing.  Every returned
    certificate has been re-verified by direct phi evaluation.
    """
    w = _check_search(g, w, c, mode)
    if k < 1:
        raise ExpansionError(f"k must be at least 1, got {k}")
    if k == 1:
        if float(w.sum()) <= 0:
            return None
        return _certify(g, w, [list(range(g.n))], c)
    if int(np.count_nonzero(w > 0)) < k:
        return None
    if mode == "exact":
        return _exact_partition(g, w, c, k)
    classes = next(itertools.islice(_split_chain(g, w), k - 1, None), None)
    if classes is None:
        return None
    return _heuristic_partition(g, w, classes, c, budget)


def _split_chain(g: Graph, w: np.ndarray) -> Iterator[list[list[int]]]:
    """The classes of the positive-weight nodes after 0, 1, 2, ... splits,
    until no class can be split.  Each split cuts the heaviest class that a
    Fiedler sweep can split.  A split depends only on the class it cuts, so
    the classes after j splits are the same whichever k asks for them."""
    classes: list[list[int]] = [[i for i in range(g.n) if w[i] > 0]]
    while True:
        yield list(classes)
        order_idx = sorted(
            range(len(classes)),
            key=lambda ci: -float(sum(w[i] for i in classes[ci])),
        )
        for ci in order_idx:
            cls = classes[ci]
            if len(cls) < 2:
                continue
            sub = induced_subgraph(g, cls)
            w_sub = w[list(sub.to_parent)]
            try:
                order = _fiedler_order(sub.graph, w_sub)
                S, _ = sweep_cut(sub.graph, w_sub, order)
            except ExpansionError:
                continue
            part_a = list(sub.to_parent_set(S))
            classes[ci] = part_a
            classes.append(sorted(set(cls) - set(part_a)))
            break
        else:
            return


def _heuristic_partition(
    g: Graph, w: np.ndarray, classes: list[list[int]], c: float, budget: int
) -> PartitionCertificate | None:
    """Greedy single-node moves from the classes of a split chain, with the
    zero-weight nodes attached, until every class has phi < c or the budget
    of moves runs out.  A move changes two classes, whose kernel cuts it has
    computed, so the classes are certified by direct evaluation once, first."""
    full = _attach_zero_weight_nodes(g, w, classes)
    cert = _certify(g, w, full, c)
    steps = 0
    while not cert.valid and steps < budget:
        steps += 1
        cuts = _greedy_move(g, w, full, c, cert.cuts)
        if cuts is None:
            break
        cert = _certificate(full, cuts, c)
    return cert if cert.valid else None


def _moved_phi_floor(
    cut: np.ndarray,
    w_in: np.ndarray,
    w_out: np.ndarray,
    deg: np.ndarray,
    two_p: np.ndarray,
    w_a: np.ndarray,
    s: int,
    gamma: float,
) -> np.ndarray:
    """Lower bound on the kernel phi of a class once node a joins it (s = 1)
    or leaves it (s = -1), from the class's crossing sum `cut` and weights
    `w_in` = w(S), `w_out` = w(V \\ S), a's weighted degree `deg`, twice the
    weight `two_p` of a's edges into the class, and a's weight `w_a`.

    The new crossing sum is cut + s (deg - two_p), and the weights move by
    s w_a.  Each result lies within gamma (cut + deg + two_p), resp.
    gamma (w + w_a), of the exact sum of the same float terms, when gamma
    covers every rounding that its inputs and the step passed through; the
    bound takes twice that, which also absorbs the roundings of the bound
    itself.  The kernel's sums lie within gamma of the exact ones relatively
    and its division adds one rounding, so the quotient of the lowered
    crossing sum by the raised min weight, shrunk by 4 gamma and lowered by
    the underflow term, lies below the kernel's phi."""
    num = cut + s * (deg - two_p)
    num_lo = np.maximum(num - 2.0 * gamma * (cut + deg + two_p) - _UNDERFLOW, 0.0)
    den_hi = np.minimum(
        w_in + s * w_a + 2.0 * gamma * (w_in + w_a) + _UNDERFLOW,
        w_out - s * w_a + 2.0 * gamma * (w_out + w_a) + _UNDERFLOW,
    )
    return num_lo / den_hi * (1.0 - 4.0 * gamma) - _UNDERFLOW


def _greedy_move(
    g: Graph,
    w: np.ndarray,
    classes: list[list[int]],
    c: float,
    cuts: Sequence[CutValue],
) -> list[CutValue] | None:
    """Move one boundary node between classes if it lowers the worst phi.

    `classes` are sorted lists that partition the nodes, and `cuts` their
    kernel cuts, as `_certify` gives them.  Edges are scanned in order, each
    endpoint in turn, and the first move whose worst class phi falls
    strictly below the current worst, `base`, is made.  Mutates `classes`;
    returns the kernel cuts of the classes after the move, the same bits
    as `_certify` gives, or None when no move is made.

    Screen, then confirm.  Moving node a from class ca to class cb changes
    only the terms of a's incident edges, so from the per-node sums of
    sqrt(w_u w_v) by neighbour class (an n x k array) every trial's new
    crossing sums and weights cost O(1), and `_moved_phi_floor` gives a
    proven lower bound on the kernel phi of both classes it touches, with
    gamma_K after Higham (2002) and K = m + 2n + 8.  A trial whose bound,
    or another class's phi, reaches base cannot be accepted and is dropped.
    The kernel evaluates the rest in scan order and alone decides, so the
    move made is the one that evaluating every trial by the kernel would
    make."""
    us, vs, sqrt_e = terms = _edge_terms(g, w)
    k = len(classes)
    label = np.empty(g.n, dtype=int)
    for ci, cls in enumerate(classes):
        label[cls] = ci

    def class_cut(ci: int) -> CutValue:
        return _mask_cut(w, *terms, label == ci)

    phis = [cut.phi for cut in cuts]
    base = max(phis)

    # trials in scan order: edge by edge, the move of u to v's class, then
    # the move of v to u's class
    a_all = np.stack((us, vs), axis=1).ravel()
    ca_all = label[a_all]
    cb_all = label[np.stack((vs, us), axis=1).ravel()]
    size = np.array([len(cls) for cls in classes])
    live = np.flatnonzero((ca_all != cb_all) & (size[ca_all] > 1))
    a, ca, cb = a_all[live], ca_all[live], cb_all[live]

    lu, lv = label[us], label[vs]
    cross = lu != lv
    cut = np.bincount(lu[cross], sqrt_e[cross], k) + np.bincount(lv[cross], sqrt_e[cross], k)
    w_in = np.bincount(label, w, k)
    w_out = np.where(np.eye(k, dtype=bool), 0.0, w_in).sum(axis=1)
    n_in = np.bincount(label[w > 0], minlength=k)
    n_out = n_in.sum() - n_in
    by_class = np.bincount(us * k + lv, sqrt_e, g.n * k) + np.bincount(
        vs * k + lu, sqrt_e, g.n * k
    )
    deg = by_class.reshape(g.n, k).sum(axis=1)[a]
    w_a, pos_a = w[a], (w[a] > 0).astype(int)
    gamma = _gamma(g.m + 2 * g.n + 8)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        left = _moved_phi_floor(
            cut[ca], w_in[ca], w_out[ca], deg, 2.0 * by_class[a * k + ca], w_a, -1, gamma
        )
        joined = _moved_phi_floor(
            cut[cb], w_in[cb], w_out[cb], deg, 2.0 * by_class[a * k + cb], w_a, 1, gamma
        )
    # which trial classes keep 0 < w(S) < w(V) follows exactly from counts
    left = np.where((n_in[ca] > pos_a) & (n_out[ca] + pos_a > 0), left, np.inf)
    joined = np.where((n_in[cb] + pos_a > 0) & (n_out[cb] > pos_a), joined, np.inf)
    # the worst phi among the classes a trial leaves alone: the first of the
    # three largest that is neither ca nor cb
    ph = np.array(phis)
    others = np.full(len(a), -np.inf)
    for j in np.argsort(-ph, kind="stable")[:3][::-1]:
        others = np.where((ca != j) & (cb != j), ph[j], others)
    floor = np.maximum(np.maximum(left, joined), others)
    keep = np.flatnonzero(~(floor >= base))  # NaN stays for the kernel
    for t in keep:
        node, src, dst = int(a[t]), int(ca[t]), int(cb[t])
        label[node] = dst
        trial = list(cuts)
        trial[src], trial[dst] = class_cut(src), class_cut(dst)
        if max(cut.phi for cut in trial) < base:
            classes[src].remove(node)
            classes[dst].append(node)
            classes[dst].sort()
            return trial
        label[node] = src
    return None


def max_partitionable(
    g: Graph,
    w: np.ndarray,
    c: float,
    mode: str = "exact",
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, PartitionCertificate | None]:
    """Largest k with a valid (k,c)-partition under the given mode.

    (k,c)-partitionability is downward closed (merging two classes keeps
    every phi below c).  Exact mode reads the largest partition from one
    subset phi table and one submask DP.  Heuristic mode tries k = 1, 2, ...
    until the first failure, and so yields a lower bound rather than the
    true maximum.  It walks one split chain: the classes for k are those
    for k - 1 with one more split, and each k runs the greedy moves from
    them, so every certificate equals find_partition's for the same k.
    """
    w = _check_search(g, w, c, mode)
    n_pos = int(np.count_nonzero(w > 0))
    if mode == "exact" and n_pos >= 2:
        cert = _exact_partition(g, w, c)
        if cert is not None:
            return len(cert.classes), cert
    best_cert = find_partition(g, w, 1, c)
    if best_cert is None:
        return 0, None
    if mode == "exact" or n_pos < 2:
        return 1, best_cert
    best_k = 1
    # the chain's first entry, the unsplit support, is k = 1
    for k, classes in enumerate(itertools.islice(_split_chain(g, w), 1, None), start=2):
        cert = _heuristic_partition(g, w, classes, c, budget)
        if cert is None:
            break
        best_k, best_cert = k, cert
    return best_k, best_cert
