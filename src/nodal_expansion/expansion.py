"""Weighted expansion, expander verdicts, and (k,c)-partition search.

The expansion of a node subset S under nonnegative node weights w is

    phi(S) = sum over edges {i,j} crossing S of sqrt(w_i w_j)
             / min(w(S), w(V \\ S)),

defined whenever 0 < w(S) < w(V), that is, whenever S and V \\ S each
hold a positive-weight node.  The crossing sum runs over edges only; nodes
of zero weight contribute nothing to either side of the ratio, so exact
searches enumerate over the positive-weight nodes, and a sweep over an
order with the p positive-weight nodes first takes the prefixes of length
1 .. p - 1.

A search's input is checked once, where it enters: each public function
(`phi`, `sweep_cut`, `is_expander`, `find_partition`, `max_partitionable`)
checks its weights, a search its mode and threshold too, and builds one
`_Input` record of the checked weights, the edge endpoints, the crossing
terms sqrt(w_u w_v) and the positive-weight nodes.  Weights must be finite
and nonnegative, and w(V) and every edge's product w_u w_v must stay below
the largest float (about 1.8e308); beyond it a sum would overflow to inf
and phi read inf or NaN, so such weights raise.  Small weights have no
lower limit: a product that underflows rounds towards zero, as floats do.
The private steps take that record, check nothing again, and call no
public function; only `sweep_cut` checks a caller's order, and the
internal sweeps run on orders they built.  The record of a split-chain
class, and the exact engine's record of the positive-weight nodes, is cut
from the search's record by `_Input.induced` through
`graph.induced_subgraph`, the one place that restricts a graph's edges.

Every evaluation of phi (`phi` itself, certification, the sweep's
prefixes, the heuristic's greedy moves, the exact engine's confirmations)
follows one summation order on a boolean membership mask: w(S) and
w(V \\ S) are each summed in node-index order, the crossing terms in edge
order, all three strictly left to right.  `_mask_cut` does this for one
set; `_cut_values` does it for a stack of sets, with +0.0 in place of the
terms left out, which gives the same bits.  The last bits of phi therefore
do not depend on which caller asks, phi(S) == phi(V \\ S) holds exactly,
and the strict comparisons against c, between sweep prefixes and between
candidate moves are reproducible.  A `PartitionCertificate` carries each
class's cut (`CutValue`) as certified, and the proof checks read those cuts
instead of summing them again.  Wherever many sets are in play, a cheaper
arithmetic screens them first with a proven rounding bound, and the kernel
confirms: the exact engine's table (below) and the heuristic's greedy
moves, whose trials are all screened at once from per-node sums by
neighbour class.  A sweep's p - 1 prefixes all go to the kernel.

Heuristic mode splits a support and then moves single nodes between
classes.  A class whose induced graph is disconnected sheds its lightest
component, a cut of phi 0 that needs no eigensolve; a connected one is cut
along the sweep of its Fiedler vector, which `laplacian_decomposition`
gives.  The splits form one chain per support, the classes after 0, 1,
2, ... splits, so `max_partitionable` walks the chain once for k = 1, 2, ...
and `find_partition` draws k - 1 splits from it.  The chain splits a
support into its components first, so heuristic a and b are at least the
nodal-domain counts of y_k's sign supports, as exact a and b are.

Exact mode rests on one table: phi of every subset of the p positive-weight
nodes.  Bit j takes the masks [2^j, 2^(j+1)) from the masks [0, 2^j) by
adding w_j, the weighted degree deg_j, and t_j(m), the edge weight from
node j into m; then cut = dsum - 2*inner.  Up to 13 nodes the whole table
is built by this doubling.  Above that the doubling covers only the low
half of the nodes, and the high half goes in at once, by one product of
the high masks' bit matrix with the rows t_j of the low masks (the split of
Horowitz and Sahni, J. ACM 21, 1974).  Next to each entry the table carries
a rounding bound, after the gamma_k bounds of Higham (Accuracy and
Stability of Numerical Algorithms, 2002), that covers both its own
arithmetic, either way, and the kernel's sequential sums.  Table values only
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
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graph import Graph, _adjacency, connected_components, induced_subgraph
from .spectral import _gamma, laplacian_decomposition

EXACT_BIPARTITION_CAP = 20
EXACT_SET_PARTITION_CAP = 12
# the heuristic's greedy moves stop after this many moves per partition
GREEDY_MOVE_CAP = 1000
MODES = ("exact", "heuristic")

# weights up to this bound pass `_Input.checked` in one pass: no product
# w_u w_v of two of them reaches the largest float, and no sum of them does
_NO_OVERFLOW = 1e154
# an absolute term for the divisions, whose results may fall into gradual
# underflow
_UNDERFLOW = 4 * np.finfo(float).smallest_subnormal
# the kernel runs on blocks of at most this many mask-by-node or mask-by-edge
# entries
_BLOCK = 1 << 22
# the half table of more free nodes than this is built by the split, not
# by doubling alone (`_phi_table`)
_SPLIT_ABOVE = 12


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


@dataclass(frozen=True, eq=False)
class _Input:
    """What a search knows about its input (g, w): the checked weights, the
    edge endpoints in edge order, each edge's crossing term sqrt(w_u w_v),
    and the positive-weight nodes in ascending order.  `checked` builds a
    record from a caller's weights and `induced` one from another record,
    whose weights were checked already, both through `_of`, so the weights
    of a record are always checked and its terms formed once."""

    g: Graph
    w: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    sqrt_e: np.ndarray
    pos: list[int]

    @classmethod
    def checked(
        cls, g: Graph, w: np.ndarray, c: float | None = None, mode: str | None = None
    ) -> _Input:
        """The record of a caller's (g, w).  A search also names its
        threshold c and its mode, which are checked too, the mode first, so
        that no input returns early with an unknown one."""
        if mode is not None and mode not in MODES:
            raise ExpansionError(f"unknown mode {mode!r}")
        if c is not None and not 0 < c < np.inf:  # NaN fails too
            raise ExpansionError(f"threshold c must be positive and finite, got {c}")
        w = np.asarray(w, dtype=float) + 0.0  # -0.0 becomes +0.0: no sum takes its sign
        if w.shape != (g.n,):
            raise ExpansionError(f"weights shape {w.shape} does not match n={g.n}")
        us, vs = g.edge_arrays()
        # one pass, as cheap as a sign test alone, clears the usual weights;
        # NaN fails both comparisons and goes to the full check
        if not ((w >= 0) & (w <= _NO_OVERFLOW)).all():
            _check_large_weights(w, us, vs)
        return cls._of(g, w)

    @classmethod
    def _of(cls, g: Graph, w: np.ndarray) -> _Input:
        """The record of (g, w) for weights that are checked already."""
        us, vs = g.edge_arrays()
        return cls(g, w, us, vs, np.sqrt(w[us] * w[vs]), np.flatnonzero(w > 0).tolist())

    def induced(self, nodes: list[int]) -> _Input:
        """The record of `induced_subgraph` on the ascending `nodes`, or the
        record itself when they are every node.  Its terms are the parent's
        of the kept edges, bit for bit, so on the positive-weight nodes the
        kernel gives the bits it gives on the parent, whose other terms add
        only +0.0 to its sums."""
        if len(nodes) == self.g.n:
            return self
        return _Input._of(induced_subgraph(self.g, nodes).graph, self.w[nodes])

    def mask(self, nodes: Iterable[int]) -> np.ndarray:
        """The boolean membership mask of `nodes`."""
        in_s = np.zeros(self.g.n, dtype=bool)
        in_s[list(nodes)] = True
        return in_s


def _check_large_weights(w: np.ndarray, us: np.ndarray, vs: np.ndarray) -> None:
    """Raise unless the weights are finite and nonnegative, and w(V), summed
    as the kernel sums it, and every edge's w_u w_v stay below the largest
    float."""
    if not ((w >= 0) & (w < np.inf)).all():
        raise ExpansionError("weights must be finite and nonnegative")
    with np.errstate(over="ignore"):
        overflow = _seq_sum(w) == np.inf or (w[us] * w[vs] == np.inf).any()
    if overflow:
        raise ExpansionError(
            f"w(V) and every edge's w_u w_v must stay below {np.finfo(float).max:.6g}, "
            "the largest float"
        )


def _seq_sum(x: np.ndarray) -> float:
    """Left-to-right sum; np.sum's pairwise order would change the last bits."""
    return float(np.add.accumulate(x)[-1]) if len(x) else 0.0


def _mask_cut(x: _Input, in_s: np.ndarray, proper: bool = False) -> CutValue:
    """The kernel cut of the set marked by the boolean mask in_s: the
    crossing sum, w(S) and w(V \\ S), each summed sequentially in edge or
    node order.  Its phi is inf where the cut is undefined; with `proper`,
    an undefined cut raises UndefinedCut instead."""
    num = _seq_sum(x.sqrt_e[in_s[x.us] != in_s[x.vs]])
    w_s, w_rest = _seq_sum(x.w[in_s]), _seq_sum(x.w[~in_s])
    if proper and (w_s <= 0 or w_rest <= 0):
        raise UndefinedCut(
            f"w(S)={w_s} must lie strictly between 0 and w(V)={w_s + w_rest}"
        )
    return CutValue(num, min(w_s, w_rest))


def _cut_values(x: _Input, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_mask_cut`'s sums for each row of a stack of boolean masks, bit for bit.
    Each sum runs left to right over all edges or all nodes, and the terms
    that do not belong enter as +0.0, which leaves a sum of nonnegative
    terms unchanged.  The terms are stacked terms-major, one row per edge
    or node and one column per mask, and np.add.reduce down the rows adds
    them row after row.  numpy sums pairwise only along the fast axis in
    memory, which the rows would become for a one-mask stack, so an empty
    mask is appended and its column dropped.  On 200,000 masks of 19 terms
    the sum takes about 2 ms, against 10 ms for np.add.accumulate.

    This serves the exact engine's batches (`_subset_phis`) and the
    sweep's prefixes (`_sweep`).  On one set, or a few, it is about twice
    as slow as `_mask_cut`, so certification and the greedy moves sum one
    set at a time, and their certificates carry those cuts to the proof
    checks."""
    cols = np.zeros((x.g.n, len(rows) + 1), dtype=bool)
    cols[:, :-1] = rows.T
    num = np.where(cols[x.us] != cols[x.vs], x.sqrt_e[:, None], 0.0)
    w_s = np.where(cols, x.w[:, None], 0.0)
    w_rest = np.where(cols, 0.0, x.w[:, None])
    return tuple(np.add.reduce(x, axis=0)[:-1] for x in (num, w_s, w_rest))


def phi(g: Graph, w: np.ndarray, S: Iterable[int]) -> CutValue:
    """Expansion of S; raises UndefinedCut unless 0 < w(S) < w(V).

    Both weights are summed directly in node order (w(V \\ S) is not taken
    as w(V) - w(S)) and the crossing terms in edge order, so
    phi(S) == phi(V \\ S) holds exactly in floating point.
    """
    x = _Input.checked(g, w)
    in_s = np.zeros(g.n, dtype=bool)
    for i in S:
        i = int(i)
        if not 0 <= i < g.n:
            raise ExpansionError(f"node {i} outside [0,{g.n})")
        in_s[i] = True
    return _mask_cut(x, in_s, proper=True)


@lru_cache(maxsize=None)
def _bit_matrix(bits: int) -> np.ndarray:
    """Read-only 0/1 matrix of shape (2^bits, bits): row M holds the bits
    of M, bit k in column k."""
    out = ((np.arange(1 << bits)[:, None] >> np.arange(bits)) & 1).astype(float)
    out.flags.writeable = False
    return out


def _phi_table(g: Graph, y: _Input) -> tuple[np.ndarray, np.ndarray]:
    """The half table: phi of every subset of the positive-weight nodes pos
    of (g, w), whose induced record is `y`, that leaves out pos[0], with inf
    for the empty set; and a bound on the distance from each entry to the
    kernel's value of the same set.  Entry i is the set of bitmask 2i (bit
    j stands for pos[j]); its complement, the odd mask 2^p - 1 - 2i, has
    the same phi.

    The f = p - 1 free nodes pos[1:] are added by doubling, O(2^f) per
    pass: node j extends every mask m of the nodes before it by w_j, the
    weighted degree deg_j and t_j(m), the edge weight from node j into m.
    The t_j are themselves rows of the doubling, one per node not yet
    added, and each row is dropped once it is used.  This gives w(S),
    dsum(S) and inner(S), the weight of the edges inside S, for every mask;
    then cut = dsum - 2*inner, and w(V \\ S) is w(pos[0]) plus the weight of
    the complementary mask, not w(V) - w(S).

    Above _SPLIT_ABOVE free nodes, each doubling pass would carry every row
    through the whole table, so the doubling stops after the low h = f // 2
    free nodes (Horowitz and Sahni's split, J. ACM 21, 1974).  Its rows then
    hold inner, w and dsum of every low mask L, and t_j(L) for each high
    node j, stacked as T.  A set is a high mask H and a low mask L, entry
    i = H 2^h + L, and the high nodes go in at once:
    inner(H | L) = (B T)[H, L] + inner(H) + inner(L), with B the 0/1 matrix
    of the high masks' bits (`_bit_matrix`), and w and dsum are outer sums
    of a high part and a low part.  The high parts are B times the high
    nodes' weights, degrees and upper-triangle edge weights, each edge
    inside H counted once.

    The bound is 8 gamma_K (dsum + 2 inner) / min(w(S), w(V \\ S)), plus an
    absolute term for underflow, with K = m + 2n + 2 counting every rounding
    that any sum on either side passes through.  The table's value and the
    kernel's each lie within about 3 gamma_K times that ratio of the exact
    phi of the same float edge terms.  The ratio has dsum + 2*inner, not
    cut, on top because dsum - 2*inner cancels.

    The split keeps this bound, with the same K.  inner, w and dsum are
    still sums of nonnegative float terms, and such a sum, in any order and
    grouping, lies within gamma_d of its exact value, where d is the most
    additions that any one term passes through.  A product with B only
    picks terms, since 0 t = 0 and 1 t = t exactly, so neither the order of
    the BLAS product nor a fused multiply-add adds a rounding of its own.
    An edge term of inner passes through at most h + 2 additions when both
    ends are low (inner(L), then the two sums), h + (f - h - 1) + 2 when one
    is (t_j(L), the product, the two sums), and 2 (f - h - 1) + 2 when none
    is (the two reductions of inner(H), with f - h <= (f + 1) / 2, then the
    two sums); w and dsum pass through fewer.  So d <= f + 1 = p <= K.
    """
    w_pos, us, vs, sqrt_e = y.w, y.us, y.vs, y.sqrt_e
    p = len(w_pos)
    A = np.zeros((p, p))
    A[us, vs] = sqrt_e
    A[vs, us] = sqrt_e
    deg = A.sum(axis=1)
    f = p - 1
    h = f if f <= _SPLIT_ABOVE else f // 2

    # Rows: inner(m), w(m), dsum(m), then the edge weight from pos[j] into
    # m for j = p-1 down to 1, over the masks m of the free nodes pos[1:]
    # with pos[0] pinned outside S; free bit b stands for pos[b + 1].
    # Column b of `step` is what setting bit b adds to each row; inner gains
    # the row of pos[b + 1], the last one, which is then dropped.
    step = np.zeros((p + 2, f))
    step[1] = w_pos[1:]
    step[2] = deg[1:]
    step[3:] = A[p - 1: 0: -1, 1:p]
    rows = np.zeros((p + 2, 1))
    for b in range(h):
        t, rows = rows[-1], rows[:-1]
        rows = np.concatenate((rows, rows + step[: len(rows), b, None]), axis=1)
        rows[0, 1 << b:] += t
    inner, ws, dsum = rows[:3]
    if h < f:
        high = slice(h + 1, p)
        bits = _bit_matrix(f - h)
        sums = bits @ np.column_stack((np.triu(A[high, high]), w_pos[high], deg[high]))
        inner_high = np.einsum("ij,ij->i", sums[:, : f - h], bits)
        # rows[3:] holds t_j for j = p-1 down to h+1, so reversed it lines
        # up with the bits of B
        cross = bits @ rows[:2:-1]
        cross += inner_high[:, None]
        cross += inner
        inner = cross.ravel()
        ws = np.add.outer(sums[:, -2], ws).ravel()
        dsum = np.add.outer(sums[:, -1], dsum).ravel()
    inner *= 2.0  # now 2*inner, exactly
    denom = ws[::-1] + w_pos[0]
    np.minimum(ws, denom, out=denom)
    denom[0] = np.inf  # the empty set; its entry is set to inf below
    half = np.subtract(dsum, inner, out=ws)  # w(S) is read no more
    half /= denom
    err = np.add(dsum, inner, out=dsum)
    err /= denom
    err *= 8.0 * _gamma(g.m + 2 * g.n + 2)
    half[0], err[0] = np.inf, 0.0
    err += _UNDERFLOW
    return half, err


def _subset_phis(y: _Input, masks: np.ndarray) -> np.ndarray:
    """Kernel phi of each subset of the positive-weight nodes pos, whose
    record is `y`, named by a bitmask, bit for bit the value `phi` gives; in
    blocks of rows so that memory stays bounded.  Every mask must name a
    nonempty set that leaves out pos[0], so that both weights are positive."""
    bits = np.arange(y.g.n)
    step = max(1, _BLOCK // (y.g.n + y.g.m + 1))
    out = np.empty(len(masks))
    for start in range(0, len(masks), step):
        rows = ((masks[start: start + step, None] >> bits) & 1).astype(bool)
        num, w_s, w_rest = _cut_values(y, rows)
        out[start: start + step] = num / np.minimum(w_s, w_rest)
    return out


def _exact_min_phi(x: _Input) -> tuple[float, tuple[int, ...]]:
    """Minimum kernel phi over all bipartitions with 0 < w(S) < w(V), and
    the minimizing positive-weight set that leaves out the lowest
    positive-weight node and has the lowest mask among the minimizers; for
    two or more positive-weight nodes.

    The table screens: no set's kernel value lies below its table value
    minus its bound, nor below 0, and the table's minimum plus its bound
    caps the answer.  The kernel evaluates the sets within that cap in
    ascending mask order, in blocks that grow by 4; after each block only
    the sets whose lower bound lies below the best kernel value found stay,
    since a later set can at most tie it and loses the tie on its mask.  A
    set at phi 0 therefore ends the search."""
    y = x.induced(x.pos)
    half, err = _phi_table(x.g, y)
    i = int(np.argmin(half))
    cap = half[i] + err[i]
    # each set's lower bound, in place of its bound; the floor at 0 is left
    # out, since cap >= 0 and a best value of 0 ends the search anyway
    lo = np.subtract(half, err, out=err)
    cand = np.flatnonzero(lo <= cap)
    best, best_i, size = np.inf, -1, 64
    while len(cand):
        block, cand = cand[:size], cand[size:]
        vals = _subset_phis(y, 2 * block)
        j = int(np.argmin(vals))  # the first, so the lowest mask, among minima
        if vals[j] < best:
            best, best_i = vals[j], int(block[j])
        if best == 0:
            break
        cand = cand[lo[cand] < best]
        size *= 4
    witness = tuple(node for b, node in enumerate(x.pos) if 2 * best_i >> b & 1)
    return float(best), witness


def is_expander(g: Graph, w: np.ndarray, c: float, mode: str = "exact") -> ExpanderVerdict:
    """Decide whether every proper-weight cut has phi >= c.

    Exact mode screens the subset phi table over the positive-weight nodes
    (cap EXACT_BIPARTITION_CAP on their number) with its rounding bound, and
    re-evaluates by the kernel every set that could still be the minimum.
    `min_phi` is the kernel's minimum, so it equals phi(g, w, witness).phi
    bit for bit; the witness is the lowest mask among the kernel minima.
    It is a proof either way.  Heuristic mode takes the lowest of three
    sweeps, each scored by the kernel, so its `min_phi` is the kernel phi
    of the best prefix, the witness when that falls below c; it is a proof
    only when it finds a witness.
    """
    x = _Input.checked(g, w, c, mode)
    if not x.pos:
        raise ExpansionError("total weight must be positive")
    if len(x.pos) < 2:
        # no proper cut exists: vacuously an expander
        return ExpanderVerdict(is_expander=True, c=c, witness=None, mode=mode)
    if mode == "exact":
        if len(x.pos) > EXACT_BIPARTITION_CAP:
            raise ExactCapExceeded(
                f"{len(x.pos)} positive-weight nodes exceed exact bipartition cap "
                f"{EXACT_BIPARTITION_CAP}"
            )
        min_phi, witness = _exact_min_phi(x)
        if min_phi < c:
            return ExpanderVerdict(False, c, witness, "exact", min_phi)
        return ExpanderVerdict(True, c, None, "exact", min_phi)
    # the first of the lowest sweep cuts, each summed by the kernel
    S, cut = min((_sweep(x, order) for order in _candidate_orders(x)), key=lambda r: r[1].phi)
    if cut.phi < c:
        return ExpanderVerdict(False, c, S, "heuristic", cut.phi)
    return ExpanderVerdict(True, c, None, "heuristic", cut.phi)


def _fiedler_order(x: _Input) -> list[int]:
    """Nodes sorted by the Fiedler vector y_2 of the Laplacian, positive-weight
    nodes first, index as final tie-break.

    y_2 is `laplacian_decomposition(g, 2)`'s, so g's kept spectrum serves
    it and spectral.py picks the route: below INDEX_MIN_ORDER the full
    eigh, and from there on the index route, inverse iteration, unless
    lambda_2 is repeated (always so on a disconnected graph) or the
    iteration misses its bound.  The index route's y_2 may have the other
    sign, which reverses the positive-weight nodes' order; a sweep's
    prefixes are then the complements of the same cuts."""
    if x.g.n == 1:
        return [0]
    f = laplacian_decomposition(x.g, 2).vector(2)
    return np.lexsort((np.arange(x.g.n), f, x.w <= 0)).tolist()


def _candidate_orders(x: _Input) -> list[list[int]]:
    index, zero = np.arange(x.g.n), x.w <= 0
    heaviest, by_index = np.lexsort((index, -x.w, zero)), np.lexsort((index, zero))
    return [_fiedler_order(x), heaviest.tolist(), by_index.tolist()]


def sweep_cut(
    g: Graph, w: np.ndarray, order: Sequence[int]
) -> tuple[tuple[int, ...], CutValue]:
    """Best proper prefix of `order` by kernel phi; ties go to the shorter
    prefix.

    `order` must be a permutation of the nodes with positive-weight nodes
    first, so the proper prefixes are those of length 1 .. p - 1, p the
    number of positive weights.  Raises if the weights are all zero, or if
    only one is positive and no prefix is proper.
    """
    x = _Input.checked(g, w)
    if not x.pos:
        raise ExpansionError("all-zero weights")
    order = [int(i) for i in order]
    if sorted(order) != list(range(g.n)):
        raise ExpansionError("order is not a permutation of the nodes")
    if not (x.w[order[: len(x.pos)]] > 0).all():
        raise ExpansionError("positive-weight nodes must precede zero-weight ones")
    if len(x.pos) < 2:
        raise UndefinedCut("no prefix with proper weight")
    return _sweep(x, order)


def _sweep(x: _Input, order: list[int]) -> tuple[tuple[int, ...], CutValue]:
    """`sweep_cut` on a record with two or more positive weights, for an
    order that is a permutation of its nodes with the positive-weight nodes
    first.  The prefixes of length 1 .. p - 1 each leave a positive-weight
    node on both sides, and `_cut_values` gives their kernel cuts, in blocks
    of rows; the first of the lowest phis wins, and its cut is the one that
    call summed."""
    rank = np.empty(x.g.n, dtype=int)
    rank[order] = np.arange(x.g.n)
    lengths = np.arange(1, len(x.pos))[:, None]
    step = max(1, _BLOCK // (x.g.n + x.g.m + 1))
    blocks = []
    for start in range(0, len(lengths), step):
        blocks.append(_cut_values(x, rank < lengths[start: start + step]))
    num, w_s, w_rest = (np.concatenate(sums) for sums in zip(*blocks))
    den = np.minimum(w_s, w_rest)
    # the first, so the shortest prefix, among minima
    t = int(np.argmin(num / den))
    return tuple(sorted(order[: t + 1])), CutValue(float(num[t]), float(den[t]))


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


def _qualifying(x: _Input, c: float) -> list[bool]:
    """Whether each subset of the positive-weight nodes, by bitmask, has
    kernel phi below c.  The table decides where its value lies further
    from c than its bound; the kernel decides every other set."""
    y = x.induced(x.pos)
    half, err = _phi_table(x.g, y)
    below = half < c
    near = np.flatnonzero(np.abs(half - c) <= err)
    if len(near):
        below[near] = _subset_phis(y, 2 * near) < c
    # each complement, the odd mask 2^p - 1 - 2i, goes with its set 2i
    qualifying = np.empty(2 * len(below), dtype=bool)
    qualifying[0::2] = below
    qualifying[1::2] = below[::-1]
    return qualifying.tolist()


def _exact_partition(
    x: _Input, c: float, k: int | None = None
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
    pos = x.pos
    if len(pos) > EXACT_SET_PARTITION_CAP:
        raise ExactCapExceeded(
            f"{len(pos)} positive-weight nodes exceed set-partition cap "
            f"{EXACT_SET_PARTITION_CAP}"
        )
    qualifying = _qualifying(x, c)
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
        cert = _certify(x, _attach_zero_weight_nodes(x, classes), c)
        if cert.valid:
            return cert
        for q, val in zip(masks, cert.phis):
            if not val < c:
                for part in found:
                    if part & ~q == 0:
                        qualifying[part] = False


def _attach_zero_weight_nodes(x: _Input, classes: list[list[int]]) -> list[list[int]]:
    """Assign zero-weight nodes to the class of their lowest-index assigned
    neighbor, in passes over the pending nodes in ascending order, each
    seeing what the pass assigned before it, until a pass assigns none;
    stragglers join the first class."""
    assign = [-1] * x.g.n
    for ci, cls in enumerate(classes):
        for i in cls:
            assign[i] = ci
    pending = [i for i, ci in enumerate(assign) if ci < 0]
    if pending:  # zero-weight nodes only; a sign support has none
        adj = _adjacency(x.g)
    while pending:
        left = []
        for i in pending:
            nbrs = [j for j in adj[i] if assign[j] >= 0]
            if nbrs:
                assign[i] = assign[min(nbrs)]
            else:
                left.append(i)
        if len(left) == len(pending):
            break
        pending = left
    for i in pending:
        assign[i] = 0
    out: list[list[int]] = [[] for _ in classes]
    for i, ci in enumerate(assign):
        out[ci].append(i)
    return out


def _certify(x: _Input, classes: list[list[int]], c: float) -> PartitionCertificate:
    """Re-verify a candidate partition into two or more classes by direct
    evaluation of its cuts."""
    covered = sorted(itertools.chain.from_iterable(classes))
    if covered != list(range(x.g.n)):
        raise ExpansionError("classes do not partition the node set")
    return _certificate(classes, [_mask_cut(x, x.mask(cls)) for cls in classes], c)


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


def _whole(x: _Input, c: float) -> PartitionCertificate | None:
    """The k = 1 certificate, one class with no cut to measure; None when
    every weight is zero."""
    if not x.pos:
        return None
    return PartitionCertificate(classes=(tuple(range(x.g.n)),), cuts=(), c=c, valid=True)


def find_partition(
    g: Graph,
    w: np.ndarray,
    k: int,
    c: float,
    mode: str = "exact",
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
    x = _Input.checked(g, w, c, mode)
    if k < 1:
        raise ExpansionError(f"k must be at least 1, got {k}")
    if k == 1:
        return _whole(x, c)
    if len(x.pos) < k:
        return None
    if mode == "exact":
        return _exact_partition(x, c, k)
    classes = next(itertools.islice(_split_chain(x), k - 1, None), None)
    if classes is None:
        return None
    return _heuristic_partition(x, classes, c)


def _split_chain(x: _Input) -> Iterator[list[list[int]]]:
    """The classes of the positive-weight nodes after 0, 1, 2, ... splits,
    until every class is a single node.  Each split cuts the heaviest class
    of two or more nodes, the first among equals.  When the graph induced
    on that class is disconnected, its lightest component, the first among
    equals in `connected_components` order, is split off: no eigensolve
    and no sweep.  Each component boundary is a cut of phi 0, so this is a
    best sweep cut of any order of the (repeated) null space, and it does
    not hang on the basis LAPACK picks for it.  A connected class is cut
    along its Fiedler sweep.  Either way the part split off takes the
    class's index and the rest is appended.  A split depends only on the
    class it cuts, so the classes after j splits are the same whichever k
    asks for them.

    So a support whose induced graph has r components, its nodal domains
    when the support is a sign support of y_k, is split into them first.
    Until then exactly one class, the last, holds two or more components,
    and every other class is one component peeled from a superset of it,
    the lightest there.  The last class thus holds at least two components,
    each as heavy as any peeled one, and it is strictly the heaviest: a
    float sum of positive weights lies within a relative gamma_n of the
    exact sum, far from half its value.  After r - 1 splits the classes
    are the r components, each of phi 0 < c, and every class after fewer
    splits is a union of components, of phi 0 too.  Heuristic
    `max_partitionable` therefore reaches k = r at least."""
    classes: list[list[int]] = [list(x.pos)]
    while True:
        yield list(classes)
        ci = max(
            (ci for ci, cls in enumerate(classes) if len(cls) >= 2),
            key=lambda ci: _seq_sum(x.w[classes[ci]]),
            default=None,
        )
        if ci is None:
            return
        cls = classes[ci]
        y = x.induced(cls)
        parts = connected_components(y.g)
        if len(parts) > 1:
            S = min(parts, key=lambda part: _seq_sum(y.w[part]))
        else:
            S, _ = _sweep(y, _fiedler_order(y))
        classes[ci] = sorted(cls[i] for i in S)
        classes.append(sorted(set(cls) - set(classes[ci])))


def _heuristic_partition(
    x: _Input, classes: list[list[int]], c: float
) -> PartitionCertificate | None:
    """Greedy single-node moves from the classes of a split chain, with the
    zero-weight nodes attached, until every class has phi < c or
    GREEDY_MOVE_CAP moves have been made.  A move changes two classes, whose
    kernel cuts it has computed, so the classes are certified by direct
    evaluation once, first."""
    full = _attach_zero_weight_nodes(x, classes)
    cert = _certify(x, full, c)
    steps = 0
    while not cert.valid and steps < GREEDY_MOVE_CAP:
        steps += 1
        cuts = _greedy_move(x, full, cert.cuts)
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
    x: _Input, classes: list[list[int]], cuts: Sequence[CutValue]
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
    g, w, us, vs, sqrt_e = x.g, x.w, x.us, x.vs, x.sqrt_e
    k = len(classes)
    label = np.empty(g.n, dtype=int)
    for ci, cls in enumerate(classes):
        label[cls] = ci

    def class_cut(ci: int) -> CutValue:
        return _mask_cut(x, label == ci)

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
    n_in = np.bincount(label[x.pos], minlength=k)
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
    x = _Input.checked(g, w, c, mode)
    if mode == "exact" and len(x.pos) >= 2:
        cert = _exact_partition(x, c)
        if cert is not None:
            return len(cert.classes), cert
    best_cert = _whole(x, c)
    if best_cert is None:
        return 0, None
    if mode == "exact":
        return 1, best_cert
    best_k = 1
    # the chain's first entry, the unsplit support, is k = 1
    for k, classes in enumerate(itertools.islice(_split_chain(x), 1, None), start=2):
        cert = _heuristic_partition(x, classes, c)
        if cert is None:
            break
        best_k, best_cert = k, cert
    return best_k, best_cert
