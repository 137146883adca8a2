"""Proof-object construction and mechanical verification of the nodal
expansion theorem.

Given an eigenvector y of the k-th Laplacian eigenvalue, weights w = y^2,
and the half-gap c = (lambda_{k+1} - lambda_k)/2, the theorem bounds the
partition counts of the positive and negative support subgraphs: if the
positive side splits into a classes of expansion < c and the negative side
into b such classes, then a + b <= k.

Every step of the argument is rebuilt numerically and checked with an
explicit tolerance and slack:

  * M = L - lambda_k I annihilates y;
  * the class-restricted unit vectors give a Gram-style matrix
    B_ij = <y_hat^i, M y_hat^j> with a forced sign pattern and B z = 0;
  * interlacing: lambda_i - lambda_k <= mu_i for B's spectrum mu;
  * the comparison matrix C (same-side off-diagonals of B, diagonals chosen
    so C z = 0) has diagonal entries bounded by per-class expansions;
  * C - B is diagonally dominant after symmetric scaling by diag(z), hence
    positive semidefinite, so mu_max <= lambda_max(C);
  * lambda_max(C) < 2c whenever every class expansion is below c.

The proof is a function of (g, k) and the two partitions alone.  Each call
takes one eigen-split (`EigenSplit`) of g, which decomposes laplacian(g)
once and holds the selected pair, w, c, the tolerance, the gap rule (the
degenerate-gap verdict and the search threshold), the sign support, and
each side's induced subgraph with its weights, built on first use.
Each class's cut in its side's subgraph is summed once and kept in
`ProofObjects.cuts`: `verify_theorem1` takes the cuts its search's
certificates carry, and `build_proof_objects` checks each side's weights
once and evaluates the caller's classes there by the cut kernel, the bits
`phi` gives.

`build_proof_objects` builds C with B when there are two or more classes.
Every check takes the proof objects alone: the spectrum is `p.spectrum`,
and each class's expansion and cut come from `p.cuts` (`class_expansions`).
`run_checks` runs the checks: B's sign pattern, B z = 0 and interlacing;
with a + b >= 2, C's diagonal and C - B PSD; lambda_max(C) < 2c if k < n
and every class expansion is below c; prop-sum if a + b = k + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import expansion as xp
from .graph import Graph, InducedSubgraph, induced_subgraph, laplacian
from .graph import laplacian_scale, sign_support, weights_from_eigenvector
from .spectral import (
    SpectralDecomposition,
    laplacian_decomposition,
    select_eigenpair,
    spectral_gap_c,
)


class CertificateError(ValueError):
    pass


def default_tolerance(g: Graph) -> float:
    """Scale-aware tolerance for all proof-step checks on g:
    1e-8 (1 + n max|L|)."""
    return 1e-8 * (1.0 + laplacian_scale(g) * g.n)


class EigenSplit:
    """The split of graph g by the k-th eigenvector of its own Laplacian,
    decomposed once by `laplacian_decomposition(g, k, through=through)`,
    the one place that turns (g, k) into a split: the decomposition
    `spectrum`, the selected `pair`, the weights w = y^2, the check
    `tolerance`, the sign `support`, the half-gap c, whether the gap is
    `degenerate` and the search `threshold` (these three None when
    k = n).  `side` builds each support's induced subgraph on first use
    and hands the same one to every later caller."""

    def __init__(self, g: Graph, k: int, *, through: int | None = None):
        d = laplacian_decomposition(g, k, through=through)
        self.graph, self.spectrum = g, d
        self.pair = select_eigenpair(d, k)
        self.w = weights_from_eigenvector(self.pair.y)
        self.tolerance = default_tolerance(g)
        self.support = sign_support(self.pair.y)
        self.c = self.degenerate = self.threshold = None
        if k < d.n:
            self.c = spectral_gap_c(d, k)
            # with c at most the tolerance the gap is rounding noise: nothing
            # is (k', c)-partitionable for k' >= 2, as expansions are
            # nonnegative, and no expansion verdict is taken
            self.degenerate = self.c <= self.tolerance
            # the theorem's class counts and the corollary's verdicts use the
            # strict phi < c; lowering it by the tolerance keeps float noise
            # at phi == c from inflating a or b or reading as a violation
            self.threshold = self.c - self.tolerance
        self._sides: dict[int, tuple[InducedSubgraph, np.ndarray]] = {}

    def side(self, j: int) -> tuple[InducedSubgraph, np.ndarray]:
        """The subgraph induced by the positive (j = 0) or negative (j = 1)
        support, and its weights."""
        if j not in self._sides:
            nodes = (self.support.positive, self.support.negative)[j]
            sub = induced_subgraph(self.graph, nodes)
            self._sides[j] = (sub, self.w[list(sub.to_parent)])
        return self._sides[j]


@dataclass
class ProofObjects:
    """The proof's objects for one (graph, k, partition) that the checks
    read.  M = L - lambda_k I and the split vectors form B and are dropped."""

    graph: Graph
    k: int
    lambda_k: float
    lambda_k1: float | None
    c: float | None
    parts: tuple[tuple[int, ...], ...]  # positive-side classes first
    a: int
    b: int
    y: np.ndarray
    w: np.ndarray
    z: np.ndarray  # z_i = ||y restricted to parts[i]||
    B: np.ndarray
    mu: np.ndarray
    # each class's cut in its side's support subgraph, bit for bit what
    # `phi` gives there; None for a class that covers its whole side
    cuts: tuple[xp.CutValue | None, ...]
    tolerance: float
    spectrum: SpectralDecomposition
    C: np.ndarray | None = None  # None with fewer than two classes


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    slack: float
    tolerance: float
    flags: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "slack": float(self.slack),
            "tolerance": float(self.tolerance),
        }


@dataclass
class TheoremReport:
    graph: Graph
    k: int
    values: np.ndarray
    c: float
    a: int
    b: int
    a_plus_b_le_k: bool
    mode: str
    checks: list[CheckRecord]
    pos_classes: tuple[tuple[int, ...], ...]
    neg_classes: tuple[tuple[int, ...], ...]
    multiplicity_flag: bool = False
    degenerate_gap_flag: bool = False

    @property
    def theorem_holds(self) -> bool:
        return self.a_plus_b_le_k or self.degenerate_gap_flag

    def as_dict(self) -> dict:
        flags = []
        if self.multiplicity_flag:
            flags.append("eigenvalue_multiplicity")
        if self.degenerate_gap_flag:
            flags.append("degenerate_gap")
        return {
            "graph": {"n": self.graph.n, "edges": [list(e) for e in self.graph.edges]},
            "k": self.k,
            "lambda": [float(v) for v in self.values],
            "c": float(self.c),
            "a": self.a,
            "b": self.b,
            "theorem_holds": bool(self.theorem_holds),
            "mode": self.mode,
            "flags": flags,
            "checks": [c.as_dict() for c in self.checks],
            "partitions": {
                "positive": [list(cls) for cls in self.pos_classes],
                "negative": [list(cls) for cls in self.neg_classes],
            },
        }


def _validate_classes(
    s: EigenSplit, j: int, classes: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """The classes of the positive (j = 0) or negative (j = 1) side as
    sorted tuples, checked to partition that side's support."""
    side = ("positive", "negative")[j]
    support = set((s.support.positive, s.support.negative)[j])
    seen: set[int] = set()
    out = []
    for cls in classes:
        nodes = tuple(sorted(int(i) for i in cls))
        if not nodes:
            raise CertificateError(f"empty class on {side} side")
        for i in nodes:
            if i not in support:
                raise CertificateError(f"node {i} outside the {side} support")
            if i in seen:
                raise CertificateError(f"node {i} repeated across {side} classes")
            seen.add(i)
        out.append(nodes)
    if seen != support:
        raise CertificateError(f"{side} classes do not cover the {side} support")
    return out


def build_proof_objects(
    g: Graph,
    k: int,
    pos_classes: Sequence[Sequence[int]],
    neg_classes: Sequence[Sequence[int]],
) -> ProofObjects:
    """Assemble the split vectors' norms z and the matrices B and C for
    the given partitions of the two supports of the k-th eigenvector.

    The split takes laplacian(g) in the low-end form: the checks read
    lambda_1..lambda_K, K = max(a + b, k + 1), and y_k only."""
    if not 1 <= k <= g.n:
        raise CertificateError(f"k={k} outside [1,{g.n}]")
    s = EigenSplit(g, k, through=max(len(pos_classes) + len(neg_classes), k + 1))
    sides = [_validate_classes(s, j, cls) for j, cls in enumerate((pos_classes, neg_classes))]
    cuts: list[xp.CutValue | None] = []
    for j, side in enumerate(sides):
        if len(side) < 2:
            cuts += [None] * len(side)
            continue
        sub, w_sub = s.side(j)
        x = xp._Input.checked(sub.graph, w_sub)
        cuts += [
            xp._mask_cut(x, x.mask(np.searchsorted(sub.to_parent, cls)), proper=True)
            for cls in side
        ]
    return _proof_objects(s, *sides, cuts)


def _proof_objects(
    s: EigenSplit,
    pos: list[tuple[int, ...]],
    neg: list[tuple[int, ...]],
    cuts: Sequence[xp.CutValue | None],
) -> ProofObjects:
    """`build_proof_objects` on the split s, for validated classes and
    their cuts, in the same order."""
    g, d, k = s.graph, s.spectrum, s.pair.k
    y, lam = s.pair.y, s.pair.lambda_k
    parts = tuple(pos) + tuple(neg)
    if not parts:
        raise CertificateError("no classes given; both supports empty")
    M = laplacian(g)
    M.flat[:: g.n + 1] -= lam
    y_split = np.zeros((len(parts), g.n))
    for i, cls in enumerate(parts):
        y_split[i, list(cls)] = y[list(cls)]
    z = np.linalg.norm(y_split, axis=1)
    if np.any(z <= 0):
        raise CertificateError("class with zero norm (off-support class?)")
    y_hat = y_split / z[:, None]
    B = y_hat @ M @ y_hat.T
    B = (B + B.T) / 2.0
    mu = np.linalg.eigvalsh(B)
    p = ProofObjects(
        graph=g,
        k=k,
        lambda_k=lam,
        lambda_k1=d.value(k + 1) if k < d.n else None,
        c=s.c,
        parts=parts,
        a=len(pos),
        b=len(neg),
        y=y,
        w=s.w,
        z=z,
        B=B,
        mu=mu,
        cuts=tuple(cuts),
        tolerance=s.tolerance,
        spectrum=d,
    )
    if len(parts) >= 2:
        build_C(p)
    return p


@lru_cache(maxsize=256)
def _same_side(a: int, b: int) -> np.ndarray:
    """Read-only mask of the off-diagonal class pairs (i, j) on the same
    side, with the a positive-side classes first."""
    positive = np.arange(a + b) < a
    same = positive[:, None] == positive
    same.flat[:: a + b + 1] = False
    same.flags.writeable = False
    return same


def check_B_sign_pattern(p: ProofObjects) -> CheckRecord:
    """Same-side off-diagonal entries of B are <= 0; cross-side entries >= 0."""
    tol = p.tolerance
    margins = np.where(_same_side(p.a, p.b), -p.B, p.B)
    margins.flat[:: len(margins) + 1] = np.inf  # no margin; inf for one class
    # min keeps the first of equal margins in row-major order, so the sign
    # of a zero slack is the first zero's, as with the margins one by one
    slack = min(margins.ravel().tolist())
    return CheckRecord("B_sign_pattern", slack >= -tol, slack, tol)


def check_Bz_zero(p: ProofObjects) -> CheckRecord:
    """B z = 0, the algebraic consequence of M y = 0."""
    tol = p.tolerance
    resid = float(np.max(np.abs(p.B @ p.z)))
    scale = 1.0 + float(np.max(np.abs(p.B))) * float(np.max(np.abs(p.z)))
    slack = -resid / scale
    return CheckRecord("Bz_zero", slack >= -tol, slack, tol)


def check_interlacing(p: ProofObjects) -> CheckRecord:
    """lambda_i - lambda_k <= mu_i for i = 1..a+b (interlacing for the
    principal submatrix B of M in the split-vector basis)."""
    tol = p.tolerance
    m = p.a + p.b
    lam = np.asarray(p.spectrum.values[:m], dtype=float)
    margins = p.mu[:m] - (lam - p.lambda_k)
    slack = float(np.min(margins))
    return CheckRecord("interlacing", slack >= -tol, slack, tol)


def build_C(p: ProofObjects) -> np.ndarray:
    """Comparison matrix: same-side off-diagonals copied from B, cross-side
    zero, diagonals chosen so that C z = 0 side by side."""
    m = p.a + p.b
    if m < 2:
        raise CertificateError("C needs at least two classes")
    C = np.where(_same_side(p.a, p.b), p.B, 0.0)
    # C_ii = -(sum over same-side r of z_r / z_i * B_ir), summed in class
    # order from +0.0: term (r, i) sits in row r (B is symmetric), and a
    # reduction down the rows adds them row after row.  A class alone on
    # its side keeps +0.0.
    diag = -np.add.reduce(p.z[:, None] / p.z * C, axis=0, initial=0.0)
    if p.a == 1:
        diag[0] = 0.0
    if p.b == 1:
        diag[p.a] = 0.0
    C.flat[:: m + 1] = diag
    p.C = C
    return C


def class_expansions(p: ProofObjects) -> list[float | None]:
    """Per-class expansion computed inside each class's own support subgraph.
    None marks a class covering its entire side (expansion undefined).

    A side's support is the union of its classes, which
    `build_proof_objects` has checked to cover it exactly.  The values come
    from `p.cuts`, taken on p's support subgraphs."""
    return [None if cut is None else cut.phi for cut in p.cuts]


def check_C_diagonal(p: ProofObjects) -> CheckRecord:
    """Two facts about C's diagonal: the exact cut identity
    C_ii z_i^2 = sum of sqrt(w_u w_v) over same-side edges leaving class i,
    and the bound C_ii <= phi_i (the class's expansion in its support
    subgraph), hence < c for a valid certificate."""
    if p.C is None:
        raise CertificateError("C needs at least two classes")
    tol = p.tolerance
    phis = class_expansions(p)
    flags: list[str] = []
    margins = [np.inf]
    # the same-side edges leaving a class are the edges its cut in the
    # side's support subgraph crosses
    cut_mass = np.array([0.0 if cut is None else cut.numerator for cut in p.cuts])
    scale = 1.0 + float(np.max(np.abs(cut_mass)))
    for i in range(p.a + p.b):
        ident = abs(p.C[i, i] * p.z[i] ** 2 - cut_mass[i]) / scale
        margins.append(-ident)  # equality: slack 0 at exactness
        if phis[i] is None:
            flags.append(f"class_{i}_covers_whole_side")
            margins.append(-abs(p.C[i, i]))  # must be exactly zero
        else:
            margins.append(phis[i] - p.C[i, i])
    slack = float(min(margins))
    return CheckRecord("C_diagonal", slack >= -tol, slack, tol, tuple(flags))


def check_CminusB_psd(p: ProofObjects) -> CheckRecord:
    """C - B is positive semidefinite: structurally (scaling by diag(z) on
    both sides yields nonnegative diagonal, nonpositive off-diagonal, and
    zero row sums, i.e. a diagonally dominant matrix) and spectrally
    (lambda_min >= 0).

    Note the scaling: with E = C - B and D = diag(z), the matrix D E D has
    row sums z_i * (E z)_i = 0; congruence by the invertible D carries its
    semidefiniteness back to E."""
    if p.C is None:
        raise CertificateError("C needs at least two classes")
    tol = p.tolerance
    E = p.C - p.B
    D = np.diag(p.z)
    S = D @ E @ D
    margins = [np.inf]
    for i, row in enumerate((-S).tolist()):  # S_ii, then -S_ij for j != i
        margins += [-row[i], *row[:i], *row[i + 1:]]
    row_resid = float(np.max(np.abs(S.sum(axis=1))))
    margins.append(-row_resid / (1.0 + float(np.max(np.abs(S)))))
    margins.append(float(np.linalg.eigvalsh(E)[0]))
    slack = float(min(margins))
    return CheckRecord("CminusB_psd", slack >= -tol, slack, tol)


def check_lambda_max_C(p: ProofObjects) -> CheckRecord:
    """lambda_max(C) < 2c, valid when every class expansion is below c; when
    a+b = k+1 also verify the chain
    lambda_{k+1} - lambda_k <= mu_{a+b} <= lambda_max(C)."""
    if p.C is None:
        raise CertificateError("C needs at least two classes")
    if p.c is None:
        raise CertificateError("no upper eigenvalue: k = n has no gap")
    for i, v in enumerate(class_expansions(p)):
        if v is not None and not v < p.c:
            raise CertificateError(
                f"class {i} has expansion {v} >= c={p.c}; precondition violated"
            )
    tol = p.tolerance
    lam_max_C = float(np.linalg.eigvalsh(p.C)[-1])
    margins = [2.0 * p.c - lam_max_C]
    flags: list[str] = []
    if p.a + p.b == p.k + 1:
        flags.append("chain_checked")
        mu_top = float(p.mu[-1])
        margins.append(mu_top - (p.lambda_k1 - p.lambda_k))
        margins.append(lam_max_C - mu_top)
    slack = float(min(margins))
    return CheckRecord("lambda_max_C", slack >= -tol, slack, tol, tuple(flags))


def run_checks(p: ProofObjects) -> list[CheckRecord]:
    """The proof-step checks that apply to `p`, in the module docstring's order."""
    checks = [
        check_B_sign_pattern(p),
        check_Bz_zero(p),
        check_interlacing(p),
    ]
    if p.a + p.b >= 2:
        checks.append(check_C_diagonal(p))
        checks.append(check_CminusB_psd(p))
        if p.c is not None and all(v is None or v < p.c for v in class_expansions(p)):
            checks.append(check_lambda_max_C(p))
        if p.a + p.b == p.k + 1:
            checks.append(_prop_sum_check(p))
    return checks


def verify_theorem1(
    g: Graph,
    k: int,
    mode: str = "exact",
) -> TheoremReport:
    """Verify the main theorem for (g, k): find the largest certified class
    counts a, b of the two support subgraphs at threshold c and test
    a + b <= k, attaching a CheckRecord for every proof step.

    A degenerate gap (`EigenSplit.degenerate`) short-circuits: nothing is
    (k',c)-partitionable for k' >= 2 since expansions are nonnegative."""
    if g.n == 0:
        raise CertificateError("empty graph")
    if not 1 <= k <= g.n - 1:
        raise CertificateError(f"k={k} outside [1,{g.n - 1}]")
    if mode not in xp.MODES:  # checked here too: a degenerate gap runs no search
        raise xp.ExpansionError(f"unknown mode {mode!r}")
    s = EigenSplit(g, k)
    sides, cuts = [], []
    for j, nodes in enumerate((s.support.positive, s.support.negative)):
        if not nodes or s.degenerate:
            sides.append((1, (nodes,)) if nodes else (0, ()))
            continue
        sub, w_sub = s.side(j)
        k_side, cert = xp.max_partitionable(sub.graph, w_sub, s.threshold, mode=mode)
        classes = () if cert is None else cert.classes
        sides.append((k_side, tuple(sub.to_parent_set(cls) for cls in classes)))
        # the certificate's cuts, taken on this subgraph; a lone class has none
        cuts += cert.cuts if len(classes) >= 2 else [None] * len(classes)
    (a, pos_cls), (b, neg_cls) = sides
    checks: list[CheckRecord] = []
    if a + b >= 1 and not s.degenerate:
        pos, neg = (_validate_classes(s, j, cls) for j, cls in enumerate((pos_cls, neg_cls)))
        checks = run_checks(_proof_objects(s, pos, neg, cuts))
    return TheoremReport(
        graph=g, k=k, values=s.spectrum.values, c=s.c, a=a, b=b,
        a_plus_b_le_k=a + b <= k, mode=mode, checks=checks,
        pos_classes=pos_cls, neg_classes=neg_cls,
        multiplicity_flag=s.pair.multiplicity_flag, degenerate_gap_flag=s.degenerate,
    )


@dataclass
class CorollaryReport:
    graph: Graph
    c: float
    positive_verdict: xp.ExpanderVerdict | None
    negative_verdict: xp.ExpanderVerdict | None
    flags: list[str] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return all(
            v is None or v.is_expander
            for v in (self.positive_verdict, self.negative_verdict)
        )

    def as_dict(self) -> dict:
        def vd(v):
            if v is None:
                return None
            return {
                "is_expander": bool(v.is_expander),
                "mode": v.mode,
                "min_phi": None if v.min_phi is None else float(v.min_phi),
                "witness": None if v.witness is None else list(v.witness),
            }

        return {
            "graph": {"n": self.graph.n, "edges": [list(e) for e in self.graph.edges]},
            "c": float(self.c),
            "holds": bool(self.holds),
            "positive": vd(self.positive_verdict),
            "negative": vd(self.negative_verdict),
            "flags": list(self.flags),
        }


def verify_corollary1(g: Graph) -> CorollaryReport:
    """Both support subgraphs of the second eigenvector are
    (lambda_3 - lambda_2)/2-expanders with respect to the squared entries."""
    if g.n < 3:
        raise CertificateError("corollary needs at least 3 nodes")
    s = EigenSplit(g, 2)
    flags = ["degenerate_gap"] if s.degenerate else []
    verdicts: list[xp.ExpanderVerdict | None] = []
    for j, nodes in enumerate((s.support.positive, s.support.negative)):
        if not nodes:
            verdicts.append(None)
            flags.append("empty_support")
            continue
        if s.degenerate:
            verdicts.append(None)
            continue
        sub, w_sub = s.side(j)
        try:
            v = xp.is_expander(sub.graph, w_sub, s.threshold, mode="exact")
        except xp.ExactCapExceeded:
            v = xp.is_expander(sub.graph, w_sub, s.threshold, mode="heuristic")
            flags.append("heuristic_fallback")
        if v.witness is not None:
            v = replace(v, witness=sub.to_parent_set(v.witness))
        verdicts.append(v)
    return CorollaryReport(
        graph=g, c=s.c,
        positive_verdict=verdicts[0], negative_verdict=verdicts[1],
        flags=flags,
    )


def verify_prop_sum(
    g: Graph,
    k: int,
    pos_classes: Sequence[Sequence[int]],
    neg_classes: Sequence[Sequence[int]],
) -> CheckRecord:
    """Gap-vs-expansion-sum bound for a+b = k+1:

        lambda_{a+b} - lambda_{a+b-1} <= sum of all class expansions,

    via the trace route: the gap is at most mu_{a+b} (interlacing plus
    C - B PSD), mu_{a+b} <= trace(C) (C itself is PSD), and each diagonal
    entry of C is at most the matching class expansion.  A class covering
    its whole side has undefined expansion; it contributes 0 (its C diagonal
    entry is exactly 0) and is flagged."""
    a, b = len(pos_classes), len(neg_classes)
    if a + b != k + 1:
        raise CertificateError(f"a+b={a + b} must equal k+1={k + 1}")
    p = build_proof_objects(g, k, pos_classes, neg_classes)
    return _prop_sum_check(p)


def _prop_sum_check(p: ProofObjects) -> CheckRecord:
    """The `verify_prop_sum` check on built proof objects with a+b = k+1."""
    tol = p.tolerance
    phis = class_expansions(p)
    flags = tuple(
        f"class_{i}_covers_whole_side" for i, v in enumerate(phis) if v is None
    )
    phi_sum = float(sum(v for v in phis if v is not None))
    gap = p.lambda_k1 - p.lambda_k  # lambda_{a+b} - lambda_{a+b-1}
    mu_top = float(p.mu[-1])
    trace_C = float(np.trace(p.C))
    margins = [
        phi_sum - gap,
        trace_C - mu_top,
        float(np.linalg.eigvalsh(p.C)[0]),  # C is PSD
    ]
    slack = float(min(margins))
    return CheckRecord("prop_sum", slack >= -tol, slack, tol, flags)
