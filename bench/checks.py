"""Output checks computed apart from the package under test.

Nothing here imports `nodal_expansion`.  Each graph is rebuilt from its edge
list into a Laplacian of the benchmark's own, its eigenvalues are cross-checked
against scipy's `eigh` with the MRRR driver (`evr`; numpy uses the
divide-and-conquer driver), and every expansion value is recomputed here:

* `direct_phi` evaluates the defining ratio for one node set;
* `phi_table` gives phi for every subset of a small support by doubling over
  the node bits (a different algorithm from the package's bit-matrix sweep);
* `max_classes` finds the largest partition of a support into classes of
  expansion below a threshold, by dynamic programming over the table, with no
  use of the package's restricted-growth search.

The check functions return a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Largest support on which `max_classes` enumerates every subset; the
# partition DP over 2^p masks stays well under a second up to here.
MAX_ENUM_NODES = 12
# Largest support on which `phi_table` is built for an exact min-phi check.
MAX_TABLE_NODES = 20
# Relative slack for comparing a float the package computed with one
# recomputed here in another order of operations.
REL_EPS = 1e-9


def zero_band(y: np.ndarray) -> float:
    """The method's zero band: entries with |y_i| <= 1e-9 max|y| are zero."""
    return 1e-9 * float(np.max(np.abs(y))) if y.size else 0.0


def canonical(y: np.ndarray) -> np.ndarray:
    """Flip y so its first entry outside the zero band is positive."""
    tau = zero_band(y)
    big = np.flatnonzero(np.abs(y) > tau)
    if big.size and y[big[0]] < 0:
        return -y
    return y


def method_tolerance(L: np.ndarray) -> float:
    """The method's scale-aware tolerance, 1e-8 (1 + max|L| n).  The theorem's
    class counts use phi < c - tolerance, so the checks use it too."""
    n = L.shape[0]
    return 1e-8 * (1.0 + float(np.max(np.abs(L))) * n)


@dataclass
class GraphRef:
    """One graph's reference data, computed from its edge list alone."""

    n: int
    us: np.ndarray
    vs: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges) -> "GraphRef":
        e = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        return cls(n=n, us=e[:, 0].copy(), vs=e[:, 1].copy())

    @cached_property
    def L(self) -> np.ndarray:
        L = np.zeros((self.n, self.n))
        L[self.us, self.vs] = -1.0
        L[self.vs, self.us] = -1.0
        L[np.diag_indices(self.n)] = -L.sum(axis=1)
        return L

    @cached_property
    def values(self) -> np.ndarray:
        """Eigenvalues from scipy's MRRR driver, the cross-check."""
        import scipy.linalg

        return scipy.linalg.eigh(self.L, eigvals_only=True, driver="evr")

    @cached_property
    def np_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """numpy's eigenpairs.  On a repeated eigenvalue the eigenvector is
        basis-dependent, so the supports are read in the basis the package
        sees; the checked eigenvalues come from `values`."""
        return np.linalg.eigh(self.L)

    @cached_property
    def tol(self) -> float:
        return method_tolerance(self.L)

    @cached_property
    def eig_tol(self) -> float:
        return 1e-9 * (1.0 + float(np.max(np.abs(self.L))) * self.n)

    def gap_c(self, k: int) -> float:
        return (float(self.values[k]) - float(self.values[k - 1])) / 2.0

    def y(self, k: int) -> np.ndarray:
        return canonical(self.np_eigh[1][:, k - 1])

    def supports(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(positive, negative, weights y^2) for the k-th eigenvector."""
        y = self.y(k)
        tau = zero_band(y)
        return np.flatnonzero(y > tau), np.flatnonzero(y < -tau), y * y

    def side(self, nodes: np.ndarray, w: np.ndarray) -> "Side":
        """The subgraph induced on `nodes`, relabelled 0..p-1, with weights."""
        index = np.full(self.n, -1)
        index[nodes] = np.arange(len(nodes))
        keep = (index[self.us] >= 0) & (index[self.vs] >= 0)
        return Side(
            nodes=np.asarray(nodes),
            us=index[self.us[keep]],
            vs=index[self.vs[keep]],
            w=w[nodes],
        )


@dataclass
class Side:
    """A sign-support subgraph: local edges and positive node weights."""

    nodes: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    w: np.ndarray

    @property
    def p(self) -> int:
        return len(self.nodes)

    def local(self, parent_nodes) -> np.ndarray:
        """Boolean membership mask of parent-labelled nodes in this side."""
        where = {int(v): i for i, v in enumerate(self.nodes)}
        mask = np.zeros(self.p, dtype=bool)
        mask[[where[int(v)] for v in parent_nodes]] = True
        return mask

    def direct_phi(self, mask: np.ndarray) -> float:
        """phi(S) = crossing sum of sqrt(w_u w_v) / min(w(S), w(rest))."""
        cross = mask[self.us] != mask[self.vs]
        num = float(np.sqrt(self.w[self.us[cross]] * self.w[self.vs[cross]]).sum())
        w_s = float(self.w[mask].sum())
        w_rest = float(self.w[~mask].sum())
        return num / min(w_s, w_rest)

    def phi_table(self) -> np.ndarray:
        """phi of every subset, indexed by bitmask; inf for the empty and the
        full set.  Weight and cut are built by doubling: adding node j to the
        masks over nodes < j adds w_j, and adds its weighted degree minus twice
        its edges into the mask."""
        p = self.p
        if p > MAX_TABLE_NODES:
            raise ValueError(f"support of {p} nodes is beyond the table limit")
        s = np.zeros((p, p))
        s[self.us, self.vs] = np.sqrt(self.w[self.us] * self.w[self.vs])
        s += s.T
        deg = s.sum(axis=1)
        w_s = np.zeros(1 << p)
        cut = np.zeros(1 << p)
        for j in range(p):
            lo = 1 << j
            into = np.zeros(lo)  # weight of edges from node j into each mask
            for i in range(j):
                into[1 << i: 2 << i] = into[: 1 << i] + s[i, j]
            w_s[lo: 2 * lo] = w_s[:lo] + self.w[j]
            cut[lo: 2 * lo] = cut[:lo] + deg[j] - 2.0 * into
        total = w_s[-1]
        denom = np.minimum(w_s, total - w_s)
        out = np.full(1 << p, np.inf)
        ok = denom > 0
        out[ok] = cut[ok] / denom[ok]
        return out


def max_classes(table: np.ndarray, p: int, threshold: float) -> int:
    """Largest number of classes, each of expansion below `threshold`, that
    partition a nonempty support (1 when only the whole side qualifies).

    best(m) is the largest partition of the node set m into proper classes
    of the whole support, or -1 if there is none; the class holding m's
    lowest node is chosen among the qualifying subsets of m."""
    full = (1 << p) - 1
    good = [int(m) for m in np.flatnonzero(table < threshold) if 0 < m < full]
    if not good:
        return 1
    memo = {0: 0}

    def best(m: int) -> int:
        if m in memo:
            return memo[m]
        low = m & -m
        out = -1
        for g in good:
            if g & low and not g & ~m:
                r = best(m ^ g)
                if r >= 0 and r + 1 > out:
                    out = r + 1
        memo[m] = out
        return out

    return max(1, best(full))


def count_range(table: np.ndarray, p: int, threshold: float) -> tuple[int, int]:
    """`max_classes` at the threshold moved down and up by REL_EPS, so that a
    phi within rounding of the threshold may fall on either side."""
    eps = REL_EPS * max(1.0, abs(threshold))
    lo = max_classes(table, p, threshold - eps)
    if not np.any((table >= threshold - eps) & (table < threshold + eps)):
        return lo, lo
    return lo, max_classes(table, p, threshold + eps)


def _classes_errors(label, side_nodes, side, classes, c) -> list[str]:
    errs = []
    got = sorted(int(v) for cls in classes for v in cls)
    if got != sorted(int(v) for v in side_nodes):
        errs.append(f"{label}: classes do not partition the {len(side_nodes)}-node support")
        return errs
    if len(classes) < 2:
        return errs
    for i, cls in enumerate(classes):
        val = side.direct_phi(side.local(cls))
        if not val < c:
            errs.append(f"{label}: class {i} has phi {val:.6g} >= c {c:.6g}")
    return errs


def _eigen_errors(label, ref, values) -> list[str]:
    values = np.asarray(values, dtype=float)
    if values.shape != ref.values.shape:
        return [f"{label}: {values.size} eigenvalues, expected {ref.values.size}"]
    dev = float(np.max(np.abs(values - ref.values)))
    if dev > ref.eig_tol:
        return [f"{label}: eigenvalues deviate by {dev:.3g} from scipy evr"]
    return []


def check_theorem(ref: GraphRef, k: int, report, mode: str, label: str) -> list[str]:
    """A `verify_theorem1` report against the reference.  Maximality of a and
    b is checked only in exact mode and where the support is small enough to
    enumerate; heuristic counts are lower bounds."""
    errs = _eigen_errors(label, ref, report.values)
    c = ref.gap_c(k)
    if abs(float(report.c) - c) > ref.eig_tol:
        errs.append(f"{label}: c {report.c!r} differs from reference {c!r}")
    degenerate = c <= ref.tol
    if bool(report.degenerate_gap_flag) != degenerate:
        errs.append(f"{label}: degenerate-gap flag {report.degenerate_gap_flag} "
                    f"but reference c {c:.3g} vs tolerance {ref.tol:.3g}")
    if degenerate or errs:
        return errs
    if report.a + report.b > k:
        errs.append(f"{label}: a + b = {report.a + report.b} exceeds k = {k}")
    if len(report.pos_classes) != report.a or len(report.neg_classes) != report.b:
        errs.append(f"{label}: class lists do not match a, b")
    failed = [ch.name for ch in report.checks if not ch.passed]
    if failed:
        errs.append(f"{label}: proof checks failed: {failed}")
    if report.a + report.b >= 1 and len(report.checks) < 3:
        errs.append(f"{label}: only {len(report.checks)} proof checks ran")
    pos, neg, w = ref.supports(k)
    c_search = c - ref.tol
    for name, nodes, classes, count in (
        ("positive", pos, report.pos_classes, report.a),
        ("negative", neg, report.neg_classes, report.b),
    ):
        if nodes.size == 0:
            if count:
                errs.append(f"{label}: {name} support empty but count {count}")
            continue
        side = ref.side(nodes, w)
        errs += _classes_errors(f"{label} {name}", nodes, side, classes, c)
        if mode == "exact" and side.p <= MAX_ENUM_NODES:
            lo, hi = count_range(side.phi_table(), side.p, c_search)
            if not lo <= count <= hi:
                errs.append(f"{label}: {name} count {count}, enumeration gives {lo}..{hi}")
    return errs


def check_corollary(ref: GraphRef, report, label: str) -> list[str]:
    """A `verify_corollary1` report: both supports of y_2 are exact
    c-expanders, and each reported min phi matches the subset table."""
    errs = []
    c = ref.gap_c(2)
    if abs(float(report.c) - c) > ref.eig_tol:
        errs.append(f"{label}: c {report.c!r} differs from reference {c!r}")
    if not report.holds:
        errs.append(f"{label}: corollary reported as failing")
    if report.flags:
        errs.append(f"{label}: unexpected flags {report.flags}")
    pos, neg, w = ref.supports(2)
    c_test = c - ref.tol
    for name, nodes, verdict in (
        ("positive", pos, report.positive_verdict),
        ("negative", neg, report.negative_verdict),
    ):
        if verdict is None or verdict.mode != "exact":
            errs.append(f"{label}: {name} side has no exact verdict")
            continue
        side = ref.side(nodes, w)
        min_phi = float(side.phi_table().min())
        if abs(min_phi - float(verdict.min_phi)) > REL_EPS * max(1.0, min_phi):
            errs.append(f"{label}: {name} min phi {verdict.min_phi!r}, table gives {min_phi!r}")
        if not min_phi >= c_test:
            errs.append(f"{label}: {name} support is not a c-expander ({min_phi:.6g} < {c_test:.6g})")
    return errs


BASE_CHECKS = ("B_sign_pattern", "Bz_zero", "interlacing")
PAIR_CHECKS = ("C_diagonal", "CminusB_psd")


def check_proof(ref: GraphRef, k: int, pos_classes, neg_classes, rc: int,
                output: dict | None, label: str) -> list[str]:
    """A `verify-proof` run: exit 0, every check passed, the expected checks
    ran, and for a + b = k + 1 the gap is at most the sum of class expansions
    recomputed here (a class covering its whole side contributes 0)."""
    if rc != 0 or output is None:
        return [f"{label}: verify-proof exited {rc}"]
    errs = []
    a, b = len(pos_classes), len(neg_classes)
    if (output.get("k"), output.get("a"), output.get("b")) != (k, a, b):
        errs.append(f"{label}: output k, a, b {output.get('k'), output.get('a'), output.get('b')}")
    names = [ch["name"] for ch in output.get("checks", [])]
    failed = [ch["name"] for ch in output.get("checks", []) if not ch["passed"]]
    if failed:
        errs.append(f"{label}: proof checks failed: {failed}")
    expected = list(BASE_CHECKS) + (list(PAIR_CHECKS) if a + b >= 2 else [])
    if a + b == k + 1:
        expected.append("prop_sum")
    missing = [nm for nm in expected if nm not in names]
    if missing:
        errs.append(f"{label}: checks {missing} did not run")
    if a + b == k + 1:
        pos, neg, w = ref.supports(k)
        total = 0.0
        for nodes, classes in ((pos, pos_classes), (neg, neg_classes)):
            side = ref.side(nodes, w)
            for cls in classes:
                if len(cls) < side.p:
                    total += side.direct_phi(side.local(cls))
        gap = float(ref.values[k]) - float(ref.values[k - 1])
        if gap > total + ref.tol:
            errs.append(f"{label}: gap {gap:.6g} exceeds class-expansion sum {total:.6g}")
    return errs
