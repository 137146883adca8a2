"""Independent oracles used to cross-check library results.

Deliberately naive: brute-force enumeration and classical closed-form
methods with no shared code paths with the package under test.
"""

from __future__ import annotations

import itertools

import numpy as np


def brute_phi(graph, w, S):
    """Expansion of S by direct evaluation of the defining ratio."""
    S = set(S)
    w = np.asarray(w, dtype=float)
    num = 0.0
    for u, v in graph.edges:
        if (u in S) != (v in S):
            num += np.sqrt(w[u] * w[v])
    w_s = sum(w[i] for i in S)
    return num / min(w_s, w.sum() - w_s)


def sequential_cut(graph, w, S):
    """(crossing sum, w(S), w(V \\ S)) with each sum taken one term at a
    time: crossing terms in edge order, weights in node order."""
    S = set(S)
    num = 0.0
    for u, v in graph.edges:
        if (u in S) != (v in S):
            num += float(np.sqrt(w[u] * w[v]))
    w_s = w_rest = 0.0
    for i in range(graph.n):
        if i in S:
            w_s += float(w[i])
        else:
            w_rest += float(w[i])
    return num, w_s, w_rest


def kernel_phi_table(graph, w):
    """phi by `sequential_cut` of every subset of the positive-weight nodes,
    as a list indexed by bitmask (bit j for the j-th positive node); inf
    where the cut is undefined."""
    pos = [i for i in range(graph.n) if w[i] > 0]
    table = []
    for mask in range(1 << len(pos)):
        S = [node for j, node in enumerate(pos) if mask >> j & 1]
        num, w_s, w_rest = sequential_cut(graph, w, S)
        table.append(num / min(w_s, w_rest) if w_s > 0 and w_rest > 0 else np.inf)
    return table


def greedy_move_reference(graph, w, classes, c):
    """One greedy single-node move that re-evaluates every class's phi for
    each trial: scan edges in order, each endpoint in turn, and make the
    first move whose worst class phi is strictly below the current worst.
    Mutates `classes` (sorted lists partitioning the nodes); returns
    whether a move was made."""
    assign = {i: ci for ci, cls in enumerate(classes) for i in cls}

    def worst():
        vals = []
        for cls in classes:
            num, w_s, w_rest = sequential_cut(graph, w, cls)
            if w_s <= 0 or w_rest <= 0:
                return np.inf
            vals.append(num / min(w_s, w_rest))
        return max(vals)

    base = worst()
    for u, v in graph.edges:
        for a, b in ((u, v), (v, u)):
            ca, cb = assign[a], assign[b]
            if ca == cb or len(classes[ca]) <= 1:
                continue
            classes[ca].remove(a)
            classes[cb].append(a)
            if worst() < base:
                classes[cb].sort()
                return True
            classes[cb].remove(a)
            classes[ca].append(a)
            classes[ca].sort()
    return False


def brute_min_phi(graph, w):
    """Minimum expansion over every subset with proper weight."""
    w = np.asarray(w, dtype=float)
    total = w.sum()
    best = np.inf
    for r in range(1, graph.n):
        for S in itertools.combinations(range(graph.n), r):
            w_s = sum(w[i] for i in S)
            if not 0 < w_s < total:
                continue
            best = min(best, brute_phi(graph, w, S))
    return best


def brute_is_partitionable(graph, w, k, c):
    """Does any assignment of nodes to k labels give a valid partition?

    Enumerates raw label vectors (k^n of them), so only for tiny graphs.
    """
    w = np.asarray(w, dtype=float)
    if k == 1:
        return w.sum() > 0
    for labels in itertools.product(range(k), repeat=graph.n):
        classes = [[i for i in range(graph.n) if labels[i] == b] for b in range(k)]
        if any(not cls or sum(w[i] for i in cls) <= 0 for cls in classes):
            continue
        if all(brute_phi(graph, w, cls) < c for cls in classes):
            return True
    return False


def char_poly_coeffs(A):
    """Characteristic polynomial coefficients (monic, descending) via the
    Faddeev-LeVerrier recurrence; exact in rational arithmetic terms, no
    eigensolver involved."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    coeffs = [1.0]
    M = np.zeros_like(A)
    for m in range(1, n + 1):
        M = A @ M + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(A @ M) / m)
    return np.array(coeffs)


def char_poly_eigs(A):
    """Eigenvalues as polynomial roots, ascending and real-projected."""
    roots = np.roots(char_poly_coeffs(A))
    return np.sort(roots.real)


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[ri] = rj


def component_count(graph):
    uf = UnionFind(graph.n)
    for u, v in graph.edges:
        uf.union(u, v)
    return len({uf.find(i) for i in range(graph.n)})


def induced_reference(graph, nodes):
    """(n, edges, to_parent) of the subgraph induced on `nodes`, by a dict
    walk over every parent edge, sorted afterwards."""
    sel = sorted(set(int(i) for i in nodes))
    index = {p: s for s, p in enumerate(sel)}
    sub_edges = [(index[u], index[v]) for u, v in graph.edges if u in index and v in index]
    return len(sel), tuple(sorted(sub_edges)), tuple(sel)
