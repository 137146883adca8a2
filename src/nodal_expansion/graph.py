"""Undirected simple graphs, combinatorial Laplacians, induced subgraphs,
and eigenvector sign supports."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class GraphError(ValueError):
    """Invalid graph construction input."""


class EndpointOutOfRange(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1 with a canonical edge tuple.

    Edges are stored once each as (u, v) with u < v, sorted lexicographically.
    Instances are immutable and safe to share.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        """Read-only node degrees, one bincount of the edge arrays, shared
        by every caller."""
        return self._degrees

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only endpoint index arrays (us, vs) in edge order, shared by
        every caller; empty int arrays for no edges."""
        return self._edge_arrays

    # cached_property writes to the instance __dict__, which the frozen
    # dataclass allows and which its generated eq and hash ignore
    @cached_property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        e = np.array(self.edges, dtype=int).reshape(-1, 2)
        us, vs = np.ascontiguousarray(e[:, 0]), np.ascontiguousarray(e[:, 1])
        us.flags.writeable = False
        vs.flags.writeable = False
        return us, vs

    @cached_property
    def _degrees(self) -> np.ndarray:
        deg = np.bincount(np.concatenate(self.edge_arrays()), minlength=self.n)
        deg.flags.writeable = False
        return deg


def _from_edge_arrays(n: int, us: np.ndarray, vs: np.ndarray) -> Graph:
    """The Graph on n nodes whose edges, canonical and in order, are (us, vs);
    it takes the arrays as its `edge_arrays()`, in the `_edge_arrays` cache."""
    g = Graph(n=n, edges=tuple(zip(us.tolist(), vs.tolist())))
    us.flags.writeable = False
    vs.flags.writeable = False
    g.__dict__["_edge_arrays"] = us, vs
    return g


def _adjacency(g: Graph) -> list[list[int]]:
    """Each node's neighbours, in edge order.  It walks the edge tuple: a
    graph that is only tested for connectivity never builds edge arrays."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Raises EndpointOutOfRange, SelfLoopError, or DuplicateEdgeError on bad
    input; duplicates are detected after canonicalizing endpoint order.
    """
    if n < 0:
        raise GraphError(f"node count must be nonnegative, got {n}")
    seen: set[tuple[int, int]] = set()
    canon: list[tuple[int, int]] = []
    for pair in edges:
        u, v = pair
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise EndpointOutOfRange(f"edge ({u},{v}) has endpoint outside [0,{n})")
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise DuplicateEdgeError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        canon.append((u, v))
    return Graph(n=n, edges=tuple(sorted(canon)))


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A as a dense symmetric array."""
    us, vs = g.edge_arrays()
    L = np.zeros((g.n, g.n))
    L[us, vs] = -1.0
    L[vs, us] = -1.0
    L.flat[:: g.n + 1] = g.degrees()
    return L


def laplacian_scale(g: Graph) -> float:
    """max|L| for L = laplacian(g): the largest degree, as off-diagonal
    entries are 0 or -1 and an edge's endpoints have degree >= 1."""
    return float(g.degrees().max()) if g.n else 0.0


@dataclass(frozen=True)
class SignSupport:
    """Partition of the node set by eigenvector sign, with a zero band.

    Nodes with |y_i| <= tau land in `zero` and belong to neither support;
    `tau` records the band used, default_zero_tau(y).
    """

    positive: tuple[int, ...]
    negative: tuple[int, ...]
    zero: tuple[int, ...]
    tau: float


def default_zero_tau(y: np.ndarray) -> float:
    """Default zero band: 1e-9 times the largest entry magnitude."""
    y = np.asarray(y, dtype=float)
    return 1e-9 * float(np.max(np.abs(y))) if y.size else 0.0


def sign_support(y: np.ndarray) -> SignSupport:
    """Split nodes into positive / negative / zero sets at the default zero
    band tau = default_zero_tau(y)."""
    y = np.asarray(y, dtype=float)
    tau = default_zero_tau(y)
    is_pos = y > tau
    is_neg = y < -tau
    pos = tuple(int(i) for i in np.flatnonzero(is_pos))
    neg = tuple(int(i) for i in np.flatnonzero(is_neg))
    rest = tuple(int(i) for i in np.flatnonzero(~(is_pos | is_neg)))
    return SignSupport(positive=pos, negative=neg, zero=rest, tau=tau)


@dataclass(frozen=True)
class InducedSubgraph:
    """Subgraph induced by a node subset, with the index map back to the parent."""

    graph: Graph
    to_parent: tuple[int, ...]

    def to_parent_set(self, sub_nodes: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(self.to_parent[i] for i in sub_nodes))


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> InducedSubgraph:
    """Induce on `nodes`, in any order and with repeats, keeping exactly the
    edges with both endpoints inside.  The parent's edge arrays go through
    the ascending node map, which keeps their order and u < v, so the kept
    ones are the subgraph's canonical edges and its `edge_arrays()`."""
    sel = sorted(set(int(i) for i in nodes))
    for i in sel:
        if not 0 <= i < g.n:
            raise EndpointOutOfRange(f"node {i} outside [0,{g.n})")
    local = np.full(g.n, -1)
    local[sel] = np.arange(len(sel))
    us, vs = (local[e] for e in g.edge_arrays())
    keep = (us >= 0) & (vs >= 0)
    return InducedSubgraph(_from_edge_arrays(len(sel), us[keep], vs[keep]), tuple(sel))


def weights_from_eigenvector(y: np.ndarray) -> np.ndarray:
    """Node weights w_i = y_i**2."""
    y = np.asarray(y, dtype=float)
    return y * y


def connected_components(g: Graph) -> list[list[int]]:
    """Components by BFS, each sorted, ordered by smallest node."""
    adj = _adjacency(g)
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = [s]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1
