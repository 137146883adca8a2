"""Deterministic graph family generators.

Randomized families draw from numpy's PCG64 seeded with the given 64-bit
value, so an identical (family, params, seed) triple always reproduces the
same graph bit for bit: G(n,p) draws one double per node pair in row-major
i < j order, and the pairing model one permutation per attempt, the streams
of per-pair loops.  Each family hands its canonical edge arrays unchecked to
`graph._from_edge_arrays`; outside input goes through `build_graph`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import numpy as np

from .graph import Graph, _from_edge_arrays, is_connected

# the pairing model gives up after this many rejected attempts
REGULAR_MAX_RETRIES = 1000


class GenerationError(ValueError):
    pass


def gen_path(n: int) -> Graph:
    if n < 1:
        raise GenerationError(f"path needs n >= 1, got {n}")
    return _from_edge_arrays(n, np.arange(n - 1), np.arange(1, n))


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise GenerationError(f"cycle needs n >= 3, got {n}")
    # the path's edges and (0, n-1), which comes second in canonical order
    return _from_edge_arrays(n, np.r_[0, : n - 1], np.r_[1, n - 1, 2:n])


def gen_complete(n: int) -> Graph:
    if n < 1:
        raise GenerationError(f"complete graph needs n >= 1, got {n}")
    return _from_edge_arrays(n, *np.triu_indices(n, 1))


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n,p): one coin per node pair, in row-major i < j order."""
    if n < 1:
        raise GenerationError(f"gnp needs n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise GenerationError(f"edge probability {p} outside [0,1]")
    us, vs = np.triu_indices(n, 1)
    keep = np.random.default_rng(seed).random(len(us)) < p
    return _from_edge_arrays(n, us[keep], vs[keep])


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Simple d-regular graph via the pairing (configuration) model.

    Stubs are shuffled and paired; any attempt producing a self-loop or a
    parallel edge is rejected wholesale and retried, up to
    REGULAR_MAX_RETRIES attempts.
    """
    if n * d % 2 != 0:
        raise GenerationError(f"n*d = {n}*{d} must be even")
    if not 0 <= d < n:
        raise GenerationError(f"degree {d} must satisfy 0 <= d < n={n}")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(REGULAR_MAX_RETRIES):
        us, vs = np.sort(rng.permutation(stubs).reshape(-1, 2), axis=1).T
        # a simple graph's codes u*n + v are distinct, and sort as its (u, v)
        codes = np.unique(us * n + vs)
        if len(codes) == len(us) and (us != vs).all():
            return _from_edge_arrays(n, codes // n, codes % n)
    raise GenerationError(
        f"pairing model failed to produce a simple {d}-regular graph "
        f"on {n} nodes within {REGULAR_MAX_RETRIES} retries"
    )


def gen_expander_path_expander(
    n_block: int,
    d: int,
    path_len: int | None = None,
    seed: int = 0,
) -> Graph:
    """Two isomorphic d-regular blocks bridged by a path of new nodes.

    Block 2 is an index-shifted copy of block 1 (so the blocks are
    isomorphic by construction).  Path nodes are 2*n_block ..
    2*n_block+path_len-1 in a chain; the first path node attaches to node 0
    of block 1 and the last to node 0 of block 2.  path_len defaults to
    2*n_block, matching the combined block size.
    """
    if n_block * d % 2 or not 0 <= d < n_block:  # before path_len's default
        raise GenerationError(
            f"blocks need 0 <= d < n_block and n_block*d even, got n_block={n_block}, d={d}"
        )
    if path_len is None:
        path_len = 2 * n_block
    if path_len < 1:
        raise GenerationError(f"path_len must be >= 1, got {path_len}")
    us, vs = gen_random_regular(n_block, d, seed).edge_arrays()
    first, last = 2 * n_block, 2 * n_block + path_len - 1
    us = np.concatenate([us, us + n_block, np.arange(first, last), [0, n_block]])
    vs = np.concatenate([vs, vs + n_block, np.arange(first + 1, last + 1), [first, last]])
    order = np.lexsort((vs, us))
    return _from_edge_arrays(last + 1, us[order], vs[order])


def _connected(n: int, pairs: list[tuple[int, int]], mask: int) -> Graph | None:
    """The graph of the pairs whose bits `mask` sets, if it is connected.  It
    is built from the tuple: on tiny graphs, arrays would cost more."""
    g = Graph(n=n, edges=tuple([e for i, e in enumerate(pairs) if (mask >> i) & 1]))
    return g if is_connected(g) else None


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """All connected labeled graphs on n nodes by raw edge-subset
    enumeration (2^(n(n-1)/2) candidates; fine up to n = 6)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        if g := _connected(n, pairs, mask):
            yield g


def _uniform_mask(rng: np.random.Generator, bits: int) -> int:
    """A uniform random integer in [0, 2^bits).  numpy draws at most 63 bits
    at a time, so a wider mask is drawn in 63-bit pieces, lowest first; up
    to 63 bits it is the single draw that earlier versions made."""
    if bits <= 63:
        return int(rng.integers(0, 1 << bits))
    mask = 0
    for shift in range(0, bits, 63):
        mask |= int(rng.integers(0, 1 << min(63, bits - shift))) << shift
    return mask


def sample_connected_graphs(n: int, count: int, seed: int) -> Iterator[Graph]:
    """`count` distinct random connected labeled graphs on n nodes, sampled
    by uniform edge-subset masks with rejection (fixed seed, deterministic).
    Raises GenerationError once every mask has been drawn, when there are
    fewer than `count` connected graphs on n nodes."""
    pairs = list(combinations(range(n), 2))
    rng = np.random.default_rng(seed)
    seen: set[int] = set()
    produced = 0
    while produced < count:
        if len(seen) == 1 << len(pairs):
            raise GenerationError(f"only {produced} connected graphs on {n} nodes")
        mask = _uniform_mask(rng, len(pairs))
        if mask in seen:
            continue
        seen.add(mask)
        if g := _connected(n, pairs, mask):
            produced += 1
            yield g
