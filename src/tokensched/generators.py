"""Graph constructors: fixed families and seeded random connected graphs."""

from __future__ import annotations

import numpy as np

from .core import Graph


def complete_graph(n: int) -> Graph:
    """K_n as its node and edge counts: O(1) to build, with the neighbour
    sets built on first read of `adj` (see Graph)."""
    if n < 1:
        return Graph(n, ())  # raises Graph's MalformedInputError
    g = Graph.__new__(Graph)
    g.n, g.m = n, n * (n - 1) // 2
    return g


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        return path_graph(n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Hub is node 0."""
    return Graph(n, [(0, i) for i in range(1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    def nid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((nid(r, c), nid(r, c + 1)))
            if r + 1 < rows:
                edges.append((nid(r, c), nid(r + 1, c)))
    return Graph(rows * cols, edges)


def gnp_connected(n: int, p: float, seed: int, max_tries: int = 1000) -> Graph:
    """Erdos-Renyi G(n, p), resampled until connected.

    Deterministic for a fixed (n, p, seed).  Each try flips one coin per pair
    (u, v), u < v, in row-major order; a try that leaves a vertex isolated is
    rejected before any Graph is built.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if n < 1:
        return Graph(n, ())  # raises Graph's MalformedInputError
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    row_len = np.arange(n - 1, -1, -1)  # pairs (u, v > u) in row u
    row_start = np.cumsum(row_len) - row_len
    for _ in range(max_tries):
        # One draw per pair in this order, the same doubles as one
        # rng.random() call per pair.
        hits = np.flatnonzero(rng.random(n * (n - 1) // 2) < p)
        u = np.searchsorted(row_start, hits, side="right") - 1
        v = hits - row_start[u] + u + 1
        if n > 1 and not np.bincount(np.concatenate([u, v]), minlength=n).all():
            continue  # an isolated vertex
        g = Graph(n, zip(u.tolist(), v.tolist()))
        if g.is_connected():
            return g
    raise RuntimeError(f"no connected G({n}, {p}) sample in {max_tries} tries")
