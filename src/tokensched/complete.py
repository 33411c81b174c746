"""Optimal aggregation scheduling on complete graphs.

The recursive aggregation tree grown for a round budget R is the largest tree
that greedy aggregation can finish within R rounds: a single leaf when
R < t_c + t_m, otherwise the tree for R - t_c with the tree for R - t_c - t_m
joined under its root as one extra (last) subtree.  The optimal schedule for
K_n greedily aggregates on the smallest such tree with at least n nodes,
pruned down to exactly n nodes.

Greedy aggregation merges at a node whenever it is free and holds two
tokens, and otherwise waits for the next token to land; core._asap, the one
timing engine, applies that rule.  tree_schedule runs it on any parent array
over graph ids with any starting token counts; approx's endgame uses it on a
shortest-path tree of its graph.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice

from .core import COMPUTE, SEND, NetworkParams, Schedule, _asap, _iceil, _nogc


def _sizes(p: NetworkParams):
    """Tree sizes for budgets 0, 1, 2, ...: one node below t_c + t_m, then
    |T(R)| = |T(R - t_c)| + |T(R - t_c - t_m)|."""
    w = p.t_c + p.t_m
    last = deque([1] * w, maxlen=w)  # sizes for budgets R - w .. R - 1
    yield from last
    while True:
        last.append(last[0] + last[-p.t_c])
        yield last[-1]


def tree_size(R: int, p: NetworkParams) -> int:
    """Node count of the aggregation tree for budget R, without building it."""
    if R < 0:
        raise ValueError(f"round budget must be >= 0, got {R}")
    return next(islice(_sizes(p), R, None))


@dataclass(frozen=True)
class AggTree:
    """Rooted aggregation tree grown for round budget R, as a parent array.

    parent[0] == -1 marks the root (node 0); every other node's parent has a
    smaller id, and each node's children have consecutive ids in join order.
    """

    R: int
    parent: tuple

    @property
    def size(self) -> int:
        return len(self.parent)

    @_nogc
    def edges(self) -> list:
        par = self.parent
        return [(par[u], u) for u in range(1, len(par))]


def build_tree(R: int, p: NetworkParams) -> AggTree:
    """Materialize the aggregation tree for budget R.

    Node count equals tree_size(R, p); callers should check the size first
    for large budgets (growth is exponential in R).
    """
    if R < 0:
        raise ValueError(f"round budget must be >= 0, got {R}")
    w, t_c = p.t_c + p.t_m, p.t_c
    parent = [-1]
    stack = [(0, R)] if R >= w else []  # (node, budget) of nodes with children
    while stack:
        node, budget = stack.pop()
        # The k children's budgets step by t_c up to budget - w (the joined
        # subtree, last).  Leaves (budget < w) take their ids here and are
        # never pushed; the rest go on in reverse, so descent is in order.
        k = (budget - w) // t_c + 1
        parent.extend([node] * k)
        last = len(parent) - 1
        stack.extend(zip(range(last, last - k, -1), range(budget - w, w - 1, -t_c)))
    return AggTree(R, tuple(parent))


def r_star(n: int, p: NetworkParams) -> int:
    """Smallest round budget whose aggregation tree has at least n nodes."""
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    return next(R for R, size in enumerate(_sizes(p)) if size >= n)


def prune_tree(tree: AggTree, n: int) -> AggTree:
    """Drop leaves, deepest first (ties to the larger id), until n nodes remain.

    The deepest remaining node is always a leaf, so this keeps the n nodes
    that come first in (depth, id) order, relabelled in id order.  Greedy
    aggregation on the pruned tree is never slower than on the full tree, so
    the budget R is kept.
    """
    if not (1 <= n <= tree.size):
        raise ValueError(f"cannot prune {tree.size}-node tree to {n} nodes")
    if n == tree.size:
        return tree
    parent = tree.parent
    size = len(parent)
    depth = [0] * size
    for u in range(1, size):
        depth[u] = depth[parent[u]] + 1
    alive = [False] * size
    for u in sorted(range(size), key=depth.__getitem__)[:n]:  # stable: ties by id
        alive[u] = True
    label = [0] * size
    kept = [-1]
    for u in range(1, size):
        if alive[u]:
            label[u] = len(kept)
            kept.append(label[parent[u]])
    return AggTree(tree.R, tuple(kept))


def tree_schedule(parent: list, tokens: list, p: NetworkParams) -> tuple:
    """Greedy aggregation on a rooted tree: (actions, last occupied round).

    parent[u] is u's parent, or -1 for the root and for nodes off the tree;
    tokens[u] is u's starting token count, 0 on a relay.  Actions name each
    node by its index u.  Node u holding k tokens of its own and from its
    children merges k - 1 times and then, unless it is the root, sends the
    result to its parent, each action as early as core._asap allows: it
    merges whenever it is free with two or more tokens, and sends once it is
    free with one token and has heard from every child.

    Every leaf must hold a token and no node off the tree any; a tokenless
    leaf raises ValueError naming the lowest node that is left stuck.
    """
    k = list(tokens)
    for q in parent:
        if q >= 0:
            k[q] += 1
    merge = ((COMPUTE, None),)
    queues = [merge * (c - 1) + ((SEND, q),) if q >= 0 else merge * (c - 1)
              for c, q in zip(k, parent)]
    return _asap(p, queues, tokens)


@_nogc
def greedy_schedule(tree: AggTree, p: NetworkParams) -> Schedule:
    """Greedy aggregation on the tree, one token per node (leaves therefore
    send in round 1).  The declared schedule length is the tree's budget R;
    on a budget-R tree aggregation always completes within R rounds.
    """
    return Schedule(tree.R, tree_schedule(tree.parent, [1] * tree.size, p)[0])


def opt_complete(n: int, p: NetworkParams) -> Schedule:
    """Optimal aggregation schedule on the complete graph K_n.

    Builds the tree for budget r_star(n), prunes it to exactly n nodes, and
    greedily aggregates on it; tree node u is vertex u of K_n.  The schedule
    only sends along the tree's edges and has length r_star(n, p).
    """
    R = r_star(n, p)
    return greedy_schedule(prune_tree(build_tree(R, p), n), p)


def baseline_lengths(n: int, p: NetworkParams) -> tuple:
    """(naive_binary, pipelined_binary, optimal, compute_lb) round counts.

    The two binary-tree baselines evaluate the usual lock-step and
    root-pipelined aggregation estimates on a balanced binary tree; `optimal`
    is r_star(n); compute_lb is ceil(t_c * log2 n).
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    if n == 1:
        return (0, 0, 0, 0)
    lg = math.log2(n)
    naive = _iceil(lg * (p.t_c + p.t_m) + lg * p.t_c)
    pipelined = _iceil(2 * p.t_c * lg + p.t_m * lg)
    return (naive, pipelined, r_star(n, p), _iceil(p.t_c * lg))
