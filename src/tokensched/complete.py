"""Optimal aggregation scheduling on complete graphs.

The recursive aggregation tree grown for a round budget R is the largest tree
that greedy aggregation can finish within R rounds: a single leaf when
R < t_c + t_m, otherwise the tree for R - t_c with the tree for R - t_c - t_m
joined under its root as one extra (last) subtree.  The optimal schedule for
K_n greedily aggregates on the smallest such tree with at least n nodes,
pruned down to exactly n nodes.

tree_schedule is the one greedy aggregation scheduler: it runs on any parent
array over graph ids with any starting token counts, and approx's endgame
uses it on a shortest-path tree of its graph.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from itertools import islice

from .core import COMPUTE, SEND, Action, NetworkParams, Schedule


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


def _child_budgets(budget: int, p: NetworkParams) -> list:
    """Budgets of the root's subtrees, in child order (joined subtree last)."""
    buds = []
    b = budget
    while b >= p.t_c + p.t_m:
        buds.append(b - p.t_c - p.t_m)
        b -= p.t_c
    buds.reverse()
    return buds


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
    parent = [-1]
    stack = [(0, R)]
    while stack:
        node, budget = stack.pop()
        buds = _child_budgets(budget, p)
        kids = range(len(parent), len(parent) + len(buds))
        parent.extend([node] * len(buds))
        # Visit in reverse so descent follows child order.
        stack.extend(zip(reversed(kids), reversed(buds)))
    return AggTree(R, tuple(parent))


def r_star(n: int, p: NetworkParams) -> int:
    """Smallest round budget whose aggregation tree has at least n nodes."""
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    return next(R for R, size in enumerate(_sizes(p)) if size >= n)


def prune_tree(tree: AggTree, n: int) -> AggTree:
    """Drop leaves, deepest first (ties to the larger id), until n nodes remain.

    Greedy aggregation on the pruned tree is never slower than on the full
    tree, so the budget R is kept.
    """
    if not (1 <= n <= tree.size):
        raise ValueError(f"cannot prune {tree.size}-node tree to {n} nodes")
    if n == tree.size:
        return tree
    parent = tree.parent
    size = len(parent)
    depth = [0] * size
    nchild = [0] * size
    for u in range(1, size):
        depth[u] = depth[parent[u]] + 1
        nchild[parent[u]] += 1
    # Each node enters the heap once, as a leaf; the root never does, since
    # it has children whenever size > n >= 1.
    heap = [(-depth[u], -u) for u in range(size) if nchild[u] == 0]
    heapq.heapify(heap)
    alive = [True] * size
    for _ in range(size - n):
        u = -heapq.heappop(heap)[1]
        alive[u] = False
        par = parent[u]
        nchild[par] -= 1
        if nchild[par] == 0 and par != 0:
            heapq.heappush(heap, (-depth[par], -par))
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
    node by its index u.  Rules, applied whenever a node is free: with two or
    more tokens it merges; a non-root with exactly one token that has heard
    from every child sends to its parent.

    Precondition, not checked: every leaf holds at least one token and no
    node off the tree holds any.  Otherwise the loop stops early with tokens
    left over.
    """
    size = len(parent)
    want = [0] * size  # arrivals to hear before sending
    for q in parent:
        if q >= 0:
            want[q] += 1
    tokens = list(tokens)
    heard = [0] * size
    busy_until = [0] * size
    actions = []
    # Event queue: (round, kind, node) with kind 0 = token arrival (counted
    # when popped, i.e. at delivery), kind 1 = wake-up.  A busy node re-queues
    # itself for its free round; processing is otherwise idempotent.
    heap = [
        (1, 1, u) for u in range(size)
        if (want[u] == 0 and parent[u] >= 0) or tokens[u] >= 2
    ]
    heapq.heapify(heap)
    while heap:
        r, kind, u = heapq.heappop(heap)
        if kind == 0:
            tokens[u] += 1
            heard[u] += 1
        if busy_until[u] >= r:
            heapq.heappush(heap, (busy_until[u] + 1, 1, u))
            continue
        if tokens[u] >= 2:
            actions.append(Action(r, u, COMPUTE))
            busy_until[u] = r + p.t_c - 1
            tokens[u] -= 1  # merge lands at r + t_c; only u reads this, when free
            heapq.heappush(heap, (r + p.t_c, 1, u))
        elif parent[u] >= 0 and tokens[u] == 1 and heard[u] == want[u]:
            # Sends at most once: every child has been heard, so u never
            # holds a token again.
            actions.append(Action(r, u, SEND, parent[u]))
            busy_until[u] = r + p.t_m - 1
            tokens[u] = 0
            heapq.heappush(heap, (r + p.t_m, 0, parent[u]))
        # Otherwise nothing to do; a later arrival re-queues the node.
    return tuple(actions), max(busy_until, default=0)


def greedy_schedule(tree: AggTree, p: NetworkParams) -> Schedule:
    """Greedy aggregation on the tree, one token per node (leaves therefore
    send in round 1).  The declared schedule length is the tree's budget R;
    on a budget-R tree aggregation always completes within R rounds.
    """
    return Schedule(tree.R, tree_schedule(tree.parent, [1] * tree.size, p)[0])


def greedy_completion_round(R: int, p: NetworkParams) -> int:
    """Round by which greedy aggregation on the budget-R tree holds one token.

    Computed by recurrence over budgets, without building the tree: a subtree
    finished at round c sends during [c + 1, c + t_m] and its parent can merge
    from round c + t_m + 1 on; a parent chains merges greedily over its
    children's arrivals.  Serves as an independent check on greedy_schedule.
    """

    comp = []  # comp[b]: completion round on the budget-b tree
    for budget in range(R + 1):
        finish = 0  # free from round finish + 1
        for a in sorted(comp[b] + p.t_m + 1 for b in _child_budgets(budget, p)):
            finish = max(a, finish + 1) + p.t_c - 1
        comp.append(finish)
    return comp[R]


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

    def iceil(x: float) -> int:
        return math.ceil(x - 1e-9)

    naive = iceil(lg * (p.t_c + p.t_m) + lg * p.t_c)
    pipelined = iceil(2 * p.t_c * lg + p.t_m * lg)
    return (naive, pipelined, r_star(n, p), iceil(p.t_c * lg))
