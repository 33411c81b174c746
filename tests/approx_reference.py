"""Independent references for the certificate and the router of
`tokensched.approx` and the random graphs of `tokensched.generators`.

`_dfs_preorder`, `_certified_flow` and `_forced_inflow` are the functions
`approx` replaced, kept as they were: every call runs its own depth-first
search, builds the node-split capacity matrix through a COO to CSR
conversion and reads the flow back by sparse fancy indexing.
`gnp_connected` is the sampler `generators` replaced, which flips one coin
per pair of a Python list of all n(n - 1)/2 pairs.  On every input these
functions must return what those in `approx` and `generators` return.

`opt_route` and `_route_once` are the router `approx` replaced, kept as
they were: packets take random start delays, queue in one heap per node
keyed by (ready step, arrival order), and each send is named by its path's
source.  With every delay 0, `_route_once` must send what `approx.opt_route`
sends, at the same rounds, from the same nodes, to the same targets.
"""

from heapq import heappop, heappush

import numpy as np

from tokensched.approx import FlowSolution
from tokensched.core import SEND, Action, Graph, NetworkParams, Schedule, ceil_log2
from tokensched.paths import DirectedPathSet, excise_loops

ROUTE_ATTEMPTS = 20


def _dfs_preorder(g: Graph) -> list:
    """Vertices in depth-first preorder from vertex 0, neighbours ascending."""
    seen = [False] * g.n
    order = []
    stack = [0]
    while stack:
        u = stack.pop()
        if not seen[u]:
            seen[u] = True
            order.append(u)
            stack.extend(sorted(g.adj[u], reverse=True))
    return order


def _certified_flow(g: Graph, W, L: int) -> FlowSolution | None:
    """An integral flow of build_flow_lp(g, W, L) with z = 2, or None.

    Holders alternate between halves A and B along the depth-first preorder
    from vertex 0.  A max-flow on the node-split graph sends 2 units out of
    every A holder into B holders (2 each), through non-holders of capacity
    2, never through a holder.  Its 2|A| paths (loops excised) make every
    holder of degree 2 in the bipartite A-B multigraph, a union of even
    cycles; walking each cycle, every holder sends on one path and absorbs
    the next.  So each holder absorbs exactly one unit, never its own, and
    every non-holder carries at most two: with every path at most L hops,
    that is a feasible LP point at z = 2.  None when |W| is odd, some holder
    stays unrouted or some path is longer than L.
    """
    W = tuple(sorted(set(W)))
    if len(W) < 2 or len(W) % 2:
        return None
    wset = set(W)
    order = [v for v in _dfs_preorder(g) if v in wset]
    a_side = set(order[0::2])
    # Vertex v is entered at 2v and left at 2v + 1; every arc has capacity
    # 2.  An A holder is entered only from s, and a B holder is left only
    # for t, so no path passes a holder.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    n = g.n
    s, t = 2 * n, 2 * n + 1
    edges = [(u, v) for u in range(n) for v in sorted(g.adj[u])]
    tail = [s if v in a_side else 2 * v for v in range(n)]
    head = [t if v in wset and v not in a_side else 2 * v + 1 for v in range(n)]
    tail += [2 * u + 1 for u, _ in edges]
    head += [2 * v for _, v in edges]
    cap = csr_matrix(
        (np.full(len(tail), 2, dtype=np.int32), (tail, head)), shape=(t + 1, t + 1)
    )
    res = maximum_flow(cap, s, t)
    if res.flow_value < len(W):
        return None
    flow = np.asarray(res.flow[tail[n:], head[n:]]).ravel()

    # Decompose into paths, each the lowest-id way on from where it stands.
    left = {}  # u -> {v: units on u -> v not yet in a path}
    for (u, v), f in zip(edges, flow.tolist()):
        if f:
            left.setdefault(u, {})[v] = f
    paths = []
    for a in order[0::2]:
        for _ in range(2):
            walk = [a]
            while len(walk) == 1 or walk[-1] not in wset:
                nbrs = left[walk[-1]]
                v = min(nbrs)
                nbrs[v] -= 1
                if not nbrs[v]:
                    del nbrs[v]
                walk.append(v)
            paths.append(tuple(excise_loops(walk)))
    if max(len(path) for path in paths) - 1 > L:
        return None

    ends = {w: [] for w in W}
    for i, path in enumerate(paths):
        ends[path[0]].append(i)
        ends[path[-1]].append(i)
    taken = [False] * len(paths)
    flows = {}
    for u in order[0::2]:
        while u not in flows:
            i = next(i for i in ends[u] if not taken[i])
            taken[i] = True
            path = paths[i] if paths[i][0] == u else paths[i][::-1]
            flows[u] = {(r, *arc): 1.0 for r, arc in enumerate(zip(path, path[1:]))}
            u = path[-1]
    return FlowSolution(g, W, L, 2.0, flows, method="certified")


def _forced_inflow(g: Graph, W) -> int:
    """A lower bound on the congestion z of build_flow_lp(g, W, L), whatever
    L: max(2, max over vertices c of [c in W] + the number of components of
    G - c holding exactly one holder).  g must be connected.

    Such a lone holder's unit must reach another holder, all of which lie
    outside its component, so it enters c (and ends there when c is a
    holder).  c's capacity row counts all that inflow plus c's resident
    token, so z >= the count at c for every L.  One iterative low-link DFS
    from vertex 0 finds, for each c, its DFS children whose subtrees G - c
    cuts off (low[child] >= disc[c]) and their holder counts; what remains
    of G - c, the part through c's parent, holds the other holders.  O(n + m).
    """
    wset = set(W)
    disc = [-1] * g.n
    low = [0] * g.n
    held = [0] * g.n  # holders in v's DFS subtree
    cut_off = [0] * g.n  # holders in the subtrees G - v separates from v's parent
    lone = [0] * g.n  # of those subtrees, the ones holding exactly one holder
    parent = [-1] * g.n
    disc[0], held[0] = 0, int(0 in wset)
    stack = [(0, iter(g.adj[0]))]
    while stack:
        u, nbrs = stack[-1]
        for v in nbrs:
            d = disc[v]
            if d < 0:
                parent[v] = u
                disc[v] = low[v] = len(stack)  # its depth: only ancestors are compared
                held[v] = int(v in wset)
                stack.append((v, iter(g.adj[v])))
                break
            if d < low[u]:  # not min(): this loop is the hot path
                low[u] = d
        else:
            stack.pop()
            p = parent[u]
            if p >= 0:
                if low[u] < low[p]:
                    low[p] = low[u]
                held[p] += held[u]
                if low[u] >= disc[p]:
                    cut_off[p] += held[u]
                    lone[p] += held[u] == 1
    total = len(wset)
    bound = 2
    for c in range(g.n):
        own = int(c in wset)
        bound = max(bound, own + lone[c] + (total - own - cut_off[c] == 1))
    return bound


def opt_route(g: Graph, p: NetworkParams, dp: DirectedPathSet, seed: int) -> Schedule:
    """Send every source token to its sink along its path (SENDs only).

    Routing runs in lock step: step k starts at round 1 + k * t_m, and a
    send takes the whole step.  Packets take independent uniform random
    starting delays in [0, con) steps and then pipeline; at each step every
    node with a ready packet sends the one that became ready first (ties to
    the earlier queued), and receiving is free.  If the makespan exceeds
    8 * (con + dil) * ceil(log2(n + 2)) steps the delays are redrawn, up to
    ROUTE_ATTEMPTS times, keeping the best run.  Each SEND names its packet
    by the path's source, as when every source starts with its own
    singleton; solve_tc's timing by core._asap drops the names.
    """
    dp.check_endpoints()
    con, dil = dp.con, dp.dil
    cutoff = 8 * (con + dil) * ceil_log2(g.n + 2) * p.t_m
    best = None  # (makespan, actions)
    for attempt in range(ROUTE_ATTEMPTS):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(1000 + attempt,))
        )
        delays = {
            path: int(rng.integers(0, max(con, 1))) for path in dp.paths
        }
        actions, makespan = _route_once(p, dp, delays)
        if best is None or makespan < best[0]:
            best = (makespan, actions)
        if best[0] <= cutoff:
            break
    makespan, actions = best[0], best[1]
    return Schedule(makespan, actions)


def _route_once(p, dp, delays):
    """One lock-step run; returns the actions and the last occupied round."""
    queues = {}  # node -> heap of (ready step, seq, path, position on it)
    for seq, path in enumerate(dp.paths):
        heappush(queues.setdefault(path[0], []), (delays[path], seq, path, 0))
    seq = len(dp.paths)
    actions = []
    step = 0
    while queues:
        r = 1 + step * p.t_m
        for u in sorted(queues):
            queue = queues[u]
            if queue[0][0] > step:
                continue
            _, _, path, at = heappop(queue)
            if not queue:
                del queues[u]
            nxt = path[at + 1]
            actions.append(Action(r, u, SEND, nxt, path[0]))
            if at + 2 < len(path):
                heappush(queues.setdefault(nxt, []), (step + 1, seq, path, at + 1))
                seq += 1
        step += 1
    return tuple(actions), step * p.t_m


def gnp_connected(n: int, p: float, seed: int, max_tries: int = 1000) -> Graph:
    """Erdos-Renyi G(n, p), resampled until connected.


    Deterministic for a fixed (n, p, seed).
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(max_tries):
        # One draw per pair in this order, the same doubles as one
        # rng.random() call per pair.
        coins = rng.random(len(pairs)).tolist()
        g = Graph(n, [e for e, coin in zip(pairs, coins) if coin < p])
        if g.is_connected():
            return g
    raise RuntimeError(f"no connected G({n}, {p}) sample in {max_tries} tries")
