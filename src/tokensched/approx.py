"""Approximate aggregation scheduling on arbitrary graphs.

Pipeline, repeated until one token remains: solve a minimum-vertex-congestion
multicommodity flow on a time-expanded copy of the graph (one commodity per
token holder), sample one random walk per holder from its flow, direct the
sampled paths into source/sink pairs with distinct endpoints, and route the
source tokens to the sinks where they are merged.

The flow's congestion z is never below 2: the |W| units end at the |W|
holders, none at its own source, so some holder absorbs a unit on top of its
own token.  So the flow is first built combinatorially, one path per holder
from a max-flow (_certified_flow); if that reaches z = 2 within D = diameter
steps it is an LP optimum, and no LP is solved.  Otherwise (an odd holder
count, a holder left unrouted, a path over D hops) the LP is built and
solved with HiGHS, as on star-like graphs where holders block each other,
at L = D, 2D, 4D, ... in turn.  Each vertex c bounds z at every L from
below: every component of G - c holding a lone holder sends that holder's
unit into c, which also keeps its own token if it holds one.  A bound above
2 rules the certificate out, so no max-flow is run for it.  The scan stops
once t_m * L plus min(t_c, t_m) times that bound reaches the best objective
found, since no later L could then win.  Both the bound and the certificate
read one depth-first search and one CSR adjacency that each graph builds
once (core.Graph._dfs), not per round: the capacity matrix is written in CSR
form from them, and the flow is read off the max-flow result's own arrays.

Routing delays merges when computation dominates (t_c > t_m) and merges
eagerly en route otherwise.  Both routers run in lock step, one send per
node per step of t_m rounds.  Route-then-merge forwards packets first in,
first out, all starting at once, with none of the paper's random delays;
merge-on-collision stops forwarding at the first step where nothing moves.
The last few holders are aggregated greedily on a shortest-path tree.

The routers and the endgame only give each node's order of actions.  The
loop keeps one token count per node, appends every fragment's actions to
per-node queues, and times them all with one core._asap call.  The
fragments laid end to end are a valid schedule with the same orders, so by
_asap's retiming argument solve_tc's schedule, with unnamed SENDs, is
never longer; it is validated before it is returned.

All randomness flows from one 64-bit seed through named spawn keys, so runs
are reproducible action-for-action.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from .complete import tree_schedule
from .core import (
    COMPUTE,
    SEND,
    Action,
    DisconnectedGraphError,
    Graph,
    NetworkParams,
    Schedule,
    _asap,
    ceil_log2,
    simulate,  # noqa: F401  (bench/test_bench.py checks tracing restores approx.simulate)
    trivial_upper_bound,
    validate_schedule,
)
from .paths import DirectedPathSet, excise_loops

LP_TOLERANCE = 1e-6
FLOW_EPS = 1e-9
WALK_RETRIES = 100
FALLBACK_W = 12  # at or below this many holders, aggregate on a tree instead of solving LPs


class IterationCapError(RuntimeError):
    """The main loop failed to converge within its iteration budget."""


@dataclass
class FlowLP:
    """A built (not yet solved) congestion LP over the time-expanded graph."""

    graph: Graph
    W: tuple
    steps: int
    cols: list  # (w, step, u, v) per flow column; column n_cols is z
    a_eq: object
    b_eq: object
    a_ub: object
    b_ub: object

    @property
    def n_cols(self) -> int:
        return len(self.cols)


@dataclass
class FlowSolution:
    graph: Graph
    W: tuple
    steps: int
    z: float
    flows: dict  # w -> {(step, u, v): value}
    method: str = "lp"  # "certified" when _certified_flow built it

    def outflow(self, w: int, u: int, step: int) -> list:
        """Positive-flow arcs leaving u at a step, sorted by head id."""
        fw = self.flows[w]
        out = []
        for v in sorted(self.graph.adj[u]):
            val = fw.get((step, u, v), 0.0)
            if val > FLOW_EPS:
                out.append((v, val))
        return out


def _sink_distances(g: Graph, sinks, blocked) -> list:
    """Hop distance to the nearest sink along paths whose interior avoids
    `blocked`; -1 when unreachable."""
    dist = [-1] * g.n
    q = deque()
    for s in sinks:
        dist[s] = 0
        q.append(s)
    while q:
        u = q.popleft()
        for v in g.adj[u]:
            if dist[v] < 0 and v not in blocked:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def build_flow_lp(g: Graph, W, L_hat: int) -> FlowLP:
    """Congestion LP: one unit of flow per holder w, leaving w at step 0 and
    absorbed at the first other holder it reaches; conservation at non-holder
    vertices; z bounds every vertex's total inflow plus its resident token.

    Flow that could neither be reached from a source nor still make it to a
    sink within the remaining steps is pruned away column-wise.
    """
    # scipy is imported on first use: it is most of the package's import
    # time, and commands that solve no LP never need it.
    from scipy.sparse import csr_matrix

    W = tuple(sorted(set(W)))
    if len(W) < 2:
        raise ValueError("need at least two token holders to pair off")
    if L_hat < 1:
        raise ValueError(f"need at least one step, got {L_hat}")
    wset = set(W)
    cols = []
    for w in W:
        dsink = _sink_distances(g, wset - {w}, blocked=wset | {w})
        # Forward reachability of still-moving flow; holders absorb, the
        # origin w is never re-entered.
        first = len(cols)
        alive = {w}
        for r in range(L_hat):
            nxt = set()
            for u in sorted(alive):
                for v in sorted(g.adj[u]):
                    if v == w:
                        continue
                    if v not in wset:
                        if dsink[v] < 0 or dsink[v] > L_hat - (r + 1):
                            continue  # could never reach a sink in time
                        nxt.add(v)
                    cols.append((w, r, u, v))
            alive = nxt
            if not alive:
                break
        if len(cols) == first:
            raise ValueError(
                f"holder {w} cannot reach another holder within {L_hat} steps"
            )

    # Equality rows, keyed (w, step, vertex) and sorted, so each source row
    # (w, 0, w) comes first: a column counts +1 in its source row or -1 in
    # its tail's conservation row, and +1 in its head's next-step row unless
    # the head is a holder.  A non-holder head is entered before step L_hat,
    # since it still has a sink to reach.
    n = len(cols)
    arr = np.array(cols, dtype=np.int64).reshape(n, 4)
    w, r, _, v = arr.T
    idx = np.arange(n)
    enters = ~np.isin(v, W)
    keys = np.concatenate([arr[:, :3], np.stack([w, r + 1, v], axis=1)[enters]])
    eq_keys, eq_row = np.unique(keys, axis=0, return_inverse=True)
    a_eq = csr_matrix(
        (
            np.concatenate([np.where(r == 0, 1.0, -1.0), np.ones(int(enters.sum()))]),
            (eq_row.reshape(-1), np.concatenate([idx, idx[enters]])),
        ),
        shape=(len(eq_keys), n + 1),
    )
    b_eq = (eq_keys[:, 1] == 0).astype(float)
    # Capacity rows, one per vertex with inflow or a resident token: inflow
    # plus resident token <= z.
    verts = np.union1d(v, W)
    a_ub = csr_matrix(
        (
            np.concatenate([np.ones(n), -np.ones(len(verts))]),
            (
                np.concatenate([np.searchsorted(verts, v), np.arange(len(verts))]),
                np.concatenate([idx, np.full(len(verts), n)]),
            ),
        ),
        shape=(len(verts), n + 1),
    )
    b_ub = -np.isin(verts, W).astype(float)
    return FlowLP(g, W, L_hat, cols, a_eq, b_eq, a_ub, b_ub)


def solve_flow_lp(lp: FlowLP) -> FlowSolution:
    """Solve the built LP to within LP_TOLERANCE; deterministic per instance."""
    from scipy.optimize import linprog

    cost = np.zeros(lp.n_cols + 1)
    cost[lp.n_cols] = 1.0
    res = linprog(
        cost,
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"flow LP did not solve: {res.message}")
    flows = {w: {} for w in lp.W}
    x = res.x
    for col, (w, r, u, v) in enumerate(lp.cols):
        val = float(x[col])
        if val > FLOW_EPS:
            flows[w][(r, u, v)] = val
    return FlowSolution(lp.graph, lp.W, lp.steps, float(x[lp.n_cols]), flows)


def xi_bound(g: Graph, p: NetworkParams) -> int:
    """Upper end of the step-count search range: twice the trivial schedule
    bound, measured in sends."""
    return math.ceil(2 * trivial_upper_bound(g, p) / p.t_m)


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

    The preorder and the CSR adjacency are the graph's, built once
    (Graph._dfs); each call writes the capacity matrix straight in CSR form
    from them and reads the edge flows off the max-flow's own arrays.
    """
    W = tuple(sorted(set(W)))
    if len(W) < 2 or len(W) % 2:
        return None
    preorder, _, _, indptr, nbrs = g._dfs
    wset = set(W)
    order = [v for v in preorder if v in wset]
    a_side = order[0::2]
    # Vertex v is entered at 2v and left at 2v + 1; every arc has capacity
    # 2.  An A holder is entered only from s, and a B holder is left only
    # for t, so no path passes a holder.  Rows in order and columns ascending,
    # the canonical CSR form, on which maximum_flow's result depends: row 2v
    # holds v -> t for a B holder, nothing for an A holder, else 2v -> 2v + 1;
    # row 2v + 1 the arcs to 2u for v's neighbours u; row s the A holders.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    n = g.n
    s, t = 2 * n, 2 * n + 1
    not_a = np.ones(n, dtype=bool)  # row 2v holds one arc
    not_a[a_side] = False
    head = 2 * np.arange(n) + 1  # of that arc: t for a holder, as A holders drop out
    head[list(W)] = t
    counts = np.zeros(t + 1, dtype=np.int64)
    counts[0:s:2] = not_a
    counts[1:s:2] = np.diff(indptr)
    counts[s] = len(a_side)
    row_ptr = np.zeros(t + 2, dtype=np.int32)
    np.cumsum(counts, out=row_ptr[1:])
    cols = np.insert(2 * nbrs, indptr[:-1][not_a], head[not_a])
    cols = np.concatenate([cols, 2 * np.sort(a_side) + 1]).astype(np.int32)
    cap = csr_matrix(
        (np.full(len(cols), 2, dtype=np.int32), cols, row_ptr), shape=(t + 1, t + 1)
    )
    res = maximum_flow(cap, s, t)
    if res.flow_value < len(W):
        return None
    # The edge arcs are the positive entries in odd rows below 2n and even
    # columns below 2n.  The split network has no antiparallel arcs, so the
    # reverse residual entries res.flow also holds (2v + 1 -> 2v among them)
    # are all <= 0.
    flow = res.flow
    ptr = flow.indptr[: s + 1]
    rows = np.repeat(np.arange(s), np.diff(ptr))
    heads, units = flow.indices[: ptr[-1]], flow.data[: ptr[-1]]
    on = (units > 0) & (rows % 2 == 1) & (heads % 2 == 0) & (heads < s)

    # Decompose into paths, each the lowest-id way on from where it stands.
    left = {}  # u -> {v: units on u -> v not yet in a path}
    for u, v, f in zip((rows[on] // 2).tolist(), (heads[on] // 2).tolist(), units[on].tolist()):
        left.setdefault(u, {})[v] = f
    paths = []
    for a in a_side:
        for _ in range(2):
            walk = [a]
            while len(walk) == 1 or walk[-1] not in wset:
                nbrs_left = left[walk[-1]]
                v = min(nbrs_left)
                nbrs_left[v] -= 1
                if not nbrs_left[v]:
                    del nbrs_left[v]
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
    for u in a_side:
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
    token, so z >= the count at c for every L.  The graph's low-link DFS
    (Graph._dfs) marks the DFS children whose subtrees G - c cuts off;
    one pass in reverse preorder adds up their holder counts; what remains
    of G - c, the part through c's parent, holds the other holders.  O(n).
    The bound is the graph's, whichever DFS tree finds it.
    """
    preorder, parent, cut, _, _ = g._dfs
    wset = set(W)
    held = [0] * g.n  # holders in v's DFS subtree
    cut_off = [0] * g.n  # holders in the subtrees G - v separates from v's parent
    lone = [0] * g.n  # of those subtrees, the ones holding exactly one holder
    for v in reversed(preorder):  # every child before its parent
        h = held[v] = held[v] + (v in wset)
        p = parent[v]
        if p >= 0:
            held[p] += h
            if cut[v]:
                cut_off[p] += h
                lone[p] += h == 1
    total = len(wset)
    bound = 2
    for c in range(g.n):
        own = int(c in wset)
        bound = max(bound, own + lone[c] + (total - own - cut_off[c] == 1))
    return bound


def choose_L(g: Graph, W, p: NetworkParams):
    """Pick the step count minimizing t_m * L + min(t_c, t_m) * z(L) over the
    geometric grid {D, 2D, 4D, ...} up to xi, plus xi itself.

    Every LP has z >= 2: the |W| units are absorbed at the |W| holders, none
    at its own source, so some holder takes a unit on top of its resident
    token.  An integral flow with z = 2 at L = D (_certified_flow) is thus
    optimal there, and every later grid point already loses on t_m * L, so
    it is returned without an LP; it is sought only when z_low, the bound
    _forced_inflow puts on z(L) for every L, is 2.  Otherwise the LPs are
    built and solved in grid order, and the scan stops at the first L where
    t_m * L + min(t_c, t_m) * z_low reaches the best objective seen: from
    there on every grid point's objective is at least the best, and only
    one lower by more than LP_TOLERANCE would replace it, so the skipped
    LPs change nothing.
    """
    d = max(1, g.diameter())
    z_low = _forced_inflow(g, W)
    flow = _certified_flow(g, W, d) if z_low == 2 else None
    if flow is not None:
        return d, flow
    xi = xi_bound(g, p)
    grid = []
    L = d
    while L < xi:
        grid.append(L)
        L *= 2
    grid.append(xi)
    weight = min(p.t_c, p.t_m)
    best = None  # (objective, L, solution)
    for L in grid:
        if best is not None and p.t_m * L + weight * z_low >= best[0]:
            break
        sol = solve_flow_lp(build_flow_lp(g, W, L))
        obj = p.t_m * L + weight * sol.z
        if best is None or obj < best[0] - LP_TOLERANCE:
            best = (obj, L, sol)
    return best[1], best[2]


def _walk(flow: FlowSolution, w: int, wset: set, rng) -> tuple | None:
    """One random walk on w's flow, stopping at the first other holder of
    wset, the flow's holders."""
    path = [w]
    u, step = w, 0
    while step < flow.steps:
        out = flow.outflow(w, u, step)
        if not out:
            return None
        total = sum(val for _, val in out)
        pick = rng.random() * total
        acc = 0.0
        v = out[-1][0]
        for cand, val in out:
            acc += val
            if pick <= acc:
                v = cand
                break
        path.append(v)
        if v in wset:
            return tuple(path)
        u, step = v, step + 1
    return None


def sample_paths(flow: FlowSolution, L_hat: int, W, seed: int) -> tuple:
    """Sampled holder-to-holder paths with bounded congestion.

    Takes ceil(4 log2 n) + 1 independent samples of one walk per holder
    (walks that dead-end are retried up to WALK_RETRIES times, then that
    holder is dropped from the sample), excises loops, and in each sample
    keeps only paths through no vertex hit by more than
    10 * z * log2(max(L_hat, 2)) sampled paths.  Returns the kept paths of
    the first sample keeping the most, and stops early once a sample keeps a
    path for every holder.

    A certified flow is one path per holder, which a walk follows whatever
    it draws, with at most z = 2 paths on any vertex: the first sample keeps
    every path, so the paths are read off the flow with no random draws.
    """
    W = tuple(sorted(set(W)))
    if flow.method == "certified":
        return tuple((w, *(v for _, _, v in sorted(flow.flows[w]))) for w in W)
    n = flow.graph.n
    n_samples = math.ceil(4 * math.log2(max(n, 2))) + 1
    threshold = 10.0 * flow.z * math.log2(max(L_hat, 2))
    wset = set(flow.W)
    best_kept = ()
    for i in range(n_samples):
        sample = []
        for w in W:
            # The same stream as default_rng(SeedSequence(...)).
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i, w)))
            )
            for _ in range(WALK_RETRIES):
                walk = _walk(flow, w, wset, rng)
                if walk is not None:
                    sample.append(tuple(excise_loops(walk)))
                    break
        hits = Counter()
        for path in sample:
            hits.update(path)
        kept = tuple(
            path for path in sample if max(hits[v] for v in path) <= threshold
        )
        if len(kept) > len(best_kept):
            best_kept = kept
            if len(best_kept) == len(W):
                break  # no later sample can keep more
    return best_kept


def assign_paths(paths, W) -> DirectedPathSet:
    """Direct undirected holder-to-holder paths into source/sink pairs.

    On the functional digraph (each path owner points at its far endpoint):
    vertices with two or more incoming paths pair those paths off back to
    back (dropping one if odd) and leave the picture with their neighbors;
    the leftover in/out-degree-one graph splits into chains and cycles whose
    alternate arcs become the remaining directed paths.  Sources and sinks
    are all distinct; congestion never increases and path length at most
    doubles.  Costs O(h * |W|) for h hubs, plus the total path length.
    """
    wset = set(W)
    by_source = {}
    for path in paths:
        if path[0] in by_source:
            raise ValueError(f"two paths share the source {path[0]}")
        if path[0] not in wset or path[-1] not in wset or path[0] == path[-1]:
            raise ValueError(f"path {path} does not join two distinct holders")
        by_source[path[0]] = tuple(path)

    # into[v]: the owners whose path ends at v, ascending, for every vertex
    # still in play; a vertex leaves the picture with its list.
    into = {v: [] for path in by_source.values() for v in (path[0], path[-1])}
    for w in sorted(by_source):
        into[by_source[w][-1]].append(w)
    directed = []
    while into:
        v = min(into, key=lambda u: (-len(into[u]), u))
        nbrs = into[v]
        if len(nbrs) < 2:
            break
        for u in (v, *nbrs):
            del into[u]
        if len(nbrs) % 2 == 1:
            nbrs.pop()  # highest id
        for a, b in zip(nbrs[0::2], nbrs[1::2]):
            joined = by_source[a] + tuple(reversed(by_source[b][:-1]))
            directed.append(tuple(excise_loops(joined)))
        if v in by_source and by_source[v][-1] in into:
            into[by_source[v][-1]].remove(v)

    # What survives has in- and out-degree at most one: chains and cycles.
    # Walk each from its head (chains first), or from its lowest vertex
    # (cycles), and keep alternate arcs, never the last one of the walk.
    succ = {w: by_source[w][-1] for w in into if w in by_source and by_source[w][-1] in into}
    heads = sorted(set(succ) - set(succ.values()))
    visited = set()
    for start in heads + sorted(succ):
        if start in visited:
            continue
        walk = [start]
        while walk[-1] in succ and succ[walk[-1]] != start:
            walk.append(succ[walk[-1]])
        visited.update(walk)
        directed.extend(by_source[u] for u in walk[:-1:2])
    ps = DirectedPathSet(tuple(directed))
    ps.check_endpoints(members=wset)
    ps.check_simple()
    return ps


def opt_route(p: NetworkParams, dp: DirectedPathSet) -> Schedule:
    """Send every source token to its sink along its path (unnamed SENDs only).

    Routing runs in lock step: step k starts at round 1 + k * t_m, and a
    send takes the whole step.  Every packet starts at step 0, with no
    delay.  At each step every node that holds a packet sends the one that
    reached it first (packets landing together queue in their senders' id
    order), and what it sends lands before the next step.  The declared
    length is the last occupied round.

    First-in-first-out forwarding is work-conserving: at each of the at
    most dil nodes it is sent from, a packet waits behind at most con - 1
    others, so routing takes at most con * dil steps.  That is all a
    fragment promises; the paper's O((con + dil) log n) steps w.h.p. come
    from random start delays, which are not drawn.  In solve_tc only each
    node's order of sends survives, and its core._asap timing never
    lengthens what it is given.
    """
    dp.check_endpoints()
    queues = {}  # node -> FIFO of (path, position on it)
    for path in dp.paths:
        queues.setdefault(path[0], deque()).append((path, 0))
    actions = []
    step = 0
    while queues:
        r = 1 + step * p.t_m
        # A packet queued in this step waits behind its node's older ones,
        # and a node first queued in it is not in this step's list, so no
        # packet moves twice in one step.
        for u in sorted(queues):
            queue = queues[u]
            path, at = queue.popleft()
            if not queue:
                del queues[u]
            nxt = path[at + 1]
            actions.append(Action(r, u, SEND, nxt))
            if at + 2 < len(path):
                queues.setdefault(nxt, deque()).append((path, at + 1))
        step += 1
    return Schedule(step * p.t_m, tuple(actions))


def route_paths_m(p: NetworkParams, dp: DirectedPathSet) -> Schedule:
    """Route all source tokens to their sinks, then merge once at every sink.

    The merge-last strategy for t_c > t_m: sinks stay idle until routing has
    finished, then each sink folds its arrived token into its own, cutting
    the token count by exactly the number of paths.  The length is at most
    t_m * con * dil + t_c, by opt_route's bound.
    """
    routed = opt_route(p, dp)
    compute_round = routed.length + 1
    computes = tuple(Action(compute_round, s, COMPUTE) for s in sorted(dp.sinks))
    return Schedule(routed.length + p.t_c, routed.actions + computes)


def route_paths_c(g: Graph, p: NetworkParams, dp: DirectedPathSet,
                  counts: list | None = None) -> Schedule:
    """Forward tokens with merge-on-collision, for t_c <= t_m.

    counts[v] is node v's token count, by default one token at every source
    and sink.  Forwarding runs in lock step: step k starts at round
    1 + k * t_m.  At each step every node other than a sink that holds
    exactly one token, a routed one with path still to walk, forwards it;
    everything sent lands before the next step.  A forwarder holds only the
    token it forwards, so its SEND is unnamed.  A node that holds two or
    more tokens keeps them and keeps what arrives.  Forwarding ends at the
    first step where nothing moves (at most dil steps), and in the next
    round every node starts merging its pile down to one token (at most
    con * t_c more rounds).  At least half the source tokens get merged.
    """
    dp.check_endpoints()
    if counts is None:
        holders = set(dp.sources) | set(dp.sinks)
        counts = [int(v in holders) for v in range(g.n)]
    piles = list(counts)
    moving = {}  # node -> (path, position) it forwards this step
    for path in dp.paths:
        src = path[0]
        if piles[src] != 1:
            raise ValueError(f"source {src} must hold exactly one token")
        piles[src] = 0
        moving[src] = (path, 0)
    sinks = set(dp.sinks)
    actions = []
    steps = 0
    while moving:
        r = 1 + steps * p.t_m
        steps += 1
        landed = {}
        for v in sorted(moving):
            path, at = moving[v]
            actions.append(Action(r, v, SEND, path[at + 1]))
            landed.setdefault(path[at + 1], []).append((path, at + 1))
        moving = {}
        for v, arrived in landed.items():
            if v not in sinks and not piles[v] and len(arrived) == 1:
                moving[v] = arrived[0]
            else:
                piles[v] += len(arrived)
    merge_start = steps * p.t_m + 1
    merge_rounds = 0
    for v in range(g.n):
        k = piles[v]
        for i in range(k - 1):
            actions.append(Action(merge_start + i * p.t_c, v, COMPUTE))
        merge_rounds = max(merge_rounds, (k - 1) * p.t_c)
    return Schedule(steps * p.t_m + merge_rounds, tuple(actions))


def _fallback_pairing(g: Graph, p: NetworkParams, counts: list) -> Schedule:
    """Deterministic endgame from counts[v] tokens at each node v: greedy
    aggregation (complete.tree_schedule) down to a single token, on the
    shortest-path tree spanning the holders.  Its root has the smallest
    maximum hop distance to the holders, lowest id on ties; each node's
    parent is its lowest-id neighbour one hop closer to the root.  The
    declared length is the last occupied round."""
    holders = [v for v in range(g.n) if counts[v]]
    far = [max(col) for col in zip(*(g.bfs_distances(h) for h in holders))]
    root = far.index(min(far))
    dist = g.bfs_distances(root)
    parent = [-1] * g.n
    for v in holders:
        while v != root and parent[v] < 0:
            parent[v] = min(u for u in g.adj[v] if dist[u] == dist[v] - 1)
            v = parent[v]
    actions, last = tree_schedule(parent, counts, p)
    return Schedule(last, actions)


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    holders: int
    L: int
    z: float
    con: int
    dil: int
    sources: int
    fragment_rounds: int
    router: str
    flow: str  # FlowSolution.method of the iteration's flow; "-" on fallback rows


def solve_tc(g: Graph, p: NetworkParams, seed: int, report: list | None = None) -> Schedule:
    """Full approximation loop: pair-and-merge a constant fraction of token
    holders per iteration until one token remains.

    Deterministic for fixed (graph, params, seed); the seed drives only the
    path sampling.  Finishes with greedy aggregation
    (complete.tree_schedule) on a shortest-path tree once at most
    FALLBACK_W holders remain or an iteration yields no usable paths.

    Each fragment's actions join per-node queues in its order, and one
    core._asap call times them all: every action starts at the first
    round at which its node is free and holds its tokens.  The fragments
    concatenated end to end are a valid schedule with the same per-node
    orders, and by _asap's docstring that timing never lengthens a valid
    schedule, so the length, the last occupied round, is at most the sum
    of the report rows' fragment_rounds, each within its router's bound
    (opt_route's con * dil steps, not the paper's random-delay bound).

    Raises DisconnectedGraphError on a disconnected graph, and
    IterationCapError after 24 * ceil(log2 n) + 8 iterations (which
    indicates a bug, not bad luck).
    """
    if not g.is_connected():
        raise DisconnectedGraphError(
            "graph is disconnected; aggregation to one token is unsolvable"
        )
    if g.n == 1:
        return Schedule(0)
    counts = [1] * g.n
    queues = [[] for _ in range(g.n)]  # each node's (kind, target) actions in order
    cap = 24 * ceil_log2(g.n) + 8

    def append(frag: Schedule, stats_prefix, router, flow="-"):
        if frag.actions:
            for _, v, kind, target, _ in frag.actions:  # canonical order: by start round
                counts[v] -= 1  # a merge's second operand, or a send's token
                if kind == SEND:
                    counts[target] += 1
                queues[v].append((kind, target))
            if report is not None:
                report.append(IterationStats(*stats_prefix, frag.length, router, flow))

    iteration = 0
    while True:
        holders = [v for v in range(g.n) if counts[v]]
        if sum(counts) == 1:
            break
        if iteration >= cap:
            raise IterationCapError(
                f"no convergence after {cap} iterations; this is a bug"
            )
        iteration += 1
        if len(holders) <= FALLBACK_W:
            frag = _fallback_pairing(g, p, counts)
            append(frag, (iteration, len(holders), 0, 0.0, 0, 0, len(holders) - 1), "fallback")
            continue
        W = holders if len(holders) % 2 == 0 else holders[:-1]
        L, flow = choose_L(g, W, p)
        paths = sample_paths(flow, L, W, _iter_seed(seed, iteration))
        dp = assign_paths(paths, W) if paths else DirectedPathSet(())
        if len(dp) == 0:
            frag = _fallback_pairing(g, p, counts)
            append(frag, (iteration, len(holders), L, flow.z, 0, 0, len(holders) - 1), "fallback")
            continue
        if p.t_c > p.t_m:
            frag = route_paths_m(p, dp)
            router = "m"
        else:
            frag = route_paths_c(g, p, dp, counts)
            router = "c"
        append(frag, (iteration, len(holders), L, flow.z, dp.con, dp.dil, len(dp)),
               router, flow.method)

    sched = Schedule(*reversed(_asap(p, queues, [1] * g.n)))
    final = validate_schedule(g, p, sched)
    if not final.valid:
        raise RuntimeError(f"assembled schedule is invalid: {final.violation}")
    return sched


def _iter_seed(seed: int, iteration: int) -> int:
    return int(
        np.random.SeedSequence(seed, spawn_key=(iteration,)).generate_state(1)[0]
    )
