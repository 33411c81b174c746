"""Approximate aggregation scheduling on arbitrary graphs.

Pipeline, repeated until one token remains: solve a minimum-vertex-congestion
multicommodity flow on a time-expanded copy of the graph (one commodity per
token holder), sample one random walk per holder from its flow, direct the
sampled paths into source/sink pairs with distinct endpoints, and route the
source tokens to the sinks where they are merged.

Each vertex c bounds the flow's congestion z from below, at every step
count L: every component of G - c holding a lone holder sends that holder's
unit into c, which also keeps its own token if it holds one; and z >= 2,
since the |W| units end at the |W| holders, none at its own source.  So the
flow is first built combinatorially, one path per holder from a max-flow on
the node-split graph: at a bound of 2 by pairing holders off
(_certified_flow), above it at each vertex's own count (_forced_flow, as on
a star, where every leaf's unit must enter the hub).  If its paths fit in
D = diameter steps it is an LP optimum, and no LP is solved; D itself is
computed only when a path is longer than the eccentricity of vertex 0.
Otherwise the LP is built and solved with HiGHS at L = D, 2D, 4D, ... in
turn, until t_m * L plus min(t_c, t_m) times the bound reaches the best
objective found, since no later L could then win.  The LP is built
column-wise in numpy, every holder's sink distances from one breadth-first
search, and handed to HiGHS's dual simplex through scipy's bundled binding
with scipy.optimize.linprog's options and checks, so it solves as linprog
would.
Both the bounds and the certificates read one depth-first search and one
CSR adjacency that each graph builds once (core.Graph._dfs), not per round.

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
    """A built (not yet solved) congestion LP over the time-expanded graph:
    minimise z subject to a_ub x <= b_ub, a_eq x = b_eq and x >= 0.

    The stacked matrix [a_ub; a_eq] is kept column-wise (CSC), in the
    arrays HiGHS reads: column j's row indices, ascending, and its values
    are indices[k] and data[k] for indptr[j] <= k < indptr[j + 1].  a_ub
    and a_eq are scipy sparse copies of its two row blocks, built on read.
    """

    graph: Graph
    W: tuple
    steps: int
    cols: list  # (w, step, u, v) per flow column; column n_cols is z
    b_ub: np.ndarray
    b_eq: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def n_cols(self) -> int:
        return len(self.cols)

    def _stacked(self):
        from scipy.sparse import csc_array

        shape = (len(self.b_ub) + len(self.b_eq), self.n_cols + 1)
        return csc_array((self.data, self.indices, self.indptr), shape=shape)

    @property
    def a_ub(self):
        return self._stacked()[: len(self.b_ub)]

    @property
    def a_eq(self):
        return self._stacked()[len(self.b_ub) :]


@dataclass
class FlowSolution:
    graph: Graph
    W: tuple
    steps: int
    z: float
    flows: dict  # w -> {(step, u, v): value}
    method: str = "lp"  # "certified" when _certified_flow or _forced_flow built it

    def outflow(self, w: int, u: int, step: int) -> list:
        """Positive-flow arcs leaving u at a step, sorted by head id."""
        fw = self.flows[w]
        out = []
        for v in sorted(self.graph.adj[u]):
            val = fw.get((step, u, v), 0.0)
            if val > FLOW_EPS:
                out.append((v, val))
        return out


def _holder_distances(g: Graph, W) -> tuple:
    """Per vertex v, (d1, h1, d2): the hop distance d1 from v to its nearest
    holder h1, and d2 to its nearest holder other than h1, along paths whose
    interior avoids the holders W; -1 where there is none.  A holder is its
    own nearest, at 0, and has no second.

    So the distance from v to the nearest holder other than w, along paths
    whose interior avoids W, is d1[v] where h1[v] != w and d2[v] where
    h1[v] == w: 0 at every other holder and -1 at w.  One breadth-first
    search from all holders at once, in which each non-holder keeps the
    first two distinct holders that reach it, gives it for every w.  A
    second label d2 is exact: the neighbour before v on a shortest path to
    the nearest holder other than h1[v] holds two labels no farther, or
    that holder as its only one, and one of them is not h1[v].  O(n + m).
    """
    wset = set(W)
    d1, h1, d2 = [-1] * g.n, [-1] * g.n, [-1] * g.n
    queue = deque()
    for w in W:
        d1[w], h1[w] = 0, w
        queue.append((w, w))
    while queue:
        u, h = queue.popleft()
        d = (d1[u] if h1[u] == h else d2[u]) + 1
        for v in g.adj[u]:
            if v in wset:
                continue
            if d1[v] < 0:
                d1[v], h1[v] = d, h
                queue.append((v, h))
            elif d2[v] < 0 and h1[v] != h:
                d2[v] = d
                queue.append((v, h))
    return d1, h1, d2


def build_flow_lp(g: Graph, W, L_hat: int) -> FlowLP:
    """Congestion LP: one unit of flow per holder w, leaving w at step 0 and
    absorbed at the first other holder it reaches; conservation at non-holder
    vertices; z bounds every vertex's total inflow plus its resident token.

    Flow that could neither be reached from a source nor still make it to a
    sink within the remaining steps is pruned away column-wise: w's flow
    enters a non-holder only if some holder other than w is within the
    steps left (_holder_distances), and never re-enters w.  All holders'
    flows advance together, one step at a time over the graph's CSR
    adjacency (Graph._dfs).  Columns are (w, step, u, v), in that order.

    Rows, as FlowLP stores them: one capacity row per vertex with inflow or
    a resident token, ascending by vertex (inflow plus resident token <=
    z); then one equality row per (w, step, vertex) w's flow can be at,
    sorted, so each source row (w, 0, w) comes first.  A flow column counts
    +1 in its head's capacity row, +1 in its source row or -1 in its tail's
    conservation row, and +1 in its head's next-step row unless the head is
    a holder.  z counts -1 in every capacity row.
    """
    W = tuple(sorted(set(W)))
    if len(W) < 2:
        raise ValueError("need at least two token holders to pair off")
    if L_hat < 1:
        raise ValueError(f"need at least one step, got {L_hat}")
    _, _, _, indptr, nbrs = g._dfs
    d1, h1, d2 = map(np.array, _holder_distances(g, W))
    holder = np.zeros(g.n, dtype=bool)
    holder[list(W)] = True
    # State k is a (w, step, u) where w's flow can be: numbered step by
    # step, and within a step by (w, u).  Each step's columns leave its
    # states in (w, u, v) order.
    at_w = at_u = np.array(W)
    first = 0  # the number of the step's first state
    states, steps = [], []
    for r in range(L_hat):
        deg = indptr[at_u + 1] - indptr[at_u]
        tail = np.repeat(np.arange(len(at_u)), deg)
        v = nbrs[np.arange(len(tail)) + (indptr[at_u] - np.cumsum(deg) + deg)[tail]]
        w = at_w[tail]
        dist = np.where(h1[v] != w, d1[v], d2[v])
        keep = (v != w) & (holder[v] | ((dist >= 0) & (dist <= L_hat - (r + 1))))
        tail, w, v = tail[keep], w[keep], v[keep]
        if r == 0 and len(np.unique(tail)) < len(W):
            stuck = min(set(W) - set(w.tolist()))
            raise ValueError(f"holder {stuck} cannot reach another holder within {L_hat} steps")
        enters = ~holder[v]
        nxt, into = np.unique(w[enters] * g.n + v[enters], return_inverse=True)
        head = np.full(len(v), -1)
        head[enters] = first + len(at_u) + into
        steps.append((w, np.full(len(v), r), at_u[tail], v, first + tail, head))
        states.append(at_w)
        first += len(at_u)
        at_w, at_u = nxt // g.n, nxt % g.n
        if not len(at_u):
            break

    # Each step lists its columns and states by w first, so one stable
    # sort by w orders columns by (w, step, u, v) and rows by (w, step, u).
    w, r, u, v, tail, head = (np.concatenate(a) for a in zip(*steps))
    order = np.argsort(w, kind="stable")
    w, r, u, v, tail, head = (a[order] for a in (w, r, u, v, tail, head))
    state_w = np.concatenate(states)
    by_w = np.argsort(state_w, kind="stable")
    eq_row = np.empty(len(state_w), dtype=np.int64)
    eq_row[by_w] = np.arange(len(state_w))
    b_eq = np.zeros(len(state_w))
    b_eq[eq_row[: len(W)]] = 1.0  # states 0..|W|-1 are the sources (w, 0, w)
    in_ub = holder.copy()
    in_ub[v] = True
    n_ub = int(in_ub.sum())
    b_ub = -holder[in_ub].astype(float)
    eq_row += n_ub

    n = len(w)
    enters = head >= 0
    indptr = np.zeros(n + 2, dtype=np.int32)
    np.cumsum(2 + enters, out=indptr[1 : n + 1])
    indptr[n + 1] = indptr[n] + n_ub
    at = indptr[:n]
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.ones(indptr[-1])
    indices[at] = np.cumsum(in_ub)[v] - 1
    indices[at + 1] = eq_row[tail]
    data[at + 1] = np.where(r == 0, 1.0, -1.0)
    indices[at[enters] + 2] = eq_row[head[enters]]
    indices[indptr[n] :] = np.arange(n_ub)
    data[indptr[n] :] = -1.0
    cols = list(zip(w.tolist(), r.tolist(), u.tolist(), v.tolist()))
    return FlowLP(g, W, L_hat, cols, b_ub, b_eq, indptr, indices, data)


def solve_flow_lp(lp: FlowLP) -> FlowSolution:
    """Solve the built LP with HiGHS's dual simplex; deterministic per
    instance.

    The arrays go straight to scipy's bundled HiGHS binding, with the
    options scipy.optimize.linprog(method="highs") passes (presolve on,
    dual simplex, no output), so the solution is linprog's.  Two checks
    apply, as in linprog: HiGHS must report the model optimal within its
    own default primal and dual feasibility tolerances (1e-7), and the
    solution must then meet the bounds x >= 0, the capacity rows and the
    equality rows to within 10 * sqrt(1e-9), about 3.2e-4.  Either failing
    raises RuntimeError.
    """
    # scipy is imported on first use: it is most of the package's import
    # time, and commands that solve no LP never need it.
    from scipy.optimize._highspy import _core as highs

    n_ub, n = len(lp.b_ub), lp.n_cols + 1
    model = highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n
    model.num_row_ = model.a_matrix_.num_row_ = n_ub + len(lp.b_eq)
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = lp.indptr
    model.a_matrix_.index_ = lp.indices
    model.a_matrix_.value_ = lp.data
    cost = np.zeros(n)
    cost[-1] = 1.0
    model.col_cost_ = cost
    model.col_lower_ = np.zeros(n)
    model.col_upper_ = np.full(n, highs.kHighsInf)
    rhs = np.concatenate([lp.b_ub, lp.b_eq])
    model.row_lower_ = np.concatenate([np.full(n_ub, -highs.kHighsInf), lp.b_eq])
    model.row_upper_ = rhs
    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = False
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(model)
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise RuntimeError(f"flow LP did not solve: {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    slack = rhs - np.array(solution.row_value)
    tol = 10 * math.sqrt(1e-9)
    if not ((x >= -tol).all() and (slack[:n_ub] >= -tol).all()
            and (np.abs(slack[n_ub:]) <= tol).all()):
        raise RuntimeError(f"flow LP solution misses its constraints by more than {tol:.2E}")
    flows = {w: {} for w in lp.W}
    for col in np.flatnonzero(x[:-1] > FLOW_EPS).tolist():
        w, r, u, v = lp.cols[col]
        flows[w][(r, u, v)] = float(x[col])
    return FlowSolution(lp.graph, lp.W, lp.steps, float(x[-1]), flows)


def xi_bound(g: Graph, p: NetworkParams) -> int:
    """Upper end of the step-count search range: twice the trivial schedule
    bound, measured in sends."""
    return math.ceil(2 * trivial_upper_bound(g, p) / p.t_m)


def _split_paths(g: Graph, wset: set, sources, units: int, cap, z: int) -> list | None:
    """Paths of a max-flow on the node-split graph, or None when it leaves a
    source unit unrouted or its decomposition brings one back to its source.

    Vertex v is entered at 2v and left at 2v + 1.  s sends `units` to each
    source's out-copy; v's in-copy leads, with capacity cap[v] (0: no arc),
    to t if v is a holder of wset, else to v's out-copy; every edge arc has
    capacity z.  So no path passes a holder.  The matrix is written straight
    in canonical CSR form, on which maximum_flow's result depends, from the
    graph's CSR adjacency (Graph._dfs).  Each source's units are walked in
    turn, the lowest-id way on at each step, up to a holder; loops excised.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    _, _, _, indptr, nbrs = g._dfs
    s, t = 2 * g.n, 2 * g.n + 1
    own = cap > 0  # row 2v holds v's own arc
    head = 2 * np.arange(g.n) + 1  # of that arc: t for a holder
    head[list(wset)] = t
    counts = np.zeros(t + 1, dtype=np.int64)
    counts[0:s:2] = own
    counts[1:s:2] = np.diff(indptr)
    counts[s] = len(sources)
    row_ptr = np.zeros(t + 2, dtype=np.int32)
    np.cumsum(counts, out=row_ptr[1:])
    at = indptr[:-1][own]
    cols = np.concatenate([np.insert(2 * nbrs, at, head[own]), 2 * np.sort(sources) + 1])
    data = np.insert(np.full(len(nbrs), z), at, cap[own])
    data = np.concatenate([data, np.full(len(sources), units)])
    net = csr_matrix((data.astype(np.int32), cols.astype(np.int32), row_ptr), shape=(t + 1, t + 1))
    res = maximum_flow(net, s, t)
    if res.flow_value < units * len(sources):
        return None
    # The edge arcs are the positive entries in odd rows below 2n and even
    # columns below 2n.  The split network has no antiparallel arcs, so the
    # reverse residual entries res.flow also holds (2v + 1 -> 2v among them)
    # are all <= 0.
    flow = res.flow
    ptr = flow.indptr[: s + 1]
    rows = np.repeat(np.arange(s), np.diff(ptr))
    heads, amounts = flow.indices[: ptr[-1]], flow.data[: ptr[-1]]
    on = (amounts > 0) & (rows % 2 == 1) & (heads % 2 == 0) & (heads < s)
    left = {}  # u -> {v: units on u -> v not yet in a path}
    for u, v, f in zip((rows[on] // 2).tolist(), (heads[on] // 2).tolist(), amounts[on].tolist()):
        left.setdefault(u, {})[v] = f
    paths = []
    for a in sources:
        for _ in range(units):
            walk = [a]
            while len(walk) == 1 or walk[-1] not in wset:
                nbrs_left = left[walk[-1]]
                v = min(nbrs_left)
                nbrs_left[v] -= 1
                if not nbrs_left[v]:
                    del nbrs_left[v]
                walk.append(v)
            if walk[-1] == a:
                return None
            paths.append(tuple(excise_loops(walk)))
    return paths


def _certified_flow(g: Graph, W) -> FlowSolution | None:
    """An integral flow of build_flow_lp(g, W, L) with z = 2 for every L >=
    its steps (longest path), or None.

    Holders alternate between halves A and B along the depth-first preorder
    from vertex 0 (Graph._dfs).  A max-flow on the node-split graph
    (_split_paths) sends 2 units out of every A holder into B holders (2
    each), through non-holders of capacity 2, never through a holder.  Its
    2|A| paths make every holder of degree 2 in the bipartite A-B
    multigraph, a union of even cycles; walking each cycle, every holder
    sends on one path and absorbs the next.  So each holder absorbs exactly
    one unit, never its own, and every non-holder carries at most two: with
    every path at most L hops, that is a feasible LP point at z = 2.  None
    when |W| is odd or some holder stays unrouted.
    """
    W = tuple(sorted(set(W)))
    if len(W) < 2 or len(W) % 2:
        return None
    wset = set(W)
    a_side = [v for v in g._dfs[0] if v in wset][0::2]
    cap = np.full(g.n, 2)
    cap[a_side] = 0  # an A holder is entered only from s
    paths = _split_paths(g, wset, a_side, 2, cap, 2)
    if paths is None:
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
    return FlowSolution(g, W, max(map(len, paths)) - 1, 2.0, flows, method="certified")


def _forced_flow(g: Graph, W, counts: list) -> FlowSolution | None:
    """An integral flow of build_flow_lp(g, W, L) at z = max(counts), the
    bound on z at every L, for every L >= its steps (longest path); or None.

    counts are _inflow_counts(g, W).  A max-flow on the node-split graph
    (_split_paths) sends one unit out of every holder, never through one:
    holder w absorbs at most counts[w] - 1 units, non-holder v carries at
    most counts[v], and no path may return to its own holder.  It is tried
    only when every holder of count 2 is forced by the bound into a holder
    c of count above 2, as a star's leaves are into its hub: c's room,
    counts[c] - 1, is one lone holder of G - c per unit, and no holder is
    lone for two holders, so that is when the room covers them all.  Units
    between two vertices of count 2 are the LP's free choice; on 153
    mds_apx gadgets the max-flow's spread of them gave 11,272 rounds
    against HiGHS's 9,836.
    """
    W = tuple(sorted(set(W)))
    if sum(counts[w] == 2 for w in W) > sum(counts[w] - 1 for w in W if counts[w] > 2):
        return None
    cap = np.array(counts)
    cap[list(W)] -= 1
    paths = _split_paths(g, set(W), W, 1, cap, max(counts))
    if paths is None:
        return None
    steps = max(map(len, paths)) - 1
    flows = {path[0]: {(r, *arc): 1.0 for r, arc in enumerate(zip(path, path[1:]))}
             for path in paths}
    return FlowSolution(g, W, steps, float(max(counts)), flows, method="certified")


def _inflow_counts(g: Graph, W) -> list:
    """Per vertex c, max(2, [c in W] + the number of components of G - c
    holding exactly one holder), each a lower bound on the congestion z of
    build_flow_lp(g, W, L), whatever L.  g must be connected.

    Such a lone holder's unit must reach another holder, all of which lie
    outside its component, so it enters c (and ends there when c is a
    holder).  c's capacity row counts all that inflow plus c's resident
    token, so z >= the count at c for every L.  The graph's low-link DFS
    (Graph._dfs) marks the DFS children whose subtrees G - c cuts off;
    one pass in reverse preorder adds up their holder counts; what remains
    of G - c, the part through c's parent, holds the other holders.  O(n).
    The counts are the graph's, whichever DFS tree finds them.
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
    own = [int(c in wset) for c in range(g.n)]
    return [max(2, own[c] + lone[c] + (total - own[c] - cut_off[c] == 1)) for c in range(g.n)]


def choose_L(g: Graph, W, p: NetworkParams):
    """Pick the step count minimizing t_m * L + min(t_c, t_m) * z(L) over the
    geometric grid {D, 2D, 4D, ...} up to xi, plus xi itself.

    z_low, the largest of _inflow_counts(g, W), bounds z(L) at every L, so
    an integral flow at z_low within D hops is optimal at L = D, where every
    later grid point already loses on t_m * L: it is returned with L its
    longest path, and no LP.  It is _certified_flow's at z_low = 2, else
    _forced_flow's.  Its paths are checked against ecc(0) <= D
    (Graph._dist0) first, so D is computed only for a longer path or an
    LP.  Otherwise the LPs are solved in grid order, stopping at the first
    L where t_m * L + min(t_c, t_m) * z_low reaches the best objective seen:
    every later objective is at least that, and only one lower by more than
    LP_TOLERANCE would replace it, so the skipped LPs change nothing.
    """
    counts = _inflow_counts(g, W)
    z_low = max(counts)
    flow = _certified_flow(g, W) if z_low == 2 else _forced_flow(g, W, counts)
    if flow is not None and (flow.steps <= max(g._dist0) or flow.steps <= g.diameter()):
        return flow.steps, flow
    d = max(1, g.diameter())
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
    it draws, with at most z paths on any vertex: the first sample keeps
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
