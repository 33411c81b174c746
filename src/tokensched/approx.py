"""Approximate aggregation scheduling on arbitrary graphs.

Pipeline, repeated until one token remains: solve a minimum-vertex-congestion
multicommodity flow on a time-expanded copy of the graph (one commodity per
token holder), sample one random walk per holder from its flow, direct the
sampled paths into source/sink pairs with distinct endpoints, and route the
source tokens to the sinks where they are merged.  Routing delays merges when
computation dominates (t_c > t_m) and merges eagerly en route otherwise.

All randomness flows from one 64-bit seed through named spawn keys, so runs
are reproducible action-for-action.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from .core import (
    COMPUTE,
    SEND,
    Action,
    DisconnectedGraphError,
    Graph,
    NetworkParams,
    Schedule,
    TokenState,
    ceil_log2,
    initial_state,
    replay_events,
    simulate,  # noqa: F401  (bench/test_bench.py checks tracing restores approx.simulate)
    validate_schedule,
)
from .paths import DirectedPathSet, excise_loops

LP_TOLERANCE = 1e-6
FLOW_EPS = 1e-9
WALK_RETRIES = 100
ROUTE_ATTEMPTS = 20
FALLBACK_W = 12  # below this, pair holders directly instead of solving LPs


class IterationCapError(RuntimeError):
    """The main loop failed to converge within its iteration budget."""


@dataclass(frozen=True)
class TimeExpandedGraph:
    """Layered copies of the base graph: `steps` + 1 vertex layers, with an
    arc (u, r) -> (v, r+1) per direction of each base edge and each step
    r in [0, steps).  Acyclic; 2 * |E| * steps arcs in total."""

    base: Graph
    steps: int

    def arcs(self):
        for r in range(self.steps):
            for u, v in sorted(self.base.edges):
                yield (r, u, v)
                yield (r, v, u)

    def arc_count(self) -> int:
        return 2 * len(self.base.edges) * self.steps


@dataclass
class FlowLP:
    """A built (not yet solved) congestion LP over the time-expanded graph."""

    graph: Graph
    W: tuple
    steps: int
    arc_index: dict  # (w, step, u, v) -> column
    n_cols: int  # flow columns; column n_cols is z
    a_eq: object
    b_eq: object
    a_ub: object
    b_ub: object


@dataclass
class FlowSolution:
    graph: Graph
    W: tuple
    steps: int
    z: float
    flows: dict  # w -> {(step, u, v): value}

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
    W = tuple(sorted(set(W)))
    if len(W) < 2:
        raise ValueError("need at least two token holders to pair off")
    if L_hat < 1:
        raise ValueError(f"need at least one step, got {L_hat}")
    wset = set(W)
    arc_index = {}
    rows_eq = []  # (coeffs list of (col, val), rhs)
    inflow_by_vertex = {v: [] for v in range(g.n)}

    for w in W:
        sinks = wset - {w}
        dsink = _sink_distances(g, sinks, blocked=wset | {w})
        # Forward reachability of still-moving flow; holders absorb, the
        # origin w is never re-entered.
        alive = {w}
        out_cols = {}  # (step, u) -> cols leaving u at step
        in_cols = {}  # (step, v) -> cols entering v at the END of step
        for r in range(L_hat):
            nxt = set()
            for u in sorted(alive):
                for v in sorted(g.adj[u]):
                    if v == w:
                        continue
                    if v in wset:
                        pass  # absorbed on arrival
                    elif dsink[v] < 0 or dsink[v] > L_hat - (r + 1):
                        continue  # could never reach a sink in time
                    col = len(arc_index)
                    arc_index[(w, r, u, v)] = col
                    out_cols.setdefault((r, u), []).append(col)
                    in_cols.setdefault((r + 1, v), []).append(col)
                    inflow_by_vertex[v].append(col)
                    if v not in wset:
                        nxt.add(v)
            alive = nxt
            if not alive:
                break
        src = out_cols.get((0, w), [])
        if not src:
            raise ValueError(
                f"holder {w} cannot reach another holder within {L_hat} steps"
            )
        rows_eq.append(([(c, 1.0) for c in src], 1.0))
        for r in range(1, L_hat):
            for u in range(g.n):
                if u in wset:
                    continue
                outs = out_cols.get((r, u), [])
                ins = in_cols.get((r, u), [])
                if not outs and not ins:
                    continue
                coeffs = [(c, 1.0) for c in ins] + [(c, -1.0) for c in outs]
                rows_eq.append((coeffs, 0.0))

    n_cols = len(arc_index)
    z_col = n_cols
    rows_ub = []
    for v in range(g.n):
        cols = inflow_by_vertex[v]
        resident = 1.0 if v in wset else 0.0
        if not cols and resident == 0.0:
            continue
        rows_ub.append(([(c, 1.0) for c in cols] + [(z_col, -1.0)], -resident))

    def to_csr(rows, width):
        data, ri, ci = [], [], []
        rhs = []
        for i, (coeffs, b) in enumerate(rows):
            rhs.append(b)
            for c, val in coeffs:
                ri.append(i)
                ci.append(c)
                data.append(val)
        return (
            csr_matrix((data, (ri, ci)), shape=(len(rows), width)),
            np.array(rhs),
        )

    a_eq, b_eq = to_csr(rows_eq, n_cols + 1)
    a_ub, b_ub = to_csr(rows_ub, n_cols + 1)
    return FlowLP(g, W, L_hat, arc_index, n_cols, a_eq, b_eq, a_ub, b_ub)


def solve_flow_lp(lp: FlowLP) -> FlowSolution:
    """Solve the built LP to within LP_TOLERANCE; deterministic per instance."""
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
    for (w, r, u, v), col in lp.arc_index.items():
        val = float(x[col])
        if val > FLOW_EPS:
            flows[w][(r, u, v)] = val
    return FlowSolution(lp.graph, lp.W, lp.steps, float(x[lp.n_cols]), flows)


def xi_bound(g: Graph, p: NetworkParams) -> int:
    """Upper end of the step-count search range: twice the trivial schedule
    bound, measured in sends."""
    d = g.diameter()
    return math.ceil(2 * (g.n - 1) * (p.t_c + d * p.t_m) / p.t_m)


def choose_L(g: Graph, W, p: NetworkParams):
    """Pick the step count minimizing t_m * L + min(t_c, t_m) * z(L) over the
    geometric grid {D, 2D, 4D, ...} up to xi, plus xi itself.

    z(L) is nonincreasing in L, so once t_m * L alone reaches the best
    objective seen, no later grid point can win and the scan stops.
    """
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
        if best is not None and p.t_m * L >= best[0]:
            break
        sol = solve_flow_lp(build_flow_lp(g, W, L))
        obj = p.t_m * L + weight * sol.z
        if best is None or obj < best[0] - LP_TOLERANCE:
            best = (obj, L, sol)
    return best[1], best[2]


def _walk(flow: FlowSolution, w: int, rng) -> tuple | None:
    """One random walk on w's flow, stopping at the first other holder."""
    wset = set(flow.W)
    path = [w]
    u, step = w, 0
    while step < flow.steps:
        out = flow.outflow(w, u, step)
        if not out:
            return None
        total = sum(val for _, val in out)
        if total < FLOW_EPS:
            return None
        pick = rng.random() * total
        acc = 0.0
        v = out[-1][0]
        for cand, val in out:
            acc += val
            if pick <= acc:
                v = cand
                break
        if v == w:
            return None  # never walk back into the origin
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
    the sample keeping the most.
    """
    W = tuple(sorted(set(W)))
    n = flow.graph.n
    n_samples = math.ceil(4 * math.log2(max(n, 2))) + 1
    threshold = 10.0 * flow.z * math.log2(max(L_hat, 2))
    best_kept = ()
    for i in range(n_samples):
        sample = []
        for w in W:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i, w)))
            for _ in range(WALK_RETRIES):
                walk = _walk(flow, w, rng)
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
    return best_kept


def assign_paths(paths, W) -> DirectedPathSet:
    """Direct undirected holder-to-holder paths into source/sink pairs.

    On the functional digraph (each path owner points at its far endpoint):
    vertices with two or more incoming paths pair those paths off back to
    back (dropping one if odd) and leave the picture with their neighbors;
    the leftover in/out-degree-one graph splits into chains and cycles whose
    alternate arcs become the remaining directed paths.  Sources and sinks
    are all distinct; congestion never increases and path length at most
    doubles.
    """
    wset = set(W)
    by_source = {}
    for path in paths:
        if path[0] in by_source:
            raise ValueError(f"two paths share the source {path[0]}")
        if path[0] not in wset or path[-1] not in wset or path[0] == path[-1]:
            raise ValueError(f"path {path} does not join two distinct holders")
        by_source[path[0]] = tuple(path)

    alive = set(by_source)  # owners whose path is still in play
    alive |= {by_source[w][-1] for w in by_source}
    directed = []

    def in_neighbors(v):
        return sorted(w for w in alive if w in by_source and by_source[w][-1] == v)

    while True:
        hubs = [(v, in_neighbors(v)) for v in sorted(alive)]
        hubs = [(len(nbrs), v, nbrs) for v, nbrs in hubs if len(nbrs) >= 2]
        if not hubs:
            break
        hubs.sort(key=lambda t: (-t[0], t[1]))
        _, v, nbrs = hubs[0]
        if len(nbrs) % 2 == 1:
            dropped = nbrs.pop()  # highest id
            alive.discard(dropped)
        for a, b in zip(nbrs[0::2], nbrs[1::2]):
            joined = by_source[a] + tuple(reversed(by_source[b][:-1]))
            directed.append(tuple(excise_loops(joined)))
        alive.discard(v)
        alive.difference_update(nbrs)

    # What survives has in- and out-degree at most one: chains and cycles.
    succ = {
        w: by_source[w][-1]
        for w in sorted(alive)
        if w in by_source and by_source[w][-1] in alive
    }
    pred = {v: w for w, v in succ.items()}
    visited = set()
    for head in sorted(succ):
        if head in visited or head in pred:
            continue
        chain = [head]
        visited.add(head)
        cur = head
        while cur in succ:
            cur = succ[cur]
            chain.append(cur)
            visited.add(cur)
        for i in range(0, len(chain) - 1, 2):  # alternate arcs along the chain
            directed.append(by_source[chain[i]])
    for start in sorted(succ):
        if start in visited:
            continue
        cyc = [start]
        visited.add(start)
        cur = succ[start]
        while cur != start:
            cyc.append(cur)
            visited.add(cur)
            cur = succ[cur]
        # Alternate arcs, never the one wrapping back to the start.
        for i in range(0, len(cyc) - 1, 2):
            directed.append(by_source[cyc[i]])
    ps = DirectedPathSet(tuple(directed))
    ps.check_endpoints(members=wset)
    ps.check_simple()
    return ps


def opt_route(g: Graph, p: NetworkParams, dp: DirectedPathSet, seed: int,
              token_ids: dict | None = None) -> Schedule:
    """Send every source token to its sink along its path (SENDs only).

    Packets take independent uniform random starting delays in [0, con) hop
    slots and then pipeline, queueing first-come-first-served wherever a node
    is already sending (one send per node at a time; receiving is free).  If
    the makespan exceeds 8 * (con + dil) * ceil(log2(n + 2)) hop slots the
    delays are redrawn, up to ROUTE_ATTEMPTS times, keeping the best run.
    """
    dp.check_endpoints()
    if token_ids is None:
        token_ids = {src: src for src in dp.sources}
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
        actions, makespan = _route_once(g, p, dp, delays, token_ids)
        if best is None or makespan < best[0]:
            best = (makespan, actions)
        if best[0] <= cutoff:
            break
    makespan, actions = best[0], best[1]
    return Schedule(makespan, actions)


def _route_once(g, p, dp, delays, token_ids):
    queues = {v: [] for v in range(g.n)}  # heap of (ready, seq, packet idx)
    pos = {}
    packets = list(dp.paths)
    seq = 0
    busy_until = [0] * g.n
    dispatch = []  # heap of (round, node)
    for idx, path in enumerate(packets):
        ready = 1 + delays[path] * p.t_m
        heappush(queues[path[0]], (ready, seq, idx))
        seq += 1
        heappush(dispatch, (ready, path[0]))
    actions = []
    makespan = 0
    while dispatch:
        r, u = heappop(dispatch)
        if not queues[u]:
            continue
        if busy_until[u] >= r:
            heappush(dispatch, (busy_until[u] + 1, u))
            continue
        ready, _, idx = queues[u][0]
        if ready > r:
            heappush(dispatch, (ready, u))
            continue
        heappop(queues[u])
        path = packets[idx]
        at = pos.get(idx, 0)
        nxt = path[at + 1]
        actions.append(Action(r, u, SEND, nxt, token_ids[path[0]]))
        busy_until[u] = r + p.t_m - 1
        makespan = max(makespan, busy_until[u])
        pos[idx] = at + 1
        if at + 1 < len(path) - 1:
            heappush(queues[nxt], (r + p.t_m, seq, idx))
            seq += 1
            heappush(dispatch, (r + p.t_m, nxt))
        if queues[u]:
            heappush(dispatch, (busy_until[u] + 1, u))
    return tuple(actions), makespan


def route_paths_m(g: Graph, p: NetworkParams, dp: DirectedPathSet, seed: int,
                  token_ids: dict | None = None) -> Schedule:
    """Route all source tokens to their sinks, then merge once at every sink.

    The merge-last strategy for t_c > t_m: sinks stay idle until routing has
    finished, then each sink folds its arrived token into its own, cutting
    the token count by exactly the number of paths.
    """
    routed = opt_route(g, p, dp, seed, token_ids)
    compute_round = routed.length + 1
    computes = tuple(Action(compute_round, s, COMPUTE) for s in sorted(dp.sinks))
    return Schedule(routed.length + p.t_c, routed.actions + computes)


def route_paths_c(g: Graph, p: NetworkParams, dp: DirectedPathSet,
                  holdings: TokenState | None = None) -> Schedule:
    """Forward tokens with merge-on-collision, for t_c <= t_m.

    Sinks start asleep; for 2 * dil * t_m rounds every awake node holding
    exactly one token that still has path to walk forwards it, and any node
    that accumulates two or more tokens goes to sleep and keeps what arrives.
    Afterwards every node merges its pile down to one token (at most
    con * t_c extra rounds).  At least half the source tokens get merged.
    """
    dp.check_endpoints()
    if holdings is None:
        holders = set(dp.sources) | set(dp.sinks)
        holdings = TokenState(
            tuple((frozenset([v]),) if v in holders else () for v in range(g.n))
        )
    piles = {v: [min(t) for t in holdings.tokens_at(v)] for v in range(g.n)}
    route_of = {}  # token id -> (path, pos)
    for path in dp.paths:
        src = path[0]
        if len(piles[src]) != 1:
            raise ValueError(f"source {src} must hold exactly one token")
        route_of[piles[src][0]] = (path, 0)
    asleep = {s for s in dp.sinks}
    busy_until = [0] * g.n
    inflight = {}  # arrival round -> list of (target, token id)
    phase1_end = 2 * dp.dil * p.t_m
    actions = []
    for r in range(1, phase1_end + 1):
        for target, tok in inflight.pop(r, ()):
            piles[target].append(tok)
        for v in range(g.n):
            if v in asleep or busy_until[v] >= r:
                continue
            if len(piles[v]) >= 2:
                asleep.add(v)
                continue
            if len(piles[v]) != 1:
                continue
            tok = piles[v][0]
            if tok not in route_of:
                continue
            path, at = route_of[tok]
            if at + 1 > len(path) - 1 or path[at] != v:
                continue
            if r + p.t_m - 1 > phase1_end:
                continue  # would outlive the forwarding window
            nxt = path[at + 1]
            actions.append(Action(r, v, SEND, nxt, tok))
            busy_until[v] = r + p.t_m - 1
            piles[v].remove(tok)
            route_of[tok] = (path, at + 1)
            inflight.setdefault(r + p.t_m, []).append((nxt, tok))
    for target, tok in inflight.pop(phase1_end + 1, ()):
        piles[target].append(tok)
    if inflight:
        raise RuntimeError("token still in flight after the forwarding window")
    merge_rounds = 0
    for v in range(g.n):
        k = len(piles[v])
        for i in range(k - 1):
            actions.append(Action(phase1_end + 1 + i * p.t_c, v, COMPUTE))
        merge_rounds = max(merge_rounds, (k - 1) * p.t_c)
    return Schedule(phase1_end + merge_rounds, tuple(actions))


def _fallback_pairing(g: Graph, p: NetworkParams, state: TokenState) -> Schedule:
    """Deterministic endgame: repeatedly match the closest pairs of holders,
    walk one token of each pair to the other along a shortest path (pairs
    routed one after another), and merge on arrival, down to a single token."""
    dist = [g.bfs_distances(v) for v in range(g.n)]
    piles = {v: [min(t) for t in state.tokens_at(v)] for v in range(g.n)}
    actions = []
    clock = 0  # last occupied round so far
    holders = sorted(v for v in range(g.n) if piles[v])

    def shortest_path(src, dst):
        # Lowest-id tie-break, walking distance-descending toward dst.
        path = [src]
        cur = src
        while cur != dst:
            cur = min(u for u in g.adj[cur] if dist[dst][u] == dist[dst][cur] - 1)
            path.append(cur)
        return path

    while len(holders) > 1:
        pool = holders[:]
        pairs = []
        while len(pool) > 1:
            best = min(
                ((dist[u][v], u, v) for i, u in enumerate(pool) for v in pool[i + 1:]),
            )
            _, u, v = best
            pairs.append((u, v))
            pool.remove(u)
            pool.remove(v)
        for u, v in pairs:
            tok = piles[u][0]
            r = clock + 1
            hops = shortest_path(u, v)
            for a, b in zip(hops, hops[1:]):
                actions.append(Action(r, a, SEND, b, tok))
                r += p.t_m
            actions.append(Action(r, v, COMPUTE))
            clock = r + p.t_c - 1
            piles[u].remove(tok)
            piles[v].append(tok)
            merged = min(piles[v])
            piles[v] = [merged]
        holders = sorted(v for v in range(g.n) if piles[v])
    return Schedule(clock, tuple(actions))


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


def solve_tc(g: Graph, p: NetworkParams, seed: int, report: list | None = None) -> Schedule:
    """Full approximation loop: pair-and-merge a constant fraction of token
    holders per iteration until one token remains.

    Deterministic for fixed (graph, params, seed).  Falls back to direct
    pairing when fewer than FALLBACK_W + 1 holders remain or an iteration
    yields no usable paths.  Raises DisconnectedGraphError on a disconnected
    graph, and IterationCapError after 24 * ceil(log2 n) + 8 iterations
    (which indicates a bug, not bad luck).
    """
    if not g.is_connected():
        raise DisconnectedGraphError(
            "graph is disconnected; aggregation to one token is unsolvable"
        )
    if g.n == 1:
        return Schedule(0)
    state = initial_state(g)
    fragments = []
    offset = 0
    cap = 24 * ceil_log2(g.n) + 8

    def append(frag: Schedule, stats_prefix, router):
        nonlocal state, offset
        if frag.actions:
            shifted = frag.shifted(offset)
            state = replay_events(g, p, shifted, start=state)[0]
            fragments.append(shifted)
            if report is not None:
                report.append(IterationStats(*stats_prefix, frag.length, router))
            offset += frag.length

    iteration = 0
    while True:
        holders = [v for v in range(g.n) if state.tokens_at(v)]
        if sum(len(state.tokens_at(v)) for v in range(g.n)) == 1:
            break
        if iteration >= cap:
            raise IterationCapError(
                f"no convergence after {cap} iterations; this is a bug"
            )
        iteration += 1
        if len(holders) <= FALLBACK_W:
            frag = _fallback_pairing(g, p, state)
            append(frag, (iteration, len(holders), 0, 0.0, 0, 0, len(holders) - 1), "fallback")
            continue
        W = holders if len(holders) % 2 == 0 else holders[:-1]
        L, flow = choose_L(g, W, p)
        paths = sample_paths(flow, L, W, _iter_seed(seed, iteration))
        dp = assign_paths(paths, W) if paths else DirectedPathSet(())
        if len(dp) == 0:
            frag = _fallback_pairing(g, p, state)
            append(frag, (iteration, len(holders), L, flow.z, 0, 0, len(holders) - 1), "fallback")
            continue
        token_ids = {src: min(state.tokens_at(src)[0]) for src in dp.sources}
        if p.t_c > p.t_m:
            frag = route_paths_m(g, p, dp, _iter_seed(seed, iteration), token_ids)
            router = "m"
        else:
            frag = route_paths_c(g, p, dp, holdings=state)
            router = "c"
        append(frag, (iteration, len(holders), L, flow.z, dp.con, dp.dil, len(dp)), router)

    actions = tuple(a for frag in fragments for a in frag.actions)
    sched = Schedule(offset, actions)
    final = validate_schedule(g, p, sched)
    if not final.valid:
        raise RuntimeError(f"assembled schedule is invalid: {final.violation}")
    return sched


def _iter_seed(seed: int, iteration: int) -> int:
    return int(
        np.random.SeedSequence(seed, spawn_key=(iteration,)).generate_state(1)[0]
    )
