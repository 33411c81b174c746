from bisect import bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import approx_reference
from tokensched.core import (
    Graph,
    NetworkParams,
    Schedule,
    TokenState,
    simulate,
)
from tokensched.approx import opt_route, route_paths_c, route_paths_m
from tokensched.paths import DirectedPathSet
from tokensched.generators import gnp_connected, path_graph, star_graph

P11 = NetworkParams(1, 1)


def synthetic_state(g, dp):
    holders = set(dp.sources) | set(dp.sinks)
    return TokenState(
        tuple((frozenset([v]),) if v in holders else () for v in range(g.n))
    )


def test_single_path_no_contention():
    dp = DirectedPathSet(((0, 1, 2, 3),))
    for tm in (1, 2):
        p = NetworkParams(1, tm)
        frag = opt_route(p, dp)
        assert frag.length == 3 * tm  # one hop per t_m, no delays at con = 1
        assert len(frag.actions) == 3


def test_two_disjoint_paths():
    # Two vertex-disjoint directed paths of lengths 2 and 1 on the path 0-...-5.
    dp = DirectedPathSet(((0, 1, 2), (5, 4)))
    p = NetworkParams(1, 3)
    frag = opt_route(p, dp)
    assert frag.length == 3 * 2  # t_m * max length


def test_shared_bottleneck_vertex():
    # k paths of length 2 all through one middle vertex.
    k = 4
    edges = [(i, k) for i in range(k)] + [(k, k + 1 + i) for i in range(k)]
    g = Graph(2 * k + 1, edges)
    dp = DirectedPathSet(tuple((i, k, k + 1 + i) for i in range(k)))
    p = NetworkParams(1, 2)
    frag = opt_route(p, dp)
    # The middle vertex forwards k tokens one at a time.
    assert frag.length >= p.t_m * k
    assert frag.length <= p.t_m * (k + 2 + (dp.con - 1))
    state = simulate(g, p, frag, start=synthetic_state(g, dp))[-1][1]
    for i in range(k):
        assert frozenset([i]) in state.tokens_at(k + 1 + i)


def test_opt_route_deterministic():
    g = gnp_connected(10, 0.4, seed=6)
    dp = DirectedPathSet(((0, 1), (2, 3)) if g.has_edge(0, 1) and g.has_edge(2, 3)
                         else ((0, sorted(g.adj[0])[0]),))
    a = opt_route(P11, dp)
    b = opt_route(P11, dp)
    assert a == b


def test_opt_route_is_pinned():
    # Node 0 holds the packets of sources 1 and 2 at once, and node 5 later
    # holds those of sources 1 and 3 at once: both queues are served in order.
    dp = DirectedPathSet(((1, 0, 5, 8), (2, 0, 6), (3, 4, 5, 7)))
    assert dp.con == 2
    pinned = {
        (2, 1): (4, [(1, 1, 0, None), (1, 2, 0, None), (1, 3, 4, None), (2, 0, 5, None),
                     (2, 4, 5, None), (3, 0, 6, None), (3, 5, 8, None), (4, 5, 7, None)]),
        (3, 2): (8, [(1, 1, 0, None), (1, 2, 0, None), (1, 3, 4, None), (3, 0, 5, None),
                     (3, 4, 5, None), (5, 0, 6, None), (5, 5, 8, None), (7, 5, 7, None)]),
    }
    for (tc, tm), (length, sends) in pinned.items():
        frag = opt_route(NetworkParams(tc, tm), dp)
        assert frag.length == length
        assert [(a.start_round, a.node, a.target, a.token) for a in frag.actions] == sends


def test_route_m_single_path():
    g = path_graph(2)
    dp = DirectedPathSet(((0, 1),))
    for tc, tm in [(3, 1), (2, 1)]:
        p = NetworkParams(tc, tm)
        frag = route_paths_m(p, dp)
        assert frag.length == tm + tc
        state = simulate(g, p, frag, start=synthetic_state(g, dp))[-1][1]
        assert state.total_tokens() == 1


def test_route_m_reduces_by_exactly_u():
    rng = np.random.default_rng(17)
    p = NetworkParams(3, 1)
    for trial in range(25):
        g, dp = _random_instance(rng, seed=500 + trial)
        if dp is None:
            continue
        state0 = synthetic_state(g, dp)
        frag = route_paths_m(p, dp)
        state = simulate(g, p, frag, start=state0)[-1][1]
        assert state0.total_tokens() - state.total_tokens() == len(dp)


def test_route_c_single_short_path():
    g = path_graph(3)
    dp = DirectedPathSet(((0, 1, 2),))
    frag = route_paths_c(g, P11, dp)
    state = simulate(g, P11, frag, start=synthetic_state(g, dp))[-1][1]
    assert state.total_tokens() == 1
    assert state.tokens_at(2) == (frozenset({0, 2}),)


def test_route_c_crossing_paths_sleep_and_merge():
    # Two paths crossing at vertex 2: whoever gets company stops and merges.
    g = Graph(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
    dp = DirectedPathSet(((0, 2, 3), (1, 2, 4)))
    frag = route_paths_c(g, P11, dp)
    state = simulate(g, P11, frag, start=synthetic_state(g, dp))[-1][1]
    for v in range(g.n):
        assert len(state.tokens_at(v)) <= 1
    drop = 4 - state.total_tokens()
    assert drop >= len(dp) // 2


def test_route_c_reduces_by_half_of_u():
    rng = np.random.default_rng(23)
    p = NetworkParams(1, 2)
    for trial in range(25):
        g, dp = _random_instance(rng, seed=900 + trial)
        if dp is None:
            continue
        state0 = synthetic_state(g, dp)
        frag = route_paths_c(g, p, dp)
        state = simulate(g, p, frag, start=state0)[-1][1]
        assert state0.total_tokens() - state.total_tokens() >= len(dp) // 2
        for v in range(g.n):
            assert len(state.tokens_at(v)) <= 1


def _random_instance(rng, seed):
    """Random connected graph plus a valid directed path set: disjoint
    endpoint pairs joined by shortest paths."""
    n = int(rng.integers(8, 16))
    g = gnp_connected(n, 0.35, seed=seed)
    k = int(rng.integers(1, 4))
    nodes = rng.permutation(n)[: 2 * k]
    paths = []
    for i in range(k):
        src, dst = int(nodes[2 * i]), int(nodes[2 * i + 1])
        dist = g.bfs_distances(dst)
        path = [src]
        cur = src
        while cur != dst:
            cur = min(u for u in g.adj[cur] if dist[u] == dist[cur] - 1)
            path.append(cur)
        paths.append(tuple(path))
    dp = DirectedPathSet(tuple(paths))
    try:
        dp.check_endpoints()
    except ValueError:
        return g, None
    return g, dp


def test_route_c_forwarders_hold_only_the_token_they_send():
    # route_paths_c names no token: an unnamed send moves the oldest token,
    # and every forwarder holds exactly one, so naming each send by that
    # token gives the same final state.
    rng = np.random.default_rng(29)
    # On the second graph two tokens collide at node 0 and stay there; the
    # third reaches node 0 a step later and stays as well.
    pile = Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 0), (0, 7)])
    cases = [(star_graph(5), DirectedPathSet(((1, 0, 2), (3, 0, 4)))),
             (pile, DirectedPathSet(((1, 0, 2), (3, 0, 4), (5, 6, 0, 7))))]
    for trial in range(25):
        g, dp = _random_instance(rng, seed=1300 + trial)
        if dp is not None:
            cases.append((g, dp))
    for g, dp in cases:
        start = synthetic_state(g, dp)
        for p in (P11, NetworkParams(1, 2)):
            frag = route_paths_c(g, p, dp)
            trace = simulate(g, p, frag, start=start)
            rounds = [r for r, _ in trace]
            named = []
            for a in frag.actions:
                if a.kind == "SEND":
                    assert a.token is None
                    # the state after round start_round - 1: the last change by then
                    _, before = trace[bisect_right(rounds, a.start_round - 1) - 1]
                    (held,) = before.tokens_at(a.node)
                    a = a._replace(token=min(held))
                named.append(a)
            renamed = Schedule(frag.length, named)
            assert simulate(g, p, renamed, start=start)[-1][1] == trace[-1][1]


@st.composite
def path_set_instances(draw):
    """Drawn like the acceptance suite's path sets: gnp_connected(n, 0.35)
    on 8 to 17 nodes and up to four shortest paths, each between two fresh
    random endpoints, the lowest-id way on."""
    n = draw(st.integers(8, 17))
    g = gnp_connected(n, 0.35, seed=draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 4))
    nodes = draw(st.permutations(range(n)))[: 2 * k]
    paths = []
    for src, dst in zip(nodes[0::2], nodes[1::2]):
        dist = g.bfs_distances(dst)
        path = [src]
        while path[-1] != dst:
            path.append(min(u for u in g.adj[path[-1]] if dist[u] == dist[path[-1]] - 1))
        paths.append(tuple(path))
    return g, DirectedPathSet(tuple(paths))


@settings(max_examples=100, deadline=None)
@given(path_set_instances(), st.integers(1, 3))
def test_opt_route_matches_the_reference_without_delays(inst, tm):
    g, dp = inst
    p = NetworkParams(1, tm)
    frag = opt_route(p, dp)
    want, makespan = approx_reference._route_once(p, dp, dict.fromkeys(dp.paths, 0))
    assert frag.length == makespan
    assert [(a.start_round, a.node, a.target) for a in frag.actions] == sorted(
        (a.start_round, a.node, a.target) for a in want)
    assert all(a.token is None for a in frag.actions)
