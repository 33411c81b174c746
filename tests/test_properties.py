"""Property checks on generated instances: the validator and the simulator
agree, the final simulated state is the replay's final state, both match a
plain round-by-round reference replay, and every output repeats exactly, on
scheduler outputs and one-action mutations of them.  On graphs small enough
for the oracle, the lower bound, the oracle and solve_tc come in that order,
and the oracle's search finds the same at every horizon whether or not it
carries its table over from the horizons before, and the same as the
reference search in `brute_reference.py`, on random draws and on graphs
with automorphisms.  The search's tree bound never exceeds the slack a state
needs, as found without it, and is exact for lone tokens on K_N with empty
nodes.  `_automorphisms` lists one map per coset of the twin permutations,
as many as networkx's count implies.  Greedy aggregation on a labelled tree
from any valid starting holdings ends with one token at the root.  The left
shift, a schedule's per-node orders timed by core._asap, keeps every
scheduler's output valid and no longer: opt_complete's, solve_tc's, the
endgame's from any placement and the gadget's are its fixpoints, and
brute_opt's optimum keeps its length.
Distances and domination agree with networkx, with the diameter found
before or after the radius, from at most one search per node.
"""

from itertools import combinations
from math import factorial, prod

import networkx as nx
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from brute_reference import ReferenceSearch
from tokensched.approx import _fallback_pairing, solve_tc
from tokensched.brute import _automorphisms, _Search, _twin_classes, brute_opt
from tokensched.complete import build_tree, opt_complete, prune_tree, r_star, tree_schedule
from tokensched.domset import (
    is_dominating_set,
    make_dominating_set,
    min_dominating_set,
    psi_transform,
    schedule_from_dominating_set,
)
from tokensched.core import (
    SEND,
    Action,
    Graph,
    InvalidScheduleError,
    NetworkParams,
    Schedule,
    TokenState,
    _asap,
    initial_state,
    lower_bounds,
    replay_events,
    simulate,
    validate_schedule,
)
from tokensched.files import format_schedule, parse_schedule
from tokensched.generators import complete_graph, cycle_graph, grid_graph, path_graph, star_graph

# brute_opt takes 3 ms on the median 6-node graph and up to 0.27 s (30 random
# draws at costs <= 3, 2-core VM), so the oracle strategies go to 6 nodes.
BRUTE_MAX_NODES = 6


def connected_graph(draw, n: int, spanning=None) -> Graph:
    """`spanning` (by default a random spanning tree on n nodes) plus random
    extra edges."""
    if spanning is None:
        spanning = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    node = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(node, node), max_size=6))
    return Graph(n, list(spanning) + [(u, v) for u, v in extra if u != v])


def costs(draw) -> NetworkParams:
    return NetworkParams(draw(st.integers(1, 3)), draw(st.integers(1, 3)))


@st.composite
def sourced_instances(draw):
    """(source, graph, params, schedule, rows) from greedy, brute_opt or
    solve_tc on a small connected graph, with solve_tc's report rows (None
    for the others)."""
    source = draw(st.sampled_from(("greedy", "brute_opt", "solve_tc")))
    n = draw(st.integers(1, BRUTE_MAX_NODES if source == "brute_opt" else 7))
    p = costs(draw)
    spanning = None
    if source == "greedy" and n > 1:
        # opt_complete sends only along its aggregation tree's edges.
        spanning = prune_tree(build_tree(r_star(n, p), p), n).edges()
    g = connected_graph(draw, n, spanning)
    rows = None
    if source == "greedy":
        s = opt_complete(n, p)
    elif source == "brute_opt":
        s = brute_opt(g, p, force=True).schedule
    else:
        rows = []
        s = solve_tc(g, p, seed=draw(st.integers(0, 3)), report=rows)
    return source, g, p, s, rows


def instances():
    """(graph, params, schedule) from sourced_instances."""
    return sourced_instances().map(lambda inst: inst[1:4])


def mutations(s: Schedule):
    """s itself, then each one-action drop and each one-round shift."""
    yield s
    acts = s.actions
    for i, a in enumerate(acts):
        rest = acts[:i] + acts[i + 1:]
        yield Schedule(s.length, rest)
        for d in (-1, 1):
            moved = Action(a.start_round + d, a.node, a.kind, a.target, a.token)
            yield Schedule(s.length, rest + (moved,))


def reference_replay(g: Graph, p: NetworkParams, s: Schedule) -> tuple:
    """(violation, final holdings, events) from a round-by-round replay with
    frozenset tokens.  A violation is (round, node, rule) of the first broken
    rule among (a)-(d); holdings and events are None after one."""
    held = [[frozenset([v])] for v in range(g.n)]
    busy = [0] * g.n
    landing = {}  # round -> [(0 merge / 1 deliver, node, target, token, token)]
    events = []
    by_round = {}
    for a in s.actions:
        by_round.setdefault(a.start_round, []).append(a)
    first = min(by_round, default=1)
    if first < 1:
        return (first, by_round[first][0].node, "d"), None, None
    for r in range(1, max([s.length, *by_round]) + 2):
        for kind, v, target, a, b in sorted(landing.pop(r, []), key=lambda e: e[:3]):
            held[v].remove(a)
            if kind == 0:
                held[v].remove(b)
                held[v].append(a | b)
                events.append(("merge", r, v, a, b))
            else:
                held[target].append(a)
                events.append(("deliver", r, v, target, a))
        for act in by_round.get(r, []):
            v, dur = act.node, p.duration(act.kind)
            if r + dur - 1 > s.length:
                return (r, v, "d"), None, None
            if busy[v] >= r:
                return (r, v, "c"), None, None
            if act.kind == SEND:
                named = [t for t in held[v] if act.token in (None, min(t))]
                if not named:
                    return (r, v, "a"), None, None
                landing.setdefault(r + dur, []).append((1, v, act.target, named[0], None))
            else:
                if len(held[v]) < 2:
                    return (r, v, "b"), None, None
                landing.setdefault(r + dur, []).append((0, v, v, held[v][0], held[v][1]))
            busy[v] = r + dur - 1
    return None, TokenState(tuple(map(tuple, held))), events


def _outcome(fn):
    try:
        return fn()
    except InvalidScheduleError as e:
        return ("raised", e.round, e.node, e.rule, e.message)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_validator_simulator_and_replay_agree(inst):
    g, p, s = inst
    assert validate_schedule(g, p, s).valid
    for m in mutations(s):
        report = validate_schedule(g, p, m)
        trace = _outcome(lambda: simulate(g, p, m))
        final = _outcome(lambda: replay_events(g, p, m))
        violation, ref_state, ref_events = reference_replay(g, p, m)
        if report.valid or report.violation[2] == "e":
            assert violation is None
            assert final == (ref_state, ref_events)
            assert isinstance(trace, list)
            assert trace[-1][1] == final[0]
            assert trace[-1][1].total_tokens() == report.final_token_count
            assert report.valid == (report.final_token_count == 1)
            # round 0, then only rounds after which the holdings changed
            assert trace[0] == (0, initial_state(g))
            rounds = [r for r, _ in trace]
            assert all(a < b for a, b in zip(rounds, rounds[1:])) and rounds[-1] <= m.length
            assert all(a != b for (_, a), (_, b) in zip(trace, trace[1:]))
        else:
            assert report.violation[:3] == violation
            assert trace == final == ("raised", *report.violation)
        assert validate_schedule(g, p, m) == report
        assert _outcome(lambda: simulate(g, p, m)) == trace
        assert _outcome(lambda: replay_events(g, p, m)) == final


@st.composite
def labelled_trees(draw):
    """(n, parent, tokens, root): a tree on a random subset of n <= 12 graph
    ids, in an order that need not put parents before children, with piles,
    empty relays and at least one token on every leaf; ids off the tree have
    parent -1 and no tokens."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    parent = [-1] * n
    for i in range(1, len(order)):
        parent[order[i]] = order[draw(st.integers(0, i - 1))]
    tokens = [0] * n
    for v in order:
        tokens[v] = draw(st.integers(0 if v in parent else 1, 3))
    return n, parent, tokens, order[0]


@settings(max_examples=100, deadline=None)
@given(labelled_trees(), st.integers(1, 3), st.integers(1, 3))
def test_tree_schedule_aggregates_at_the_root(tree, tc, tm):
    n, parent, tokens, root = tree
    p = NetworkParams(tc, tm)
    actions, last = tree_schedule(parent, tokens, p)
    s = Schedule(last, actions)
    g = Graph(n, [(v, q) for v, q in enumerate(parent) if q >= 0])
    ids = iter(range(sum(tokens)))
    start = TokenState(tuple(tuple(frozenset([next(ids)]) for _ in range(k)) for k in tokens))
    assert validate_schedule(g, p, s, start=start).valid
    assert last == s.last_occupied_round(p)
    final = replay_events(g, p, s, start=start)[0]
    assert len(final.tokens_at(root)) == 1


def assert_checked(actions):
    """Each action is an Action that the checked constructor rebuilds
    unchanged, so the trusted constructor built nothing the checks refuse."""
    for a in actions:
        assert type(a) is Action and Action(*a) == a


def left_shift(g: Graph, p: NetworkParams, s: Schedule, held=None) -> Schedule:
    """s's per-node action orders timed by core._asap from held[v] tokens at
    each node v (one each by default): s's left shift."""
    queues = [[] for _ in range(g.n)]
    for _, v, kind, target, _ in s.actions:  # canonical order: by start round
        queues[v].append((kind, target))
    return Schedule(*reversed(_asap(p, queues, held or [1] * g.n)))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sourced_instances())
def test_left_shift_keeps_scheduler_outputs(inst):
    """The left shift gives back opt_complete's schedules and solve_tc's,
    which _asap times, unchanged: they are its fixpoints.  An optimum from
    brute_opt keeps its length.  solve_tc's length is at most its
    fragments' rounds laid end to end."""
    source, g, p, s, rows = inst
    shifted = left_shift(g, p, s)
    assert validate_schedule(g, p, shifted).valid
    # opt_complete's actions come from greedy_schedule; those of the shift
    # and of the parser are built unchecked too.
    for actions in (s.actions, shifted.actions, parse_schedule(format_schedule(s)).actions):
        assert_checked(actions)
    if source == "brute_opt":
        assert shifted.length == s.length
    else:
        assert shifted == s
    if source == "solve_tc":
        assert s.length <= sum(r.fragment_rounds for r in rows)


@st.composite
def placements(draw):
    """(graph, counts): a connected graph on n <= 10 nodes and 0-3 tokens on
    each node, at least one in all."""
    n = draw(st.integers(1, 10))
    g = connected_graph(draw, n)
    counts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    counts[0] += not any(counts)
    return g, counts


@settings(max_examples=100, deadline=None)
@given(placements(), st.integers(1, 3), st.integers(1, 3))
def test_left_shift_of_the_endgame_from_any_placement(placement, tc, tm):
    """The tree endgame, valid from its starting placement, is a fixpoint of
    the shift from that placement."""
    g, counts = placement
    p = NetworkParams(tc, tm)
    ids = iter(range(sum(counts)))
    start = TokenState(tuple(tuple(frozenset([next(ids)]) for _ in range(k)) for k in counts))
    s = _fallback_pairing(g, p, counts)
    assert validate_schedule(g, p, s, start=start).valid
    assert left_shift(g, p, s, counts) == s


@st.composite
def oracle_instances(draw, max_n: int = BRUTE_MAX_NODES):
    """(graph, params) on a connected graph with 2 <= n <= max_n."""
    n = draw(st.integers(2, max_n))
    return connected_graph(draw, n), costs(draw)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(oracle_instances(), st.integers(0, 3))
def test_lower_bound_oracle_and_solve_tc_in_order(inst, seed):
    g, p = inst
    opt = brute_opt(g, p, force=True).opt_length
    assert lower_bounds(g, p)[2] <= opt <= solve_tc(g, p, seed=seed).length


K23 = Graph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])


def on_symmetric_instances(test):
    """`test` with explicit examples on graphs that have automorphisms, which
    random draws rarely do: path5, cycle5, C4, star5 and K_{2,3}, each at
    (t_c, t_m) = (1, 2), (2, 1) and (1, 3)."""
    for g in (path_graph(5), cycle_graph(5), cycle_graph(4), star_graph(5), K23):
        for tc, tm in ((1, 2), (2, 1), (1, 3)):
            test = example((g, NetworkParams(tc, tm)))(test)
    return test


# Fresh searches re-prove every horizon below OPT: on 6-node graphs at
# t_m = 3 an example takes 0.05 s at the median and up to 0.7 s (60 random
# draws, 2-core VM).
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(oracle_instances())
@on_symmetric_instances
def test_search_table_is_sound_across_horizons(inst):
    """One search run at L = lb, lb + 1, ..., OPT finds what a fresh search
    finds at each L: nothing below OPT, the same actions at OPT."""
    g, p = inst
    shared = _Search(g, p)
    L = lower_bounds(g, p)[2]
    while True:
        fresh = _Search(g, p).run(L)
        assert shared.run(L) == fresh
        if fresh is not None:
            break
        L += 1


# The reference search runs at the speed the search had before it built its
# children in place, up to seconds per example at n = 5 and t_m = 3, so this
# runs fewer examples and stays at 5 nodes.
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(oracle_instances(max_n=5))
@on_symmetric_instances
@example((complete_graph(4), NetworkParams(1, 3)))
@example((complete_graph(4), NetworkParams(3, 1)))
@example((complete_graph(5), NetworkParams(1, 3)))
@example((complete_graph(5), NetworkParams(3, 1)))
def test_search_matches_the_reference_search(inst):
    """The search finds what the reference search finds at every horizon
    from the lower bound to OPT, each keeping its table across horizons as
    brute_opt does.  The reference has no tree bound, so on K_4 and K_5 the
    horizons the search refutes at its root are proved by exhaustion."""
    g, p = inst
    search, reference = _Search(g, p), ReferenceSearch(g, p)
    L = lower_bounds(g, p)[2]
    while True:
        found = search.run(L)
        assert found == reference.run(L)
        if found is not None:
            break
        L += 1


def exact_need(search: _Search, state, total: int) -> int:
    """The least slack from which `search` finishes from `state`, which
    holds `total` tokens."""
    slack = 0
    while search._dfs(slack, (), list(state), 0, [], total) is None:
        slack += 1
    return slack


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(oracle_instances(max_n=5), st.data())
def test_tree_bound_never_exceeds_the_exact_need(inst, data):
    """On states a search without the tree bound meets on its way to OPT,
    the bound with it is at most the slack they need, as found by searches
    without it at increasing slack."""
    g, p = inst
    free = _Search(g, p, tree_bound=False)
    L = lower_bounds(g, p)[2]
    while free.run(L) is None:
        L += 1
    states = data.draw(st.lists(st.sampled_from(list(free.need)), min_size=1,
                                max_size=8, unique=True))
    bounded, exact = _Search(g, p), _Search(g, p, tree_bound=False)
    for state in states:
        total = sum(count + len(incoming) for count, _, incoming in state)
        assert bounded._lower_bound(state, total) <= exact_need(exact, state, total)


@pytest.mark.parametrize("tc,tm", [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3)])
def test_tree_bound_is_exact_on_k_n_with_empty_nodes(tc, tm):
    """h lone tokens on K_N, the other N - h nodes empty: the tree on the
    holders alone finishes in r_star(h) rounds, and empty relays do not
    help, so the bound is the exact need."""
    p = NetworkParams(tc, tm)
    for N in range(2, 6):
        g = complete_graph(N)
        bounded, exact = _Search(g, p), _Search(g, p, tree_bound=False)
        for h in range(2, N + 1):
            state = ((1, 0, ()),) * h + ((0, 0, ()),) * (N - h)
            assert bounded._lower_bound(state, h) == r_star(h, p)
            assert exact_need(exact, state, h) == r_star(h, p)


@st.composite
def small_graphs(draw, max_n: int = 8):
    """A connected graph with 1 <= n <= max_n."""
    return connected_graph(draw, draw(st.integers(1, max_n)))


@settings(max_examples=100, deadline=None)
@given(small_graphs(max_n=7))
@example(grid_graph(2, 3))
@example(cycle_graph(6))
@example(K23)
@example(star_graph(7))
@example(complete_graph(7))
def test_automorphisms_are_one_per_twin_coset(g):
    """Each map `_automorphisms` returns is an automorphism, no two share a
    coset of the twin permutations nor share the identity's, and with the
    identity they account for every automorphism networkx finds."""
    edges = {frozenset(e) for e in g.edges}
    rep_of = list(range(g.n))  # each vertex's twin class, by its first member
    classes = _twin_classes(g)
    for cls in classes:
        for v in cls:
            rep_of[v] = cls[0]
    reps = _automorphisms(g, classes)
    for aut in reps:
        assert sorted(aut) == list(range(g.n))
        assert {frozenset((aut[u], aut[v])) for u, v in g.edges} == edges
    cosets = {tuple(rep_of[u] for u in aut) for aut in [range(g.n), *reps]}
    assert len(cosets) == len(reps) + 1
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    n_aut = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
    assert len(cosets) * prod(factorial(len(cls)) for cls in classes) == n_aut


@st.composite
def graphs_with_members(draw):
    """A small connected graph and a set of its nodes."""
    g = draw(small_graphs())
    return g, draw(st.sets(st.integers(0, g.n - 1)))


@settings(max_examples=100, deadline=None)
@given(graphs_with_members())
@example((cycle_graph(10), {0, 3, 6}))
@example((cycle_graph(11), {1, 5}))
@example((path_graph(9), {1, 4, 7}))
@example((cycle_graph(9), {0, 3, 6}))
@example((grid_graph(3, 5), {2, 7, 12}))
@example((star_graph(7), {0}))
def test_distances_and_domination_match_networkx(inst):
    g, members = inst
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    # On fresh copies, in either order, both come from one run of bounded
    # searches: no node is searched twice.  Where every eccentricity ties,
    # as on a cycle, no bound rules a node out, so each is searched once.
    self_centered = nx.radius(h) == nx.diameter(h) and not g.is_complete()
    for diameter_first in (True, False):
        fresh = Graph(g.n, g.edges)
        searched = []
        bfs = fresh.bfs_distances
        fresh.bfs_distances = lambda v: searched.append(v) or bfs(v)
        if diameter_first:
            assert (fresh.diameter(), fresh.radius()) == (nx.diameter(h), nx.radius(h))
        else:
            assert (fresh.radius(), fresh.diameter()) == (nx.radius(h), nx.diameter(h))
        assert len(searched) == len(set(searched)) <= g.n
        assert len(searched) == g.n or not self_centered
    for v in range(g.n):
        dist = nx.single_source_shortest_path_length(h, v)
        assert g.bfs_distances(v) == [dist[u] for u in range(g.n)]
    assert is_dominating_set(g, members) == nx.is_dominating_set(h, members)
    ds = min_dominating_set(g)
    assert nx.is_dominating_set(h, ds.members)
    assert not any(nx.is_dominating_set(h, c) for c in combinations(range(g.n), len(ds) - 1))


@settings(max_examples=50, deadline=None)
@given(small_graphs(), st.integers(1, 3), st.data())
def test_left_shift_of_gadget_schedules(g, t_m, data):
    """The gadget schedule from any dominating set is a fixpoint of the
    shift."""
    extra = data.draw(st.sets(st.integers(0, g.n - 1)))
    ds = make_dominating_set(g, min_dominating_set(g).members | extra)
    gadget = psi_transform(g, t_m)
    s = schedule_from_dominating_set(gadget, ds)
    shifted = left_shift(gadget.graph, gadget.params, s)
    assert validate_schedule(gadget.graph, gadget.params, shifted).valid
    assert_checked(s.actions)
    assert_checked(shifted.actions)
    assert shifted == s
