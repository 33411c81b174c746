import gc
import pickle
import time
import tracemalloc
from bisect import bisect_right
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import approx_reference
from tokensched.core import (
    COMPUTE,
    SEND,
    Action,
    DisconnectedGraphError,
    Graph,
    InvalidScheduleError,
    MalformedInputError,
    NetworkParams,
    Schedule,
    _asap,
    _nogc,
    initial_state,
    lower_bounds,
    replay_events,
    simulate,
    trivial_upper_bound,
    validate_schedule,
)
from tokensched.complete import opt_complete
from tokensched.files import format_graph
from tokensched.generators import (
    complete_graph,
    gnp_connected,
    grid_graph,
    path_graph,
    star_graph,
)

P11 = NetworkParams(1, 1)


def state_after(trace, r):
    """The state after round r in simulate's trace: that of its last change
    at or before r."""
    return trace[bisect_right([t for t, _ in trace], r) - 1][1]


def test_graph_rejects_bad_edges():
    with pytest.raises(MalformedInputError):
        Graph(3, [(0, 0)])
    with pytest.raises(MalformedInputError):
        Graph(3, [(0, 3)])
    with pytest.raises(MalformedInputError):
        Graph(0, [])


def test_graph_metrics():
    g = path_graph(3)
    assert g.radius() == 1 and g.diameter() == 2
    assert g.max_degree() == 2
    assert complete_graph(4).is_complete()
    assert not g.is_complete()
    assert Graph(3, [(0, 1)]).is_connected() is False


@pytest.mark.parametrize("g", [path_graph(5), grid_graph(3, 4), complete_graph(6)])
def test_graph_ignores_edge_orientation_and_duplicates(g):
    edges = sorted(g.edges)
    for variant in (
        [(v, u) for u, v in reversed(edges)],
        edges + [(v, u) for u, v in edges] + edges,
    ):
        h = Graph(g.n, variant)
        assert h == g and h.edges == g.edges and h.m == g.m == len(edges)
        assert all(type(a) is frozenset for a in h.adj)
        assert hash(h) == hash(g)
        assert format_graph(h) == format_graph(g)


def test_graph_eccentricities_computed_once(monkeypatch):
    def no_bfs(source):
        raise AssertionError("eccentricities were recomputed")

    g = grid_graph(3, 4)
    assert (g.radius(), g.diameter()) == (3, 5)
    monkeypatch.setattr(g, "bfs_distances", no_bfs)
    assert (g.radius(), g.diameter()) == (3, 5)
    g = grid_graph(3, 4)
    assert g.diameter() == 5
    monkeypatch.setattr(g, "bfs_distances", no_bfs)
    assert g.radius() == 3


@pytest.mark.parametrize("radius_first", [True, False])
def test_grid_eccentricities_take_few_searches(radius_first):
    g = grid_graph(64, 64)
    searched = []
    bfs = g.bfs_distances
    g.bfs_distances = lambda v: searched.append(v) or bfs(v)
    if radius_first:
        assert (g.radius(), g.diameter()) == (64, 126)
    else:
        assert (g.diameter(), g.radius()) == (126, 64)
    assert len(searched) <= 16


def _outcome(fn, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (InvalidScheduleError, MalformedInputError) as e:
        return type(e), str(e)


def _sample(gnp, n, p, seed):
    """The neighbours of each node in iteration order, or the error message."""
    try:
        return [list(a) for a in gnp(n, p, seed, max_tries=20).adj]
    except RuntimeError as e:
        return str(e)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24), st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.5, 0.9, 1.0]),
       st.integers(0, 2**32))
@example(100, 0.06, 2)
def test_gnp_samples_match_the_reference(n, p, seed):
    assert _sample(gnp_connected, n, p, seed) == _sample(approx_reference.gnp_connected, n, p, seed)


def test_complete_graph_equals_graph_over_all_pairs():
    for n in range(1, 41):
        want = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        # want answers from its neighbour sets and all-pairs BFS, not as K_n
        want.is_complete = lambda: False
        got = complete_graph(n)
        assert got.is_complete()
        assert all(got.has_edge(u, v) == want.has_edge(u, v)
                   for u in range(n) for v in range(n))
        assert not any(h.has_edge(u, v) or h.has_edge(v, u) for h in (got, want)
                       for u in (-2, -1, n, n + 1) for v in range(-2, n + 2))
        assert (got.radius(), got.diameter()) == (want.radius(), want.diameter())
        assert got.max_degree() == want.max_degree()
        assert got.is_connected() and want.is_connected()
        assert all(got.bfs_distances(v) == want.bfs_distances(v) for v in range(n))
        for p in (P11, NetworkParams(2, 3)):
            assert lower_bounds(got, p) == lower_bounds(want, p)
            assert trivial_upper_bound(got, p) == trivial_upper_bound(want, p)
            s = opt_complete(n, p)
            acts = list(s.actions)
            schedules = [
                s,
                Schedule(s.length, acts[1:]),  # one action short
                Schedule(s.length, acts + [Action(1, 0, SEND, 0)]),  # to itself
                Schedule(s.length, acts + [Action(1, 0, SEND, n)]),  # to node n
                Schedule(s.length + 1, [a._replace(start_round=a.start_round + 1)
                                        for a in acts[:1]] + acts[1:]),
            ]
            if n > 2:  # the first send goes to another node instead
                i = next(i for i, a in enumerate(acts) if a.kind == SEND)
                a = acts[i]
                other = next(t for t in range(n) if t not in (a.node, a.target))
                schedules.append(Schedule(s.length, acts[:i] + [a._replace(target=other)]
                                          + acts[i + 1:]))
            for t in schedules:
                assert _outcome(validate_schedule, got, p, t) == \
                    _outcome(validate_schedule, want, p, t)
                assert _outcome(replay_events, got, p, t) == \
                    _outcome(replay_events, want, p, t)
        assert "adj" not in vars(got)  # none of the above read the sets
        assert got == want
        assert got.adj == want.adj and got.m == want.m
        assert got.edges == want.edges and hash(got) == hash(want)
    with pytest.raises(MalformedInputError, match="node count must be >= 1, got 0"):
        complete_graph(0)


def test_validating_on_complete_graph_never_builds_its_neighbour_sets():
    tracemalloc.start()
    try:
        g = complete_graph(2000)
        report = validate_schedule(g, P11, opt_complete(2000, P11))
        bounds = lower_bounds(g, P11)
        edge = g.has_edge(0, 1)
        queries = g.max_degree(), g.is_connected(), g.bfs_distances(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid and bounds == (11, 1, 11) and edge
    assert queries == (1999, True, [1] * 7 + [0] + [1] * 1992)
    assert "adj" not in vars(g)
    assert peak < 5e6  # K_2000's neighbour sets alone take about 130 MB


def test_nogc_restores_the_callers_setting():
    seen = []

    @_nogc
    def inner():
        seen.append(gc.isenabled())

    @_nogc
    def outer():
        inner()
        seen.append(gc.isenabled())

    assert gc.isenabled()
    outer()  # nested: the inner pause leaves GC off for the outer one
    assert seen == [False, False] and gc.isenabled()
    gc.disable()
    try:
        outer()
        assert not gc.isenabled()  # a caller that turned GC off keeps it off
    finally:
        gc.enable()


def test_action_is_a_cheap_immutable_record():
    a = Action(3, 1, SEND, 2, token=5)
    assert (a.start_round, a.node, a.kind, a.target, a.token) == (3, 1, SEND, 2, 5)
    assert Action(1, 0, COMPUTE) == Action(1, 0, COMPUTE, None, None)
    assert repr(a) == "Action(start_round=3, node=1, kind='SEND', target=2, token=5)"
    assert a == Action(3, 1, SEND, 2, 5) and hash(a) == hash(Action(3, 1, SEND, 2, 5))
    assert a != Action(3, 1, SEND, 2) and a._replace(token=None) == Action(3, 1, SEND, 2)
    assert pickle.loads(pickle.dumps(a)) == a
    assert type(pickle.loads(pickle.dumps(a))) is Action
    with pytest.raises(AttributeError):
        a.node = 4
    # COMPUTE first, then target and token with unset as -1.
    acts = [Action(2, 0, COMPUTE), Action(1, 1, SEND, 0, 4), Action(1, 1, SEND, 0),
            Action(1, 1, COMPUTE), Action(1, 0, SEND, 2), Action(1, 0, SEND, 1)]
    assert [x.sort_key() for x in sorted(acts, key=Action.sort_key)] == [
        (1, 0, 1, 1, -1), (1, 0, 1, 2, -1), (1, 1, 0, -1, -1),
        (1, 1, 1, 0, -1), (1, 1, 1, 0, 4), (2, 0, 0, -1, -1),
    ]


def test_action_checks_hold_on_every_way_to_build_one():
    a = Action(1, 0, SEND, 1)
    builders = (
        lambda fields: Action(*fields),
        Action._make,
        lambda fields: a._replace(**dict(zip(Action._fields, fields))),
    )
    for build in builders:
        for fields, message in (
            ((1, 0, "WAIT", None, None), "unknown action kind 'WAIT'"),
            ((1, 0, SEND, None, None), "SEND needs a target"),
            ((1, 0, COMPUTE, 1, None), "COMPUTE takes no target or token"),
            ((1, 0, COMPUTE, None, 2), "COMPUTE takes no target or token"),
        ):
            with pytest.raises(MalformedInputError, match=message):
                build(fields)
    # Unpickling builds through the constructor too ("WAIT" is as long as "SEND").
    with pytest.raises(MalformedInputError, match="unknown action kind 'WAIT'"):
        pickle.loads(pickle.dumps(a).replace(b"SEND", b"WAIT"))


def test_params_positive():
    with pytest.raises(MalformedInputError):
        NetworkParams(0, 1)
    with pytest.raises(MalformedInputError):
        NetworkParams(1, 0)


def test_action_shapes():
    with pytest.raises(MalformedInputError):
        Action(1, 0, SEND)  # no target
    with pytest.raises(MalformedInputError):
        Action(1, 0, COMPUTE, target=1)
    with pytest.raises(MalformedInputError):
        Action(1, 0, "WAIT")


def test_schedule_canonical_order():
    a = Action(2, 0, COMPUTE)
    b = Action(1, 1, SEND, 0)
    assert Schedule(2, (a, b)) == Schedule(2, (b, a))
    assert Schedule(2, (a, b)).actions[0] == b


_ACTIONS = st.one_of(
    st.builds(Action, st.integers(1, 3), st.integers(0, 2), st.just(COMPUTE)),
    st.builds(Action, st.integers(1, 3), st.integers(0, 2), st.just(SEND),
              st.integers(0, 2), st.none() | st.integers(0, 2)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ACTIONS, max_size=5))
@example([Action(1, 0, SEND, 1, 0), Action(1, 0, SEND, 1)])  # None vs 0: TypeError
def test_schedule_sorts_every_permutation_in_sort_key_order(acts):
    want = tuple(sorted(acts, key=Action.sort_key))
    for perm in permutations(acts):
        assert Schedule(3, perm).actions == want


def test_single_node_empty_schedule_is_valid():
    g = Graph(1, [])
    assert validate_schedule(g, P11, Schedule(0)).valid


def test_two_node_send_then_compute():
    g = complete_graph(2)
    s = Schedule(2, (Action(1, 1, SEND, 0), Action(2, 0, COMPUTE)))
    report = validate_schedule(g, P11, s)
    assert report.valid and report.final_token_count == 1
    final = simulate(g, P11, s)[-1][1]
    assert final.tokens_at(0) == (frozenset({0, 1}),)
    assert final.tokens_at(1) == ()


def test_two_node_exhaustive_length2_optimum():
    # Independent oracle for the forced two-node optimum: enumerate every
    # schedule of length 2 (each node idles, sends, or computes each round)
    # and collect the valid ones.
    g = complete_graph(2)
    options = [None, ("S", 0, 1), ("S", 1, 0), ("C", 0), ("C", 1)]
    valid = set()
    for r1a in options:
        for r1b in options:
            for r2a in options:
                for r2b in options:
                    acts = []
                    ok = True
                    for r, picks in ((1, (r1a, r1b)), (2, (r2a, r2b))):
                        nodes = set()
                        for pick in picks:
                            if pick is None:
                                continue
                            if pick[1] in nodes:
                                ok = False
                                break
                            nodes.add(pick[1])
                            if pick[0] == "S":
                                acts.append(Action(r, pick[1], SEND, pick[2]))
                            else:
                                acts.append(Action(r, pick[1], COMPUTE))
                    if not ok:
                        continue
                    s = Schedule(2, tuple(acts))
                    if validate_schedule(g, P11, s).valid:
                        valid.add(s)
    # The only valid shape: one node sends in round 1, the other merges in round 2.
    assert len(valid) == 2
    for s in valid:
        kinds = [a.kind for a in s.actions]
        assert kinds == [SEND, COMPUTE]


def test_compute_needs_two_tokens():
    g = complete_graph(2)
    s = Schedule(2, (Action(1, 0, COMPUTE),))
    report = validate_schedule(g, P11, s)
    assert not report.valid
    assert report.violation[2] == "b"


def test_send_without_token_rule_a():
    g = complete_graph(3)
    s = Schedule(3, (
        Action(1, 1, SEND, 0),
        Action(2, 1, SEND, 0),  # token already gone
        Action(2, 0, COMPUTE),
    ))
    report = validate_schedule(g, P11, s)
    assert not report.valid and report.violation[2] == "a"


def test_named_token_must_be_held():
    g = complete_graph(2)
    s = Schedule(2, (Action(1, 1, SEND, 0, token=0), Action(2, 0, COMPUTE)))
    report = validate_schedule(g, P11, s)
    assert not report.valid and report.violation[2] == "a"
    ok = Schedule(2, (Action(1, 1, SEND, 0, token=1), Action(2, 0, COMPUTE)))
    assert validate_schedule(g, P11, ok).valid


def test_busy_overlap_rule_c():
    g = complete_graph(2)
    p = NetworkParams(1, 2)
    s = Schedule(4, (Action(1, 1, SEND, 0), Action(2, 1, SEND, 0)))
    report = validate_schedule(g, p, s)
    assert not report.valid and report.violation[2] == "c"


def test_window_rule_d():
    g = complete_graph(2)
    p = NetworkParams(1, 3)
    s = Schedule(3, (Action(2, 1, SEND, 0),))  # occupies [2, 4] > 3
    report = validate_schedule(g, p, s)
    assert not report.valid and report.violation[2] == "d"
    early = Schedule(3, (Action(0, 1, SEND, 0),))
    assert validate_schedule(g, p, early).violation[2] == "d"


def test_actions_past_the_end_fail_rule_d_without_hanging():
    # Path 0-1-2 at t_m = 2, length 4: node 1 merges 0's token at round 3,
    # and node 2's send from round 3 is still in flight (it lands at 5, one
    # past the end) when the walk reaches the late action.
    g, p, length = path_graph(3), NetworkParams(1, 2), 4
    base = (Action(1, 0, SEND, 1), Action(3, 1, COMPUTE))
    started = time.perf_counter()
    for late in (length + 1, length + 5, 10**9):
        for in_flight in ((), (Action(3, 2, SEND, 1),)):
            s = Schedule(length, base + in_flight + (Action(late, 1, COMPUTE),))
            violation = (late, 1, "d", f"COMPUTE occupies [{late}, {late}] outside [1, {length}]")
            assert validate_schedule(g, p, s).violation == violation
            for replay in (simulate, replay_events):
                with pytest.raises(InvalidScheduleError) as info:
                    replay(g, p, s)
                assert (info.value.round, info.value.node, info.value.rule,
                        info.value.message) == violation
    assert time.perf_counter() - started < 1.0


def test_leftover_tokens_rule_e():
    g = complete_graph(2)
    report = validate_schedule(g, P11, Schedule(1))
    assert not report.valid
    assert report.violation[2] == "e"
    assert report.final_token_count == 2


def test_cost_follows_actions_not_declared_length():
    huge = 10**12
    ok = Schedule(huge, (Action(1, 1, SEND, 0), Action(huge, 0, COMPUTE)))
    short = Schedule(huge, (Action(1, 1, SEND, 0), Action(2, 0, COMPUTE)))  # node 2 left out
    started = time.perf_counter()
    assert validate_schedule(complete_graph(2), P11, ok).valid
    assert validate_schedule(complete_graph(3), P11, short).violation == (
        huge, -1, "e", f"2 tokens remain after round {huge}"
    )
    final, events = replay_events(complete_graph(2), P11, ok)
    assert final.counts() == (1, 0)
    assert [e[:2] for e in events] == [("deliver", 2), ("merge", huge + 1)]
    # 10**7 for simulate, not 10**12: a trace of one state per declared round
    # fails this check at about 150 MB, where 10**12 would ask for terabytes.
    long = 10**7
    trace = simulate(complete_graph(2), P11,
                     Schedule(long, (Action(1, 1, SEND, 0), Action(long, 0, COMPUTE))))
    assert [(r, state.counts()) for r, state in trace] == [
        (0, (1, 1)), (1, (2, 0)), (long, (1, 0))
    ]
    assert time.perf_counter() - started < 1.0


def test_malformed_actions_raise_not_report():
    g = path_graph(3)
    with pytest.raises(MalformedInputError):
        validate_schedule(g, P11, Schedule(2, (Action(1, 5, COMPUTE),)))
    with pytest.raises(MalformedInputError):
        # 0 and 2 are not neighbors on the path: malformed, not merely invalid
        validate_schedule(g, P11, Schedule(2, (Action(1, 0, SEND, 2),)))


def test_path3_simulation_and_boundaries():
    g = path_graph(3)
    s = Schedule(3, (
        Action(1, 0, SEND, 1),
        Action(1, 2, SEND, 1),
        Action(2, 1, COMPUTE),
        Action(3, 1, COMPUTE),
    ))
    trace = simulate(g, P11, s)
    assert [r for r, _ in trace] == [0, 1, 2, 3]  # every round changes the holdings
    assert trace[0][1] == initial_state(g)
    # Boundary after round 1 already shows the deliveries landing at round 2.
    assert trace[1][1].counts() == (0, 3, 0)
    assert trace[3][1].tokens_at(1) == (frozenset({0, 1, 2}),)
    assert validate_schedule(g, P11, s).valid


def test_simulate_is_deterministic():
    g = star_graph(4)
    s = Schedule(4, (
        Action(1, 1, SEND, 0),
        Action(1, 2, SEND, 0),
        Action(1, 3, SEND, 0),
        Action(2, 0, COMPUTE),
        Action(3, 0, COMPUTE),
        Action(4, 0, COMPUTE),
    ))
    assert simulate(g, P11, s) == simulate(g, P11, s)


def test_in_flight_token_counts_at_sender():
    g = complete_graph(2)
    p = NetworkParams(1, 3)
    s = Schedule(4, (Action(1, 1, SEND, 0), Action(4, 0, COMPUTE)))
    trace = simulate(g, p, s)
    assert [r for r, _ in trace] == [0, 3, 4]
    # During rounds 1..3 the token is in flight and still listed at node 1.
    assert state_after(trace, 1).counts() == (1, 1)
    assert state_after(trace, 2).counts() == (1, 1)
    # Boundary after round 3 shows the delivery at the start of round 4.
    assert state_after(trace, 3).counts() == (2, 0)
    assert validate_schedule(g, p, s).valid


def test_token_conservation_against_completed_merges():
    g = star_graph(4)
    p = NetworkParams(2, 1)
    s = Schedule(7, (
        Action(1, 1, SEND, 0),
        Action(1, 2, SEND, 0),
        Action(1, 3, SEND, 0),
        Action(2, 0, COMPUTE),
        Action(4, 0, COMPUTE),
        Action(6, 0, COMPUTE),
    ))
    trace = simulate(g, p, s)
    for r in range(s.length + 1):
        state = state_after(trace, r)
        merged = sum(
            1 for a in s.actions
            if a.kind == COMPUTE and a.start_round + p.t_c <= r + 1
        )
        assert state.total_tokens() == g.n - merged
        assert state.singleton_cover() == list(range(g.n))


def _random_schedule(rng, g, p, length):
    actions = []
    busy = [0] * g.n
    for r in range(1, length + 1):
        for v in range(g.n):
            if busy[v] >= r or rng.random() < 0.4:
                continue
            if rng.random() < 0.5:
                tgt = int(rng.choice(sorted(g.adj[v])))
                actions.append(Action(r, v, SEND, tgt))
                busy[v] = r + p.t_m - 1
            else:
                actions.append(Action(r, v, COMPUTE))
                busy[v] = r + p.t_c - 1
    return Schedule(length, tuple(actions))


def test_validator_simulator_agreement_fuzz():
    import numpy as np

    from tokensched.complete import opt_complete

    rng = np.random.default_rng(7)
    graphs = [complete_graph(3), path_graph(4), star_graph(4)]
    cases = []
    for i in range(300):
        g = graphs[i % 3]
        p = NetworkParams(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        cases.append((g, p, _random_schedule(rng, g, p, int(rng.integers(1, 7)))))
    # Mix in known-valid schedules and padded variants so both sides of the
    # equivalence are exercised.
    for n in (3, 4, 5):
        s = opt_complete(n, P11)
        cases.append((complete_graph(n), P11, s))
        cases.append((complete_graph(n), P11, Schedule(s.length + 2, s.actions)))
    valid_seen = 0
    for g, p, s in cases:
        report = validate_schedule(g, p, s)
        try:
            sim_valid = simulate(g, p, s)[-1][1].total_tokens() == 1
        except InvalidScheduleError:
            sim_valid = False
        assert report.valid == sim_valid
        valid_seen += report.valid
    assert valid_seen >= 6


def test_lower_bounds_examples():
    assert lower_bounds(complete_graph(7), P11) == (3, 1, 3)
    # ceil(log2 3) = 2, so the compute bound is 2 and the radius bound wins.
    assert lower_bounds(path_graph(3), NetworkParams(1, 5)) == (2, 5, 5)
    assert lower_bounds(Graph(1, []), P11) == (0, 0, 0)
    with pytest.raises(DisconnectedGraphError):
        lower_bounds(Graph(3, [(0, 1)]), P11)


def test_trivial_upper_bound_examples():
    assert trivial_upper_bound(complete_graph(4), P11) == 6
    assert trivial_upper_bound(Graph(1, []), P11) == 0
    assert trivial_upper_bound(path_graph(3), NetworkParams(2, 1)) == 8
    with pytest.raises(DisconnectedGraphError):
        trivial_upper_bound(Graph(2, []), P11)


def test_replay_events_order_and_content():
    g = path_graph(3)
    s = Schedule(3, (
        Action(1, 0, SEND, 1),
        Action(1, 2, SEND, 1),
        Action(2, 1, COMPUTE),
        Action(3, 1, COMPUTE),
    ))
    final, events = replay_events(g, P11, s)
    assert final.total_tokens() == 1
    kinds = [e[0] for e in events]
    assert kinds == ["deliver", "deliver", "merge", "merge"]
    # Same-round deliveries are ordered by sender id.
    assert events[0][2] == 0 and events[1][2] == 2


M = (COMPUTE, None)


def test_asap_merges_whenever_free_with_two_tokens():
    p = NetworkParams(2, 1)
    # Back to back on tokens already held.
    assert _asap(p, [[M, M]], [3]) == ([Action(1, 0, COMPUTE), Action(3, 0, COMPUTE)], 4)
    # Both tokens land at round 2, while node 0 is busy merging.
    assert _asap(p, [[M, M, M], [(SEND, 0)], [(SEND, 0)]], [2, 1, 1]) == ([
        Action(1, 0, COMPUTE), Action(1, 1, SEND, 0), Action(1, 2, SEND, 0),
        Action(3, 0, COMPUTE), Action(5, 0, COMPUTE),
    ], 6)


def test_asap_idles_until_the_next_landing():
    # Tokens land at node 0 in rounds 4, 4 and 9; it merges at 4 and 6, then
    # idles until 9.  Node 3 waits for node 4's token, merges, then sends.
    p = NetworkParams(2, 3)
    queues = [[M, M, M], [(SEND, 0)], [(SEND, 0)], [M, (SEND, 0)], [(SEND, 3)]]
    actions, last = _asap(p, queues, [1, 1, 1, 1, 1])
    assert sorted(actions) == [
        Action(1, 1, SEND, 0), Action(1, 2, SEND, 0), Action(1, 4, SEND, 3),
        Action(4, 0, COMPUTE), Action(4, 3, COMPUTE), Action(6, 0, COMPUTE),
        Action(6, 3, SEND, 0), Action(9, 0, COMPUTE),
    ]
    assert last == 10


def test_asap_holds_a_start_back_until_the_nodes_own_send_ends():
    # As at the gadget hub: node 0 still holds two tokens after its send
    # starts, but is busy sending through round t_m = 3.
    p = NetworkParams(1, 3)
    assert _asap(p, [[(SEND, 1), M], [M]], [3, 1]) == ([
        Action(1, 0, SEND, 1), Action(4, 0, COMPUTE), Action(4, 1, COMPUTE),
    ], 4)


def test_asap_cost_does_not_grow_with_the_rounds():
    p = NetworkParams(10**9, 10**9)
    t0 = time.perf_counter()
    timed = _asap(p, [[(SEND, 1)], [M]], [1, 1])
    assert time.perf_counter() - t0 < 0.1
    assert timed == ([Action(1, 0, SEND, 1), Action(10**9 + 1, 1, COMPUTE)], 2 * 10**9)


def test_asap_starts_each_action_once_its_tokens_are_in():
    # On the path 0 - 1 - 2, node 1 merges the tokens that nodes 0 and 2
    # send it; each action starts at the first round its node is free with
    # the tokens it needs.
    queues = [[(SEND, 1)], [M, M], [(SEND, 1)]]
    assert _asap(P11, queues, [1, 1, 1]) == ([
        Action(1, 0, SEND, 1), Action(1, 2, SEND, 1),
        Action(2, 1, COMPUTE), Action(3, 1, COMPUTE),
    ], 3)
    p = NetworkParams(2, 1)  # the second merge waits for the first
    assert _asap(p, queues, [1, 1, 1])[0][-1] == Action(4, 1, COMPUTE)


def test_asap_refuses_an_action_that_never_gets_its_tokens():
    with pytest.raises(ValueError, match="node 0"):
        _asap(P11, [[M], []], [1, 1])
