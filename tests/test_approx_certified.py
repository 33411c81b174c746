"""The certified path systems that stand in for the flow LP, and the
cut-vertex bound on z that ends `choose_L`'s scan.

With the LP as oracle: every flow `_certified_flow` returns within D hops
is a feasible point of `build_flow_lp(g, W, D)` at z = 2, and every flow
`_forced_flow` returns one at the bound z_low, with each vertex within its
own count and every path leaving or entering a vertex of count above 2; the
LP's own optimum there is the same, and sampling either flow gives its own
paths.  Where no certificate exists, `choose_L` returns the LP's answer;
where one does, `solve_tc` never needs the LP, nor the diameter when the
paths fit in ecc(0).  On `mds_apx`'s gadgets `_forced_flow` certifies no
round.  The largest of `_inflow_counts` meets its definition and never
exceeds the LP's z, and the scan it stops picks the same step count and
flow as a scan that assumes only z >= 0.  `_certified_flow` and that bound
match, call for call, the versions in `approx_reference.py` that rebuilt
the graph's search and arrays on every call, and `solve_tc` builds those
arrays once per graph.
"""

import dataclasses
import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import approx_reference
from tokensched import approx
from tokensched.approx import (
    LP_TOLERANCE,
    _certified_flow,
    _forced_flow,
    _inflow_counts,
    build_flow_lp,
    choose_L,
    sample_paths,
    solve_flow_lp,
    solve_tc,
    xi_bound,
)
from tokensched.core import Graph, NetworkParams, validate_schedule
from tokensched.domset import disjoint_copies, psi_transform
from tokensched.generators import cycle_graph, grid_graph, path_graph, star_graph


def flow_paths(flow) -> dict:
    """holder -> its vertex path, read off its unit flow step by step."""
    out = {}
    for w, fw in flow.flows.items():
        path = [w]
        for r, u, v in sorted(fw):
            assert r == len(path) - 1 and u == path[-1] and fw[(r, u, v)] == 1.0
            path.append(v)
        out[w] = tuple(path)
    return out


@st.composite
def holder_instances(draw):
    """A connected graph on 2..14 nodes and an even holder set of size >= 2."""
    n = draw(st.integers(2, 14))
    spanning = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    node = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(node, node), max_size=n))
    g = Graph(n, spanning + [(u, v) for u, v in extra if u != v])
    k = draw(st.integers(1, n // 2))
    W = sorted(draw(st.permutations(range(n)))[: 2 * k])
    return g, W


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(holder_instances())
def test_certified_flow_is_an_lp_optimum(inst):
    g, W = inst
    d = max(1, g.diameter())
    flow = _certified_flow(g, W)
    event("no certificate" if flow is None else
          "certified" if flow.steps <= d else "longest path > D")
    if flow is None or flow.steps > d:
        return
    assert flow.method == "certified" and flow.z == 2.0
    lp = build_flow_lp(g, W, d)
    col = {c: i for i, c in enumerate(lp.cols)}
    x = np.zeros(lp.n_cols + 1)
    for w, fw in flow.flows.items():
        for (r, u, v), val in fw.items():
            x[col[(w, r, u, v)]] += val  # KeyError: an arc the LP does not have
    x[lp.n_cols] = 2.0
    assert np.abs(lp.a_eq @ x - lp.b_eq).max() <= LP_TOLERANCE
    assert (lp.a_ub @ x <= lp.b_ub + LP_TOLERANCE).all()
    assert solve_flow_lp(lp).z == pytest.approx(2.0, abs=LP_TOLERANCE)

    paths = flow_paths(flow)
    assert sorted(paths) == W
    for w, path in paths.items():
        assert len(set(path)) == len(path)
        assert 1 <= len(path) - 1 <= d
        assert path[-1] in W and path[-1] != w
        assert not set(path[1:-1]) & set(W)
        assert all(g.has_edge(u, v) for u, v in zip(path, path[1:]))
    assert sorted(path[-1] for path in paths.values()) == W  # one unit each
    assert flow.steps == max(len(path) for path in paths.values()) - 1
    # sample_paths reads a certified flow's paths off; walking it gives them too.
    walked = sample_paths(dataclasses.replace(flow, method="lp"), d, W, seed=7)
    assert sample_paths(flow, d, W, seed=7) == walked == tuple(paths[w] for w in W)


@st.composite
def cut_instances(draw):
    """A connected graph on 3..14 nodes, a tree plus at most n/3 edges, so
    most draws have cut vertices, and any holder set of size >= 2."""
    n = draw(st.integers(3, 14))
    spanning = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    node = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(node, node), max_size=n // 3))
    g = Graph(n, spanning + [(u, v) for u, v in extra if u != v])
    return g, sorted(draw(st.sets(node, min_size=2)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cut_instances())
@example((star_graph(30), list(range(30))))
def test_forced_flow_is_an_lp_optimum(inst):
    g, W = inst
    caps = _inflow_counts(g, W)
    z_low = max(caps)
    flow = _forced_flow(g, W, caps)
    event(f"z_low {'=' if z_low == 2 else '>'} 2: {'certified' if flow else 'no certificate'}")
    if flow is None:
        return
    paths = flow_paths(flow)
    assert sorted(paths) == W
    load = Counter()
    for w, path in paths.items():
        assert len(set(path)) == len(path)
        assert path[-1] in W and path[-1] != w
        assert not set(path[1:-1]) & set(W)
        assert all(g.has_edge(u, v) for u, v in zip(path, path[1:]))
        assert max(caps[w], caps[path[-1]]) > 2
        load.update(path[1:])
    assert all(load[c] + (c in W) <= caps[c] for c in range(g.n))
    assert flow.steps == max(len(path) for path in paths.values()) - 1
    assert flow.method == "certified" and flow.z == z_low

    d = max(1, g.diameter())
    event("longest path <= D" if flow.steps <= d else "longest path > D")
    lp = build_flow_lp(g, W, max(d, flow.steps))
    col = {c: i for i, c in enumerate(lp.cols)}
    x = np.zeros(lp.n_cols + 1)
    for w, fw in flow.flows.items():
        for (r, u, v), val in fw.items():
            x[col[(w, r, u, v)]] += val  # KeyError: an arc the LP does not have
    x[lp.n_cols] = z_low
    assert np.abs(lp.a_eq @ x - lp.b_eq).max() <= LP_TOLERANCE
    assert (lp.a_ub @ x <= lp.b_ub + LP_TOLERANCE).all()
    assert solve_flow_lp(lp).z == pytest.approx(z_low, abs=LP_TOLERANCE)
    walked = sample_paths(dataclasses.replace(flow, method="lp"), d, W, seed=7)
    assert sample_paths(flow, d, W, seed=7) == walked == tuple(paths[w] for w in W)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(holder_instances())
# Swapping the halves A and B changes the flows here; most small draws hide it.
@example((Graph(7, [(0, 1), (0, 2), (0, 6), (1, 2), (1, 3), (1, 5), (1, 6), (2, 3), (2, 6),
                    (3, 4), (3, 6)]), [2, 4, 5, 6]))
@example((grid_graph(6, 7), list(range(42))))
def test_certificate_matches_the_reference(inst):
    g, W = inst
    assert max(_inflow_counts(g, W)) == approx_reference._forced_inflow(g, W)
    d = max(1, g.diameter())
    got = _certified_flow(g, W)  # with no hop cap: the reference's within its steps
    for L in (1, d, 2 * d):
        want = approx_reference._certified_flow(g, W, L)
        event(f"L = {L // d} D: {'certified' if want else 'no certificate'}")
        if want is None:
            assert got is None or got.steps > L
        else:
            assert got.steps <= L
            fields = ("flows", "W", "z", "method")
            assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]


def test_graph_arrays_built_once(monkeypatch):
    # Every certified round reads the search twice, for the cut-vertex bound
    # and for the certificate's preorder; it runs once per graph.
    built = []
    dfs = Graph.__dict__["_dfs"]
    build = dfs.func
    monkeypatch.setattr(dfs, "func", lambda g: built.append(g) or build(g))
    g = grid_graph(8, 8)
    rows = []
    solve_tc(g, NetworkParams(1, 2), seed=1, report=rows)
    assert [r.flow for r in rows].count("certified") == 3
    assert built == [g]


def test_diameter_is_not_computed_on_certified_runs(monkeypatch):
    # Every round of these runs is certified within ecc(0), the search
    # is_connected makes, so the diameter is never needed.
    extremes = Graph.__dict__["_extremes"]
    monkeypatch.setattr(extremes, "func", lambda g: pytest.fail("diameter computed"))
    for g in (grid_graph(8, 8), cycle_graph(60)):
        for costs in ((1, 2), (2, 1)):
            rows = []
            solve_tc(g, NetworkParams(*costs), seed=101, report=rows)
            assert "certified" in {r.flow for r in rows} <= {"certified", "-"}


@pytest.mark.parametrize("costs", [(1, 2), (2, 1)])
def test_star_runs_without_the_lp(monkeypatch, costs):
    # z_low > 2 in every LP round here: the hub takes every leaf's unit.
    # _forced_flow meets the bound, so HiGHS never runs.
    def no_lp(lp):
        raise AssertionError("solve_flow_lp called")

    monkeypatch.setattr(approx, "solve_flow_lp", no_lp)
    g = star_graph(30)
    p = NetworkParams(*costs)
    rows = []
    s = solve_tc(g, p, seed=101, report=rows)
    assert validate_schedule(g, p, s).valid
    assert "certified" in {r.flow for r in rows} <= {"certified", "-"}
    assert all(r.z > 2 for r in rows if r.flow == "certified")


@pytest.mark.parametrize("base", ["P4", "C5"])
def test_gadget_rounds_go_to_the_lp(base):
    # mds_apx's first gadget at eps = 1: a hub over two base copies, whose
    # danglers fill the hub's count.  No base holder is lone, so the bound
    # forces none of their units, and the LP's optimum routes them.
    g = {"P4": path_graph(4), "C5": cycle_graph(5)}[base]
    gadget = psi_transform(disjoint_copies(g, 2), 5)
    W = list(range(gadget.graph.n - gadget.graph.n % 2))
    counts = _inflow_counts(gadget.graph, W)
    assert max(counts) > 2 and _forced_flow(gadget.graph, W, counts) is None
    rows = []
    solve_tc(gadget.graph, gadget.params, seed=7, report=rows)
    assert "lp" in {r.flow for r in rows} <= {"lp", "-"}


def forced_inflow_reference(g, W) -> int:
    """max(_inflow_counts) by its definition: one search of G - c per vertex
    c, counting the components that hold exactly one holder."""
    best = 2
    for c in range(g.n):
        seen = {c}
        lone = 0
        for s in range(g.n):
            if s in seen:
                continue
            seen.add(s)
            component = [s]
            for u in component:
                for v in g.adj[u]:
                    if v not in seen:
                        seen.add(v)
                        component.append(v)
            lone += sum(v in W for v in component) == 1
        best = max(best, (c in W) + lone)
    return best


def no_certificates():
    """Both certificates patched out, so choose_L goes to the LP grid."""
    return mock.patch.multiple(approx, _certified_flow=lambda *a: None,
                               _forced_flow=lambda *a: None)


def choose_L_reference(g, W, p):
    """choose_L solving the LP at every grid point where t_m * L alone is
    below the best objective so far, so it assumes no more than z >= 0: the
    first strict improvement by more than LP_TOLERANCE wins.  (Past those
    points it would pick the same; solving them too takes HiGHS seconds on
    some draws.)  It first tries the same certificate as choose_L, checked
    against D itself."""
    d = max(1, g.diameter())
    caps = approx._inflow_counts(g, W)
    if max(caps) == 2:
        flow = approx._certified_flow(g, W)
    else:
        flow = approx._forced_flow(g, W, caps)
    if flow is not None and flow.steps <= d:
        return flow.steps, flow
    xi = xi_bound(g, p)
    grid = []
    L = d
    while L < xi:
        grid.append(L)
        L *= 2
    weight = min(p.t_c, p.t_m)
    best = None
    for L in grid + [xi]:
        if best is not None and p.t_m * L >= best[0]:
            break
        sol = solve_flow_lp(build_flow_lp(g, W, L))
        obj = p.t_m * L + weight * sol.z
        if best is None or obj < best[0] - LP_TOLERANCE:
            best = (obj, L, sol)
    return best[1], best[2]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(holder_instances(), st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3)]))
def test_forced_inflow_bound_keeps_the_scan(inst, costs):
    g, W = inst
    bound = max(_inflow_counts(g, W))
    assert bound == forced_inflow_reference(g, set(W))
    d = max(1, g.diameter())
    for L in (d, 2 * d):
        assert bound <= solve_flow_lp(build_flow_lp(g, W, L)).z + LP_TOLERANCE
    p = NetworkParams(*costs)
    L, sol = choose_L(g, W, p)
    ref_L, ref = choose_L_reference(g, W, p)
    assert (L, sol.method, sol.z, sol.flows) == (ref_L, ref.method, ref.z, ref.flows)
    event(f"choose_L: {sol.method}, z_low {'=' if bound == 2 else '>'} 2")
    # Most draws are certified; the scan runs on every draw without them.
    with no_certificates():
        L, sol = choose_L(g, W, p)
        ref_L, ref = choose_L_reference(g, W, p)
    event(f"scan: z = {sol.z:g}, bound = {bound}, L = {L // d} D")
    assert (L, sol.z, sol.flows) == (ref_L, ref.z, ref.flows)


def test_star_scan_stops_after_one_lp(monkeypatch):
    # Every leaf's unit enters the hub, which holds its own token: z >= 30
    # at every L, and the first LP meets it, so no later L can win.
    solved = []
    monkeypatch.setattr(approx, "solve_flow_lp", lambda lp: solved.append(lp) or solve_flow_lp(lp))
    g = star_graph(30)
    W = list(range(30))
    assert max(_inflow_counts(g, W)) == 30
    with no_certificates():  # _forced_flow meets the bound without an LP
        L, sol = choose_L(g, W, NetworkParams(1, 2))
    assert [lp.steps for lp in solved] == [L] == [g.diameter()]
    assert sol.z == pytest.approx(30.0, abs=LP_TOLERANCE)


def test_certificate_pairs_off_a_path_and_a_grid():
    for g in (path_graph(6), grid_graph(4, 5)):
        W = list(range(g.n))
        flow = _certified_flow(g, W)
        assert flow is not None and flow.steps <= g.diameter()
        assert all(path[-1] != w for w, path in flow_paths(flow).items())
        L, chosen = choose_L(g, W, NetworkParams(1, 2))
        # Its L is the longest path, not D: D is computed only when needed.
        hops = max(len(path) for path in flow_paths(flow).values()) - 1
        assert (L, chosen.method, chosen.z) == (hops, "certified", 2.0)
        assert L <= g.diameter()


def _assert_lp_answer(g, W, p):
    L, sol = choose_L(g, W, p)
    ref = solve_flow_lp(build_flow_lp(g, W, L))
    assert sol.method == ref.method == "lp"
    assert (sol.z, sol.flows) == (ref.z, ref.flows)
    return L, sol


def test_odd_holder_count_falls_back_to_the_lp():
    g = path_graph(5)
    W = [0, 2, 4]
    assert _certified_flow(g, W) is None
    _assert_lp_answer(g, W, NetworkParams(1, 1))


def test_path_over_the_diameter_falls_back_to_the_lp():
    # The max-flow routes every holder, but one of its paths has 4 > D hops.
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 4), (1, 7),
             (2, 3), (3, 4), (3, 5), (3, 6)]
    g = Graph(8, edges)
    W = [2, 5, 6, 7]
    assert g.diameter() == 3
    assert _certified_flow(g, W).steps == 4
    _assert_lp_answer(g, W, NetworkParams(1, 1))


def test_star_falls_back_to_the_lp():
    # The hub is a holder, and no path may pass through a holder.
    g = star_graph(30)
    W = list(range(30))
    assert _certified_flow(g, W) is None
    with no_certificates():  # _forced_flow meets the bound without an LP
        L, sol = _assert_lp_answer(g, W, NetworkParams(1, 2))
    assert L == g.diameter()
    assert sol.z == pytest.approx(30.0, abs=LP_TOLERANCE)


@pytest.mark.parametrize("tc,tm", [(1, 2), (2, 1)])
def test_grid16_runs_without_the_lp(monkeypatch, tc, tm):
    def no_lp(lp):
        raise AssertionError("solve_flow_lp called")

    monkeypatch.setattr(approx, "solve_flow_lp", no_lp)
    g = grid_graph(16, 16)
    p = NetworkParams(tc, tm)
    rows = []
    started = time.perf_counter()
    s = solve_tc(g, p, seed=101, report=rows)
    assert time.perf_counter() - started < 5.0
    assert validate_schedule(g, p, s).valid
    assert {r.flow for r in rows} == {"certified", "-"}
