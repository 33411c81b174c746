"""The certified congestion-2 path system that stands in for the flow LP,
and the cut-vertex bound on z that ends `choose_L`'s scan.

With the LP as oracle: every flow `_certified_flow` returns is a feasible
point of `build_flow_lp(g, W, D)` at z = 2, and the LP's own optimum there is
2, and sampling it gives its own paths.  Where no certificate exists,
`choose_L` returns the LP's answer; where one does, `solve_tc` never needs
the LP at all.  `_forced_inflow` meets its definition and never exceeds the
LP's z, and the scan it stops picks the same step count and flow as a scan
that assumes only z >= 0.  Both functions match, call for call, the
versions in `approx_reference.py` that rebuilt the graph's search and arrays
on every call, and `solve_tc` builds those arrays once per graph.
"""

import dataclasses
import time
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
    _forced_inflow,
    build_flow_lp,
    choose_L,
    sample_paths,
    solve_flow_lp,
    solve_tc,
    xi_bound,
)
from tokensched.core import Graph, NetworkParams, validate_schedule
from tokensched.generators import grid_graph, path_graph, star_graph


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
    flow = _certified_flow(g, W, d)
    event("certified" if flow is not None else "no certificate")
    if flow is None:
        return
    assert flow.method == "certified" and flow.z == 2.0 and flow.steps == d
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
    # sample_paths reads a certified flow's paths off; walking it gives them too.
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
    assert _forced_inflow(g, W) == approx_reference._forced_inflow(g, W)
    d = max(1, g.diameter())
    for L in (1, d, 2 * d):
        got, want = _certified_flow(g, W, L), approx_reference._certified_flow(g, W, L)
        event(f"L = {L // d} D: {'certified' if want else 'no certificate'}")
        if want is None:
            assert got is None
        else:
            fields = ("flows", "W", "steps", "z", "method")
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


def forced_inflow_reference(g, W) -> int:
    """_forced_inflow by its definition: one search of G - c per vertex c,
    counting the components that hold exactly one holder."""
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


def choose_L_reference(g, W, p):
    """choose_L solving the LP at every grid point where t_m * L alone is
    below the best objective so far, so it assumes no more than z >= 0: the
    first strict improvement by more than LP_TOLERANCE wins.  (Past those
    points it would pick the same; solving them too takes HiGHS seconds on
    some draws.)"""
    d = max(1, g.diameter())
    flow = approx._certified_flow(g, W, d)
    if flow is not None:
        return d, flow
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
    bound = _forced_inflow(g, W)
    assert bound == forced_inflow_reference(g, set(W))
    d = max(1, g.diameter())
    for L in (d, 2 * d):
        assert bound <= solve_flow_lp(build_flow_lp(g, W, L)).z + LP_TOLERANCE
    p = NetworkParams(*costs)
    L, sol = choose_L(g, W, p)
    ref_L, ref = choose_L_reference(g, W, p)
    assert (L, sol.method, sol.z, sol.flows) == (ref_L, ref.method, ref.z, ref.flows)
    # Most draws are certified; the scan runs on every draw without it.
    with mock.patch.object(approx, "_certified_flow", lambda g, W, L: None):
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
    assert _forced_inflow(g, W) == 30
    L, sol = choose_L(g, W, NetworkParams(1, 2))
    assert [lp.steps for lp in solved] == [L] == [g.diameter()]
    assert sol.z == pytest.approx(30.0, abs=LP_TOLERANCE)


def test_certificate_pairs_off_a_path_and_a_grid():
    for g in (path_graph(6), grid_graph(4, 5)):
        W = list(range(g.n))
        flow = _certified_flow(g, W, g.diameter())
        assert flow is not None
        assert all(path[-1] != w for w, path in flow_paths(flow).items())
        L, chosen = choose_L(g, W, NetworkParams(1, 2))
        assert (L, chosen.method, chosen.z) == (g.diameter(), "certified", 2.0)


def _assert_lp_answer(g, W, p):
    L, sol = choose_L(g, W, p)
    ref = solve_flow_lp(build_flow_lp(g, W, L))
    assert sol.method == ref.method == "lp"
    assert (sol.z, sol.flows) == (ref.z, ref.flows)
    return L, sol


def test_odd_holder_count_falls_back_to_the_lp():
    g = path_graph(5)
    W = [0, 2, 4]
    assert _certified_flow(g, W, g.diameter()) is None
    _assert_lp_answer(g, W, NetworkParams(1, 1))


def test_path_over_the_diameter_falls_back_to_the_lp():
    # The max-flow routes every holder, but one of its paths has 4 > D hops.
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 4), (1, 7),
             (2, 3), (3, 4), (3, 5), (3, 6)]
    g = Graph(8, edges)
    W = [2, 5, 6, 7]
    assert g.diameter() == 3
    assert _certified_flow(g, W, 3) is None
    assert _certified_flow(g, W, 4) is not None
    _assert_lp_answer(g, W, NetworkParams(1, 1))


def test_star_falls_back_to_the_lp():
    # The hub is a holder, and no path may pass through a holder.
    g = star_graph(30)
    W = list(range(30))
    assert _certified_flow(g, W, g.diameter()) is None
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
