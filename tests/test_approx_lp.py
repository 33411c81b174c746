import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_array, vstack

import approx_reference
from tokensched import approx
from tokensched.core import Graph, NetworkParams
from tokensched.approx import (
    _holder_distances,
    build_flow_lp,
    choose_L,
    solve_flow_lp,
    xi_bound,
)
from tokensched.domset import disjoint_copies, psi_transform
from tokensched.generators import (
    complete_graph,
    cycle_graph,
    gnp_connected,
    path_graph,
    star_graph,
)

P11 = NetworkParams(1, 1)
TOL = 1e-6


def test_lp_needs_two_holders():
    with pytest.raises(ValueError):
        build_flow_lp(complete_graph(3), [1], 2)
    with pytest.raises(ValueError):
        build_flow_lp(complete_graph(2), [0, 1], 0)


def test_k2_congestion_is_two():
    sol = solve_flow_lp(build_flow_lp(complete_graph(2), [0, 1], 1))
    assert sol.z == pytest.approx(2.0, abs=TOL)


def test_star_hub_congestion_is_three():
    sol = solve_flow_lp(build_flow_lp(star_graph(4), [1, 2, 3], 2))
    assert sol.z == pytest.approx(3.0, abs=TOL)


def test_feasible_whenever_steps_cover_diameter():
    for g in (path_graph(5), cycle_graph(6), gnp_connected(8, 0.4, seed=2)):
        W = list(range(0, g.n, 2))
        sol = solve_flow_lp(build_flow_lp(g, W, g.diameter()))
        assert sol.z >= 1.0 - TOL


def test_doubling_steps_never_raises_z():
    g = gnp_connected(9, 0.35, seed=11)
    W = [0, 2, 4, 6]
    d = g.diameter()
    z1 = solve_flow_lp(build_flow_lp(g, W, d)).z
    z2 = solve_flow_lp(build_flow_lp(g, W, 2 * d)).z
    assert z2 <= z1 + TOL


def test_flow_solution_conservation_and_unit_source():
    g = cycle_graph(6)
    W = [0, 3]
    sol = solve_flow_lp(build_flow_lp(g, W, 3))
    for w in W:
        fw = sol.flows[w]
        out0 = sum(v for (r, u, _), v in fw.items() if r == 0 and u == w)
        assert out0 == pytest.approx(1.0, abs=TOL)
        for r in range(1, 3):
            for x in range(g.n):
                if x in W:
                    continue
                into = sum(v for (rr, _, y), v in fw.items() if rr == r - 1 and y == x)
                out = sum(v for (rr, u, _), v in fw.items() if rr == r and u == x)
                assert into == pytest.approx(out, abs=1e-5)
        # z dominates summed inflow at every vertex.
    for x in range(g.n):
        inflow = sum(
            v
            for w in W
            for (r, u, y), v in sol.flows[w].items()
            if y == x
        )
        assert sol.z >= inflow - 1e-5


def test_lp_determinism():
    g = gnp_connected(10, 0.3, seed=4)
    W = [0, 1, 5, 7]
    s1 = solve_flow_lp(build_flow_lp(g, W, 4))
    s2 = solve_flow_lp(build_flow_lp(g, W, 4))
    assert s1.z == s2.z and s1.flows == s2.flows


def test_xi_example():
    assert xi_bound(complete_graph(4), P11) == 12


def test_choose_L_on_k2():
    L, sol = choose_L(complete_graph(2), [0, 1], P11)
    assert L == 1
    assert P11.t_m * L + min(P11.t_c, P11.t_m) * sol.z == pytest.approx(3.0, abs=TOL)


def test_choose_L_beats_xi_endpoint():
    # All four holders certify at z = 2; three at the forced bound z = 3
    # (every unit into or out of holder 1), and with both certificates out
    # they fall back to the LP grid scan.
    g = path_graph(4)
    p = NetworkParams(2, 1)
    xi = xi_bound(g, p)
    for W, method in (([0, 1, 2, 3], "certified"), ([0, 1, 3], "certified"), ([0, 1, 3], "lp")):
        if method == "lp":
            with mock.patch.multiple(approx, _certified_flow=lambda *a: None,
                                     _forced_flow=lambda *a: None):
                L, sol = choose_L(g, W, p)
        else:
            L, sol = choose_L(g, W, p)
        assert sol.method == method
        chosen = p.t_m * L + min(p.t_c, p.t_m) * sol.z
        at_xi = p.t_m * xi + min(p.t_c, p.t_m) * solve_flow_lp(build_flow_lp(g, W, xi)).z
        assert chosen <= at_xi + TOL


@st.composite
def lp_instances(draw):
    """A graph on 2..12 nodes, connected or not, a holder set of size >= 2
    and a step count in 1..6."""
    n = draw(st.integers(2, 12))
    node = st.integers(0, n - 1)
    edges = [(u, v) for u, v in draw(st.lists(st.tuples(node, node), max_size=2 * n)) if u != v]
    if draw(st.booleans()):
        edges += [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    W = sorted(draw(st.sets(node, min_size=2)))
    return Graph(n, edges), W, draw(st.integers(1, 6))


def matches_the_reference(g, W, L) -> bool:
    """build_flow_lp and solve_flow_lp give what the reference's per-holder
    build and linprog solve give: the same columns, right-hand sides and
    HiGHS arrays, the same ValueError text, and exactly the same z and
    flows.  False when the reference refuses the instance."""
    try:
        ref = approx_reference.build_flow_lp(g, W, L)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            build_flow_lp(g, W, L)
        return False
    lp = build_flow_lp(g, W, L)
    assert lp.cols == ref.cols
    assert np.array_equal(lp.b_ub, ref.b_ub) and np.array_equal(lp.b_eq, ref.b_eq)
    stacked = csc_array(vstack((ref.a_ub, ref.a_eq)))  # what linprog hands HiGHS
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(lp, name), getattr(stacked, name)), name
    sol, want = solve_flow_lp(lp), approx_reference.solve_flow_lp(ref)
    assert sol.z == want.z and sol.flows == want.flows
    return True


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lp_instances())
def test_flow_lp_matches_the_reference(inst):
    event("solved" if matches_the_reference(*inst) else "refused")


@pytest.mark.parametrize("base,copies,t_m", [("P3", 1, 2), ("C5", 1, 2), ("P4", 2, 3), ("K3", 2, 2)])
def test_flow_lp_matches_the_reference_on_gadgets(base, copies, t_m):
    g = {"P3": path_graph(3), "C5": cycle_graph(5), "P4": path_graph(4),
         "K3": complete_graph(3)}[base]
    gadget = psi_transform(disjoint_copies(g, copies), t_m).graph
    d = gadget.diameter()
    everyone = list(range(gadget.n - gadget.n % 2))
    for W, L in ((everyone, d), (everyone, 2 * d), (everyone[::3], d), (everyone[1::2], d + 1)):
        assert matches_the_reference(gadget, W, L)


@settings(max_examples=200, deadline=None)
@given(lp_instances())
def test_flow_lp_sink_distances_match_the_reference(inst):
    """One search gives every holder's sink distances, as one search per
    holder did: to the nearest other holder, interior and start avoiding
    the holders."""
    g, W, _ = inst
    d1, h1, d2 = _holder_distances(g, W)
    wset = set(W)
    for w in W:
        want = approx_reference._sink_distances(g, wset - {w}, blocked=wset)
        assert [d1[v] if h1[v] != w else d2[v] for v in range(g.n)] == want


def test_infeasible_flow_lp_raises():
    lp = build_flow_lp(complete_graph(2), [0, 1], 1)
    assert lp.b_eq.tolist() == [1.0, 1.0]  # each holder's source row
    bad = dataclasses.replace(lp, b_eq=np.array([1.0, -1.0]))  # a unit into its source
    with pytest.raises(RuntimeError, match="did not solve: Infeasible"):
        solve_flow_lp(bad)
