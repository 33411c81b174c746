import pytest

from tokensched.core import NetworkParams
from tokensched.approx import (
    build_flow_lp,
    choose_L,
    solve_flow_lp,
    xi_bound,
)
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
    # All four holders certify; three fall back to the LP grid scan.
    g = path_graph(4)
    p = NetworkParams(2, 1)
    xi = xi_bound(g, p)
    for W, method in (([0, 1, 2, 3], "certified"), ([0, 1, 3], "lp")):
        L, sol = choose_L(g, W, p)
        assert sol.method == method
        chosen = p.t_m * L + min(p.t_c, p.t_m) * sol.z
        at_xi = p.t_m * xi + min(p.t_c, p.t_m) * solve_flow_lp(build_flow_lp(g, W, xi)).z
        assert chosen <= at_xi + TOL
