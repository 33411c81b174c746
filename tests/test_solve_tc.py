import pytest

from tokensched.core import (
    NetworkParams,
    Schedule,
    lower_bounds,
    trivial_upper_bound,
    validate_schedule,
)
from tokensched.approx import FALLBACK_W, solve_tc
from tokensched.generators import (
    complete_graph,
    cycle_graph,
    gnp_connected,
    grid_graph,
    path_graph,
)

P11 = NetworkParams(1, 1)


def test_single_node_is_empty():
    from tokensched.core import Graph

    assert solve_tc(Graph(1, []), P11, seed=0) == Schedule(0)


def test_two_nodes_forced_length():
    for tc, tm in [(1, 1), (2, 1), (1, 3)]:
        p = NetworkParams(tc, tm)
        s = solve_tc(complete_graph(2), p, seed=0)
        assert s.length == tc + tm
        assert validate_schedule(complete_graph(2), p, s).valid


def test_disconnected_rejected():
    from tokensched.core import DisconnectedGraphError, Graph

    assert issubclass(DisconnectedGraphError, ValueError)
    with pytest.raises(DisconnectedGraphError):
        solve_tc(Graph(3, [(0, 1)]), P11, seed=0)


def test_determinism_per_seed():
    g = gnp_connected(15, 0.3, seed=44)
    p = NetworkParams(1, 2)
    assert solve_tc(g, p, seed=7) == solve_tc(g, p, seed=7)


def test_lp_iterations_run_above_fallback_threshold():
    g = grid_graph(4, 4)  # 16 > FALLBACK_W holders at the start
    assert g.n > FALLBACK_W
    for p in (NetworkParams(1, 1), NetworkParams(3, 1)):
        rows = []
        s = solve_tc(g, p, seed=5, report=rows)
        assert validate_schedule(g, p, s).valid
        routers = [r.router for r in rows]
        expected = "m" if p.t_c > p.t_m else "c"
        assert expected in routers
        assert rows[0].holders == 16
        for r in rows:
            if r.router != "fallback":
                assert r.L >= 1 and r.z > 0 and r.sources >= 1


def test_various_topologies_validate():
    cases = [
        (path_graph(9), NetworkParams(1, 2)),
        (cycle_graph(10), NetworkParams(2, 1)),
        (grid_graph(3, 5), NetworkParams(2, 2)),
        (complete_graph(14), NetworkParams(1, 3)),
    ]
    for g, p in cases:
        s = solve_tc(g, p, seed=3)
        assert validate_schedule(g, p, s).valid
        assert s.length <= 8 * trivial_upper_bound(g, p)


def test_report_rows_are_complete():
    g = gnp_connected(18, 0.25, seed=9)
    rows = []
    solve_tc(g, P11, seed=2, report=rows)
    assert rows
    assert [r.iteration for r in rows] == list(range(1, len(rows) + 1))
    holders = [r.holders for r in rows]
    assert all(a > b for a, b in zip(holders, holders[1:]))  # strict progress
    assert all(r.fragment_rounds >= 1 for r in rows)


def test_length_respects_lower_bound():
    g = cycle_graph(12)
    p = NetworkParams(2, 3)
    s = solve_tc(g, p, seed=11)
    assert s.length >= lower_bounds(g, p)[2]
