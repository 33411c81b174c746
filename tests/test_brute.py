import gc
import hashlib
import time
import weakref

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from tokensched import brute
from tokensched.core import (
    Graph,
    NetworkParams,
    lower_bounds,
    trivial_upper_bound,
    validate_schedule,
)
from tokensched.brute import (
    NoScheduleWithinLimitError,
    SearchInfeasibleError,
    brute_opt,
    extract_opt_paths,
    max_singleton_distance,
    n_star_table,
    solvable_within,
    _automorphisms,
    _twin_classes,
)
from tokensched.complete import r_star, tree_size
from tokensched.files import format_schedule
from tokensched.generators import (
    complete_graph,
    cycle_graph,
    gnp_connected,
    grid_graph,
    path_graph,
    star_graph,
)

P11 = NetworkParams(1, 1)


def test_twin_classes():
    assert sorted(map(sorted, _twin_classes(complete_graph(4)))) == [[0, 1, 2, 3]]
    assert sorted(map(sorted, _twin_classes(star_graph(4)))) == [[1, 2, 3]]
    assert sorted(map(sorted, _twin_classes(path_graph(3)))) == [[0, 2]]
    assert _twin_classes(cycle_graph(5)) == []


def test_automorphisms_skip_twin_permutations():
    # star_graph(10) has 9! automorphisms and K_10 has 10!, all twin
    # permutations, so neither has a coset besides the identity's.
    def automorphisms(g):
        return _automorphisms(g, _twin_classes(g))

    start = time.perf_counter()
    assert automorphisms(star_graph(10)) == []
    assert automorphisms(complete_graph(10)) == []
    assert time.perf_counter() - start < 1
    assert automorphisms(path_graph(6)) == [(5, 4, 3, 2, 1, 0)]
    assert len(automorphisms(cycle_graph(5))) == 9


def test_oracle_examples():
    assert brute_opt(complete_graph(2), P11).opt_length == 2
    assert brute_opt(complete_graph(3), P11).opt_length == 3 == r_star(3, P11)
    assert brute_opt(path_graph(3), P11).opt_length == 3


def test_oracle_schedule_validates_and_is_deterministic():
    res1 = brute_opt(complete_graph(4), P11)
    res2 = brute_opt(complete_graph(4), P11)
    assert res1.schedule == res2.schedule
    assert validate_schedule(complete_graph(4), P11, res1.schedule).valid
    assert res1.schedule.length == res1.opt_length


def test_oracle_between_bounds():
    for g in (complete_graph(4), path_graph(4), star_graph(4), cycle_graph(5)):
        for tc, tm in [(1, 1), (2, 1), (1, 2)]:
            p = NetworkParams(tc, tm)
            res = brute_opt(g, p)
            assert lower_bounds(g, p)[2] <= res.opt_length <= trivial_upper_bound(g, p)


def test_oracle_guards():
    with pytest.raises(SearchInfeasibleError):
        brute_opt(complete_graph(6), P11)
    with pytest.raises(SearchInfeasibleError):
        brute_opt(complete_graph(3), NetworkParams(4, 1))
    with pytest.raises(SearchInfeasibleError):
        brute_opt(complete_graph(3), P11, limit=100)
    with pytest.raises(SearchInfeasibleError):
        brute_opt(Graph(3, [(0, 1)]), P11)
    # force=True lifts the envelope
    assert brute_opt(complete_graph(3), P11, limit=100, force=True).opt_length == 3


def test_oracle_schedules_are_pinned():
    # The benchmark's oracle shapes at their cost pairs, and three seeded
    # 5-node samples.  The hash is of the schedules the search returned
    # before it built its children in place; any change to the search order
    # or to what the table cuts shows here.
    insts = [
        (g, NetworkParams(tc, tm))
        for g in (path_graph(6), grid_graph(2, 3), complete_graph(5), cycle_graph(5))
        for tc, tm in [(1, 1), (2, 1), (1, 2)]
    ] + [
        (gnp_connected(5, 0.5, seed), NetworkParams(tc, tm))
        for seed in (1, 2, 3)
        for tc, tm in [(1, 1), (2, 1)]
    ]
    h = hashlib.sha256()
    for g, p in insts:
        h.update(format_schedule(brute_opt(g, p, force=True).schedule).encode())
    assert h.hexdigest() == (
        "11989d8543b5354e37d1cc13e432f7a7234e828cf753c14dc7b2b643aba56cab"
    )


class _Table(dict):
    """A dict that can be referenced weakly."""


def test_search_and_its_table_are_freed_on_return(monkeypatch):
    # With the cyclic collector off, only reference counting frees anything.
    # A reference cycle through the search would keep it and its whole
    # table alive until the collector next ran.
    refs = []

    class Tracked(brute._Search):
        def __init__(self, g, p):
            super().__init__(g, p)
            self.need = _Table()
            refs.append((weakref.ref(self), weakref.ref(self.need)))

    monkeypatch.setattr(brute, "_Search", Tracked)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert brute_opt(grid_graph(2, 3), NetworkParams(1, 2), force=True).opt_length == 6
        assert len(refs) == 1
        search, table = refs[0]
        assert search() is None and table() is None
    finally:
        if was_enabled:
            gc.enable()


def test_refuted_states_are_refuted_in_every_mirrored_form(monkeypatch):
    # A state refuted at some slack cannot finish from any image of it under
    # an automorphism either, so each image's entry is at least as large.
    searches = []

    class Kept(brute._Search):
        def __init__(self, g, p):
            super().__init__(g, p)
            searches.append(self)

    monkeypatch.setattr(brute, "_Search", Kept)
    for g, n_aut in ((grid_graph(2, 3), 4), (path_graph(6), 2)):
        h = nx.Graph(list(g.edges))
        auts = list(GraphMatcher(h, h).isomorphisms_iter())
        assert len(auts) == n_aut
        for tc, tm in [(1, 1), (2, 1), (1, 2)]:
            brute_opt(g, NetworkParams(tc, tm), force=True)
            search = searches.pop()
            refuted = 0
            for key, need in search.need.items():
                total = sum(count + len(incoming) for count, _, incoming in key)
                if need == search._lower_bound(key, total):
                    continue  # never refuted
                refuted += 1
                for aut in auts:
                    image = [None] * g.n
                    for v, rec in enumerate(key):
                        image[aut[v]] = rec
                    assert search.need.get(search._canon(tuple(image)), 0) >= need
            assert refuted


def test_tree_bound_refutes_the_start_state_of_k5():
    # Five lone tokens need r_star(5) = 6 rounds at (1, 2), where merge depth
    # (3) and gathering (1 hop, then a merge: 3) allow 3, so horizon 5 is
    # refuted at the root, with the start state the only entry.
    p = NetworkParams(1, 2)
    search = brute._Search(complete_graph(5), p)
    start = ((1, 0, ()),) * 5
    assert search._lower_bound(start, 5) == r_star(5, p) == 6
    assert search.run(5) is None
    assert search.need == {start: 6}


def test_n_star_table_searches_without_the_tree_bound(monkeypatch):
    # The table verifies the tree recurrence, so its searches must not
    # assume it.
    tree_bounds = []

    class Recorded(brute._Search):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tree_bounds.append(self.tree)

    monkeypatch.setattr(brute, "_Search", Recorded)
    assert n_star_table(4, P11) == [(0, 1), (1, 1), (2, 2), (3, 3), (4, 5)]
    assert len(tree_bounds) == 5
    assert not any(map(any, tree_bounds))


def test_no_schedule_within_limit():
    with pytest.raises(NoScheduleWithinLimitError):
        brute_opt(path_graph(3), P11, limit=2, force=True)


def test_single_node():
    res = brute_opt(Graph(1, []), P11)
    assert res.opt_length == 0 and res.max_singleton_distance == 0


def test_solvable_within():
    assert solvable_within(complete_graph(3), P11, 3)
    assert not solvable_within(complete_graph(3), P11, 2)
    assert solvable_within(Graph(1, []), P11, 0)


def test_n_star_tables():
    assert n_star_table(4, P11) == [(0, 1), (1, 1), (2, 2), (3, 3), (4, 5)]
    assert n_star_table(5, NetworkParams(2, 1)) == [
        (0, 1), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3),
    ]
    # Below t_c + t_m only the single-node network is solvable.
    for r, n in n_star_table(2, NetworkParams(1, 2)):
        if r < 3:
            assert n == 1


def test_n_star_matches_tree_sizes():
    for tc, tm in [(1, 1), (2, 1), (1, 2)]:
        p = NetworkParams(tc, tm)
        for r, n in n_star_table(4 if (tc, tm) == (1, 1) else 5, p):
            assert n == tree_size(r, p)


def test_n_star_truncates_rather_than_guessing():
    # Confirming N*(3) = 3 would need refuting K_4, beyond max_n = 3, so the
    # table stops after the last entry it can actually certify.
    rows = n_star_table(4, P11, max_n=3)
    assert rows == [(0, 1), (1, 1), (2, 2)]


def test_max_singleton_distance():
    res = brute_opt(path_graph(3), P11)
    assert res.max_singleton_distance == 1
    res2 = brute_opt(path_graph(4), P11)
    assert res2.max_singleton_distance >= 1
    assert max_singleton_distance(path_graph(3), P11, res.schedule) == 1


def test_extract_paths_two_nodes():
    g = complete_graph(2)
    res = brute_opt(g, P11)
    ps = extract_opt_paths(g, P11, res.schedule, {0, 1})
    assert set(ps.paths) == {(0, 1), (1, 0)}
    assert ps.con == 2
    assert ps.con * min(P11.t_c, P11.t_m) <= 2 * res.opt_length


def test_extract_paths_path3_through_middle():
    g = path_graph(3)
    res = brute_opt(g, P11)
    ps = extract_opt_paths(g, P11, res.schedule, {0, 2})
    assert set(ps.paths) == {(0, 1, 2), (2, 1, 0)}


def test_extract_paths_drops_one_when_odd():
    g = path_graph(3)
    res = brute_opt(g, P11)
    ps = extract_opt_paths(g, P11, res.schedule, {0, 1, 2})
    assert len(ps.paths) == 2  # highest id dropped, the pair (0, 1) remains
    for path in ps.paths:
        assert path[0] in {0, 1} and path[-1] in {0, 1}
        assert path[0] != path[-1]


def test_extract_paths_on_grid_is_pinned():
    g, p = grid_graph(2, 3), NetworkParams(1, 2)
    res = brute_opt(g, p, force=True)
    assert res.opt_length == 6
    assert extract_opt_paths(g, p, res.schedule, range(6)).paths == (
        (0, 1, 2), (1, 0, 3), (2, 1, 0), (3, 0, 1), (4, 1, 2, 5), (5, 2, 1, 4),
    )


def test_extract_paths_endpoint_properties():
    for g, p in [
        (complete_graph(4), P11),
        (star_graph(4), NetworkParams(2, 1)),
        (cycle_graph(5), P11),
        (path_graph(4), NetworkParams(1, 2)),
    ]:
        res = brute_opt(g, p)
        W = list(range(g.n))
        ps = extract_opt_paths(g, p, res.schedule, W)
        weven = W if len(W) % 2 == 0 else W[:-1]
        assert len(ps.paths) == len(weven)
        assert sorted(path[0] for path in ps.paths) == weven
        assert sorted(path[-1] for path in ps.paths) == weven
        for path in ps.paths:
            assert path[0] != path[-1]
        assert ps.con * min(p.t_c, p.t_m) <= 2 * res.opt_length


def test_extract_paths_rejects_invalid_schedule():
    g = complete_graph(2)
    from tokensched.core import Schedule

    with pytest.raises(ValueError):
        extract_opt_paths(g, P11, Schedule(1), {0, 1})
