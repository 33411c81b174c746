import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokensched.core import SEND, Graph, NetworkParams, validate_schedule
from tokensched.brute import brute_opt
from tokensched.complete import (
    baseline_lengths,
    build_tree,
    greedy_schedule,
    opt_complete,
    prune_tree,
    r_star,
    tree_schedule,
    tree_size,
)
from tokensched.files import format_schedule
from tokensched.generators import complete_graph

from complete_reference import greedy_completion_round, stack_build_tree

P11 = NetworkParams(1, 1)
P21 = NetworkParams(2, 1)
P12 = NetworkParams(1, 2)

FIB_SIZES_11 = [1, 1, 2, 3, 5, 8, 13]
SIZES_21 = [1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12, 16, 21, 28, 37, 49, 65]


def unrolled_sizes(p, r_max):
    # Independent unrolling of the size recurrence, kept apart from tree_size.
    sizes = []
    for r in range(r_max + 1):
        if r < p.t_c + p.t_m:
            sizes.append(1)
        else:
            sizes.append(sizes[r - p.t_c] + sizes[r - p.t_c - p.t_m])
    return sizes


def test_size_sequences():
    assert [tree_size(r, P11) for r in range(7)] == FIB_SIZES_11
    assert [tree_size(r, P21) for r in range(17)] == SIZES_21
    assert tree_size(16, P21) == 65


def test_size_recurrence_grid_to_200():
    for tc, tm in [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 3), (3, 2)]:
        p = NetworkParams(tc, tm)
        ref = unrolled_sizes(p, 200)
        got = [tree_size(r, p) for r in range(201)]
        assert got == ref
        assert all(a <= b for a, b in zip(got, got[1:]))  # nondecreasing
        # A large budget needs no smaller one computed first.
        assert tree_size(5000, p) == unrolled_sizes(p, 5000)[-1]


def test_build_tree_matches_sizes_and_structure():
    for tc, tm in [(1, 1), (2, 1), (1, 2)]:
        p = NetworkParams(tc, tm)
        for R in range(0, 14):
            tree = build_tree(R, p)
            assert tree.size == tree_size(R, p)
            parent = tree.parent
            assert parent[0] == -1
            assert all(parent[u] < u for u in range(1, tree.size))
            if R >= tc + tm:
                # Root decomposition per the recurrence: the root's last
                # child's subtree is the joined tree for R - t_c - t_m.
                last = max(u for u in range(tree.size) if parent[u] == 0)
                in_sub = [False] * tree.size
                in_sub[last] = True
                for u in range(last + 1, tree.size):
                    in_sub[u] = in_sub[parent[u]]
                assert sum(in_sub) == tree_size(R - tc - tm, p)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 30))
def test_build_tree_matches_the_stack_builder(tc, tm, R):
    p = NetworkParams(tc, tm)
    tree = build_tree(R, p)
    assert tree.parent == stack_build_tree(R, p)
    assert tree.size == tree_size(R, p)


def test_tree_ids_are_pinned():
    # opt_complete's output depends on these ids: each expanded node's
    # children form one block, in join order.
    assert build_tree(6, P11).parent == (-1, 0, 0, 0, 0, 0, 3, 4, 4, 5, 5, 5, 11)
    assert prune_tree(build_tree(6, P11), 9).parent == (-1, 0, 0, 0, 0, 0, 3, 4, 4)
    assert build_tree(9, P21).parent == (-1, 0, 0, 0, 0, 3, 4, 4, 7)


def test_r_star_examples():
    assert r_star(1, P11) == 0
    assert r_star(7, P11) == 5
    assert r_star(65, P21) == 16
    assert r_star(16, P21) == 11


def test_two_node_tree_schedule():
    for tc, tm in [(1, 1), (2, 1), (1, 3)]:
        p = NetworkParams(tc, tm)
        R = tc + tm
        tree = build_tree(R, p)
        assert tree.size == 2
        s = greedy_schedule(tree, p)
        assert s.length == R
        acts = s.actions
        assert acts[0].kind == SEND and acts[0].start_round == 1
        assert acts[1].start_round == tm + 1
        assert validate_schedule(complete_graph(2), p, s).valid


def test_three_leaf_tree_schedule():
    tree = build_tree(3, P11)
    s = greedy_schedule(tree, P11)
    rounds = sorted((a.start_round, a.kind) for a in s.actions)
    assert rounds == [(1, SEND), (1, SEND), (2, "COMPUTE"), (3, "COMPUTE")]
    assert s.length == 3
    assert validate_schedule(complete_graph(3), P11, s).valid


def test_greedy_sweep_moderate():
    # Completion-time recurrence and materialized simulation must agree, the
    # schedule must validate at declared length R, and completion hits R
    # exactly whenever the tree actually grew at R.
    for tc, tm in [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3)]:
        p = NetworkParams(tc, tm)
        for R in range(0, 15):
            tree = build_tree(R, p)
            s = greedy_schedule(tree, p)
            assert s.length == R
            comp = greedy_completion_round(R, p)
            assert s.last_occupied_round(p) == comp
            assert comp <= R
            if R >= 1 and tree_size(R, p) > tree_size(R - 1, p):
                assert comp == R
            host = Graph(tree.size, tree.edges()) if tree.size > 1 else Graph(1, [])
            assert validate_schedule(host, p, s).valid


def test_prune_tree_counts_and_budget():
    tree = build_tree(6, P11)  # 13 nodes
    for n in (1, 4, 9, 13):
        pruned = prune_tree(tree, n)
        assert pruned.size == n
        assert pruned.R == 6
    # The deepest nodes go first, ties to the larger id.
    assert prune_tree(tree, 9).parent == (-1, 0, 0, 0, 0, 0, 3, 4, 4)
    assert prune_tree(build_tree(9, P21), 6).parent == (-1, 0, 0, 0, 0, 3)


def _timeline(actions):
    return sorted((a.start_round, a.node, a.kind, a.target) for a in actions)


# Node 3 is the root; parents 3 and 4 have larger ids than children 0, 1 and
# 2, and relay 4 starts without a token.
LABELLED_PARENT = [4, 4, 3, -1, 3, 2, 2]


def test_tree_schedule_on_labelled_tree_is_pinned():
    actions, last = tree_schedule(LABELLED_PARENT, [2, 3, 1, 2, 0, 1, 2], P21)
    assert _timeline(actions) == [
        (1, 0, "COMPUTE", None), (1, 1, "COMPUTE", None), (1, 3, "COMPUTE", None),
        (1, 5, "SEND", 2), (1, 6, "COMPUTE", None), (2, 2, "COMPUTE", None),
        (3, 0, "SEND", 4), (3, 1, "COMPUTE", None), (3, 6, "SEND", 2),
        (4, 2, "COMPUTE", None), (5, 1, "SEND", 4), (6, 2, "SEND", 3),
        (6, 4, "COMPUTE", None), (7, 3, "COMPUTE", None), (8, 4, "SEND", 3),
        (9, 3, "COMPUTE", None),
    ]
    assert last == 10


def test_tree_schedule_refuses_a_tokenless_leaf():
    # Leaf 5 holds nothing, so node 2 never gets the tokens for its second
    # merge; the lowest stuck node is named.
    with pytest.raises(ValueError, match="node 2"):
        tree_schedule(LABELLED_PARENT, [2, 3, 1, 2, 0, 0, 2], P21)


def test_opt_complete_2000_is_pinned():
    h = hashlib.sha256()
    for p in (P11, P21, P12, NetworkParams(3, 1)):
        h.update(format_schedule(opt_complete(2000, p)).encode())
    assert h.hexdigest() == (
        "1eb802999109950ef680b11c9bba762b7a5ea2a1ae023d43001f67481b9a2647"
    )


def test_opt_complete_examples_and_tree_property():
    for tc, tm in [(1, 1), (2, 1), (1, 2)]:
        p = NetworkParams(tc, tm)
        assert opt_complete(2, p).length == tc + tm
    s3 = opt_complete(3, P11)
    assert s3.length == 3 == brute_opt(complete_graph(3), P11).opt_length
    s7 = opt_complete(7, P11)
    assert s7.length == 5
    naive, pipelined, _, _ = baseline_lengths(7, P11)
    assert s7.length < pipelined  # strictly beats the pipelined binary tree
    assert validate_schedule(complete_graph(7), P11, s7).valid


def test_opt_complete_send_edges_form_a_tree():
    for n, p in [(9, P11), (12, P21), (10, P12)]:
        s = opt_complete(n, p)
        send_edges = {
            (min(a.node, a.target), max(a.node, a.target))
            for a in s.actions
            if a.kind == SEND
        }
        touched = {v for e in send_edges for v in e}
        assert len(send_edges) == n - 1
        assert touched == set(range(n))
        # n-1 edges touching all n nodes with no cycle <=> connected tree
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in send_edges:
            ru, rv = find(u), find(v)
            assert ru != rv  # acyclic
            parent[ru] = rv


def test_opt_complete_matches_r_star_broadly():
    for tc, tm in [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3)]:
        p = NetworkParams(tc, tm)
        for n in range(1, 61, 7):
            s = opt_complete(n, p)
            assert s.length == r_star(n, p)
            if n > 1:
                assert s.last_occupied_round(p) == s.length
            assert validate_schedule(complete_graph(n), p, s).valid


def test_baseline_lengths_examples():
    assert baseline_lengths(1, P11) == (0, 0, 0, 0)
    naive, pipelined, optimal, clb = baseline_lengths(16, P21)
    assert pipelined == 20 and optimal == 11
    naive, pipelined, optimal, clb = baseline_lengths(1024, P11)
    assert pipelined == 30 and clb == 10
