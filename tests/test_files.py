import gc

import pytest

from tokensched.core import Action, MalformedInputError, Schedule
from tokensched.files import (
    MAX_NODES,
    format_graph,
    format_schedule,
    parse_graph,
    parse_schedule,
)
from tokensched.generators import gnp_connected, grid_graph


def test_graph_round_trip():
    g = gnp_connected(9, 0.4, seed=3)
    assert parse_graph(format_graph(g)) == g
    assert parse_graph(format_graph(grid_graph(2, 3))) == grid_graph(2, 3)


def test_graph_comments_and_errors():
    g = parse_graph("# a comment\n3 2\n0 1\n\n# mid comment\n1 2\n")
    assert g.n == 3 and len(g.edges) == 2
    with pytest.raises(MalformedInputError):
        parse_graph("3 2\n0 1\n")  # edge count mismatch
    with pytest.raises(MalformedInputError):
        parse_graph("3 1\n1 0\n")  # u < v required
    with pytest.raises(MalformedInputError):
        parse_graph("3 1\n0 3\n")
    with pytest.raises(MalformedInputError):
        parse_graph("")


def test_graph_node_cap():
    assert MAX_NODES >= 60000  # the benchmark's largest hosts
    for n in (MAX_NODES + 1, 10**9, 10**30):
        with pytest.raises(MalformedInputError, match="exceeds the limit"):
            parse_graph(f"{n} 0\n")


def test_bare_header_shares_one_empty_adjacency():
    # A header at the cap and no edges: every node's adjacency is the same
    # empty frozenset, not a million separate ones.
    g = parse_graph(f"{MAX_NODES} 0\n")
    assert g.n == MAX_NODES and g.m == 0
    assert len({id(a) for a in g.adj}) == 1 and not g.adj[0]
    # Nodes with neighbours still get their own sets.
    h = parse_graph("4 1\n0 1\n")
    assert h.adj[0] == {1} and h.adj[1] == {0} and h.adj[2] is h.adj[3]


def test_schedule_round_trip():
    s = Schedule(5, (
        Action(1, 2, "SEND", 0),
        Action(1, 3, "SEND", 0, token=3),
        Action(2, 0, "COMPUTE"),
    ))
    assert parse_schedule(format_schedule(s)) == s
    # Formatting is canonical: parsing then re-formatting is a fixed point.
    text = format_schedule(s)
    assert format_schedule(parse_schedule(text)) == text


def test_schedule_header_and_field_errors():
    with pytest.raises(MalformedInputError):
        parse_schedule("TCSCHED 2\nlength 1\n")
    with pytest.raises(MalformedInputError):
        parse_schedule("TCSCHED 1\nrounds 1\n")
    with pytest.raises(MalformedInputError):
        parse_schedule("TCSCHED 1\nlength 2\n1 0 SEND 1 extra_field\n")
    with pytest.raises(MalformedInputError):
        parse_schedule("TCSCHED 1\nlength 2\n1 0 COMPUTE 3\n")
    with pytest.raises(MalformedInputError):
        parse_schedule("TCSCHED 1\nlength 2\n1 0 NAP\n")
    with pytest.raises(MalformedInputError):
        parse_schedule("TCSCHED 1\nlength 2\n1 0 SEND 1 token=x\n")


def test_parse_schedule_restores_gc_when_it_raises():
    bad = "TCSCHED 1\nlength 2\n1 0 SEND 1\n1 0 NAP\n"
    assert gc.isenabled()
    with pytest.raises(MalformedInputError):
        parse_schedule(bad)
    assert gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(MalformedInputError):
            parse_schedule(bad)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_empty_schedule_file():
    s = parse_schedule("TCSCHED 1\nlength 0\n")
    assert s.length == 0 and s.actions == ()
