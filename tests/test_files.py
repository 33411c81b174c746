import gc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import files_reference
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


# Line ends: str.splitlines breaks at each of these ("\r\n" once); fields
# part at whitespace that ends no line ("\x1f" and "\u3000" included).
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\f", "\v", "\x1c", "\x85", "\u2028"])
_SPACE = st.sampled_from([" ", "  ", "\t", "\x1f", "\u3000"])
_NUMBER = st.integers(0, 4).map(str) | st.sampled_from(
    ["+5", "1_0", "\u0663", "\uff15", "-1", "x", "1.5", "_1"]
)
_WORD = st.sampled_from(
    ["SEND", "COMPUTE", "NAP", "send", "TCSCHED", "length", "token=", "token=x", "token=1",
     "token=+2", "token=\u0661", "tok=1", "#", "#x"]
)


@st.composite
def _line(draw, fields):
    """`fields` joined by random whitespace, with or without some before and
    after."""
    edge = _SPACE | st.just("")
    line = draw(edge)
    for i, field in enumerate(draw(fields)):
        line += (draw(_SPACE) if i else "") + field
    return line + draw(edge)


_FILLER = st.sampled_from(["", "   ", "\t", "# note", "  #SEND 1", "#"])
_ACTION_LINES = _line(st.one_of(
    st.tuples(_NUMBER, _NUMBER, st.just("COMPUTE")),
    st.tuples(_NUMBER, _NUMBER, st.just("SEND"), _NUMBER),
    st.tuples(_NUMBER, _NUMBER, st.just("SEND"), _NUMBER,
              st.sampled_from(["token=1", "token=", "token=x", "token=+3", "tok=1"])),
    st.lists(_NUMBER | _WORD, max_size=6),
)) | _FILLER
_SCHEDULE_HEADS = st.sampled_from([
    ["TCSCHED 1", "length 5"], ["TCSCHED 1", "length +1_0"], [" TCSCHED\t1 ", "length  3 "],
    ["# head", "TCSCHED 1", "", "length 4"],
]) | st.sampled_from([
    ["TCSCHED 2", "length 5"], ["TCSCHED 1"], [], ["TCSCHED 1", "rounds 3"],
    ["TCSCHED 1", "length x"], ["TCSCHED 1 2", "length 1"],
])


def _text(draw, lines) -> str:
    """The lines, each ended by a random line break, the last maybe by none."""
    ends = [draw(_BREAKS) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def schedule_texts(draw):
    """Schedule files from valid and broken header and action lines, with
    blank and comment lines among them and random line ends."""
    return _text(draw, draw(_SCHEDULE_HEADS) + draw(st.lists(_ACTION_LINES, max_size=8)))


@st.composite
def graph_texts(draw):
    """Graph files: a header, then edge lines, valid or broken, with blank
    and comment lines among them and random line ends."""
    edges = draw(st.lists(_line(st.tuples(_NUMBER, _NUMBER) | st.lists(_NUMBER, max_size=3)),
                          max_size=6))
    n = draw(st.integers(0, 6).map(str) | _NUMBER)
    m = draw(st.just(str(len(edges))) | _NUMBER)
    lines = [draw(_line(st.just((n, m))))]
    for edge in edges:
        lines += draw(st.lists(_FILLER, max_size=1)) + [edge]
    return _text(draw, lines)


def _outcome(parse, text):
    try:
        return parse(text)
    except MalformedInputError as e:
        return ("raised", str(e))


@settings(max_examples=500, deadline=None)
@given(schedule_texts())
@example("TCSCHED 1\r\nlength 3\f1 0 SEND\x1f1\u2028\x1c2 1 COMPUTE extra\n")
@example("TCSCHED 1\nlength 3\r\r\n\u3000#c\n+1 1_0 SEND \u0663 token=\n")
def test_schedule_parser_matches_the_reference(text):
    got = _outcome(parse_schedule, text)
    assert got == _outcome(files_reference.parse_schedule, text)
    if isinstance(got, Schedule):
        assert all(type(a) is Action and Action(*a) == a for a in got.actions)


@settings(max_examples=300, deadline=None)
@given(graph_texts())
@example("# c\r\n3 2\f0 1\x1c\u2028 1\t2 \n")
def test_graph_parser_matches_the_reference(text):
    assert _outcome(parse_graph, text) == _outcome(files_reference.parse_graph, text)
