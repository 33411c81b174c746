"""Text formats for graphs and schedules.

Graph file: optional `#` comment lines, a header line `n m`, then m lines
`u v` with 0 <= u < v < n.  Cost parameters never live in the graph file.

Schedule file::

    TCSCHED 1
    length L
    r v SEND u [token=k]
    r v COMPUTE

Rounds are 1-indexed.  Unknown trailing fields are rejected.

Both parsers split the text into lines as `str.splitlines` does (so `\f`,
`\x1c` and `\u2028` end a line too) and number the lines the same way; a
line is blank when it holds only whitespace and a comment when its first
field starts with `#`.

A graph header may declare at most MAX_NODES nodes; a larger `n` is rejected
before any adjacency is allocated, so a tiny file cannot exhaust memory.
"""

from __future__ import annotations

from .core import COMPUTE, SEND, Action, Graph, MalformedInputError, Schedule, _nogc

MAX_NODES = 1_000_000


def parse_graph(text: str) -> Graph:
    # (line number, line) of each line that is neither blank nor a comment
    lines = [(lineno, raw) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (parts := raw.split()) and parts[0][0] != "#"]
    if not lines:
        raise MalformedInputError("graph file has no data lines")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise MalformedInputError(f"line {lineno}: expected 'n m', got {header.strip()!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise MalformedInputError(f"line {lineno}: non-integer header {header.strip()!r}") from exc
    if n > MAX_NODES:
        raise MalformedInputError(f"line {lineno}: {n} nodes exceeds the limit of {MAX_NODES}")
    if len(lines) - 1 != m:
        raise MalformedInputError(f"header declares {m} edges, file has {len(lines) - 1}")
    edges = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise MalformedInputError(f"line {lineno}: expected 'u v', got {line.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise MalformedInputError(f"line {lineno}: non-integer edge {line.strip()!r}") from exc
        if not (0 <= u < v < n):
            raise MalformedInputError(f"line {lineno}: edge must satisfy 0 <= u < v < n")
        edges.append((u, v))
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(out) + "\n"


@_nogc
def parse_schedule(text: str) -> Schedule:
    numbered = enumerate(text.splitlines(), start=1)
    head = []  # (line number, line, fields) of the first two data lines
    for lineno, raw in numbered:
        parts = raw.split()
        if parts and parts[0][0] != "#":
            head.append((lineno, raw, parts))
            if len(head) == 2:
                break
    else:
        raise MalformedInputError("schedule file needs a TCSCHED header and a length line")
    lineno, raw, parts = head[0]
    if parts != ["TCSCHED", "1"]:
        raise MalformedInputError(f"line {lineno}: expected 'TCSCHED 1', got {raw.strip()!r}")
    lineno, raw, parts = head[1]
    if len(parts) != 2 or parts[0] != "length":
        raise MalformedInputError(f"line {lineno}: expected 'length L', got {raw.strip()!r}")
    try:
        length = int(parts[1])
    except ValueError as exc:
        raise MalformedInputError(f"line {lineno}: non-integer length") from exc
    actions = []
    new = tuple.__new__  # the trusted Action constructor: the fields are checked here
    for lineno, raw in numbered:  # the same pass goes on past the header
        parts = raw.split()  # split() and strip() agree on what whitespace is
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) < 3:
            raise MalformedInputError(f"line {lineno}: incomplete action {raw.strip()!r}")
        try:
            r, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise MalformedInputError(f"line {lineno}: non-integer round or node") from exc
        kind = parts[2]
        if kind == COMPUTE:
            if len(parts) != 3:
                raise MalformedInputError(f"line {lineno}: trailing fields after COMPUTE")
            actions.append(new(Action, (r, v, COMPUTE, None, None)))
        elif kind == SEND:
            if len(parts) not in (4, 5):
                raise MalformedInputError(f"line {lineno}: SEND takes a target and at most token=k")
            try:
                target = int(parts[3])
            except ValueError as exc:
                raise MalformedInputError(f"line {lineno}: non-integer send target") from exc
            token = None
            if len(parts) == 5:
                if not parts[4].startswith("token="):
                    raise MalformedInputError(f"line {lineno}: unknown field {parts[4]!r}")
                try:
                    token = int(parts[4][len("token="):])
                except ValueError as exc:
                    raise MalformedInputError(f"line {lineno}: non-integer token id") from exc
            actions.append(new(Action, (r, v, SEND, target, token)))
        else:
            raise MalformedInputError(f"line {lineno}: unknown action kind {kind!r}")
    return Schedule(length, tuple(actions))


def format_schedule(s: Schedule) -> str:
    out = ["TCSCHED 1", f"length {s.length}"]
    for r, v, kind, target, token in s.actions:
        if kind == COMPUTE:
            out.append(f"{r} {v} COMPUTE")
        elif token is None:
            out.append(f"{r} {v} SEND {target}")
        else:
            out.append(f"{r} {v} SEND {target} token={token}")
    return "\n".join(out) + "\n"


def read_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def read_schedule(path) -> Schedule:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_schedule(fh.read())
