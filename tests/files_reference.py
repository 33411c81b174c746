"""Independent reference for the parsers of `tokensched.files`.

`parse_graph` and `parse_schedule` here are the parsers `files` replaced,
kept as they were: they read the text through `io.StringIO` and strip each
line, and `parse_schedule` builds every action through the checked `Action`
constructor.  On every text the parsers in `files` must return an equal
result, or raise `MalformedInputError` with the same message.
"""

import io

from tokensched.core import COMPUTE, SEND, Action, Graph, MalformedInputError, Schedule, _nogc
from tokensched.files import MAX_NODES


def _data_lines(text: str):
    """(line number, stripped line) for each line that is neither blank nor a
    comment, read one line at a time and numbered as str.splitlines would."""
    # a chunk is one line by universal newlines; splitlines also breaks at \f, \v, ...
    lines = (line for chunk in io.StringIO(text, newline=None) for line in chunk.splitlines())
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_graph(text: str) -> Graph:
    lines = list(_data_lines(text))
    if not lines:
        raise MalformedInputError("graph file has no data lines")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise MalformedInputError(f"line {lineno}: expected 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise MalformedInputError(f"line {lineno}: non-integer header {header!r}") from exc
    if n > MAX_NODES:
        raise MalformedInputError(f"line {lineno}: {n} nodes exceeds the limit of {MAX_NODES}")
    if len(lines) - 1 != m:
        raise MalformedInputError(f"header declares {m} edges, file has {len(lines) - 1}")
    edges = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise MalformedInputError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise MalformedInputError(f"line {lineno}: non-integer edge {line!r}") from exc
        if not (0 <= u < v < n):
            raise MalformedInputError(f"line {lineno}: edge must satisfy 0 <= u < v < n")
        edges.append((u, v))
    return Graph(n, edges)


@_nogc
def parse_schedule(text: str) -> Schedule:
    lines = _data_lines(text)  # read as the actions are parsed, not listed first
    head = next(lines, None), next(lines, None)
    if head[1] is None:
        raise MalformedInputError("schedule file needs a TCSCHED header and a length line")
    lineno, magic = head[0]
    if magic.split() != ["TCSCHED", "1"]:
        raise MalformedInputError(f"line {lineno}: expected 'TCSCHED 1', got {magic!r}")
    lineno, lenline = head[1]
    parts = lenline.split()
    if len(parts) != 2 or parts[0] != "length":
        raise MalformedInputError(f"line {lineno}: expected 'length L', got {lenline!r}")
    try:
        length = int(parts[1])
    except ValueError as exc:
        raise MalformedInputError(f"line {lineno}: non-integer length") from exc
    actions = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) < 3:
            raise MalformedInputError(f"line {lineno}: incomplete action {line!r}")
        try:
            r, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise MalformedInputError(f"line {lineno}: non-integer round or node") from exc
        kind = parts[2]
        if kind == COMPUTE:
            if len(parts) != 3:
                raise MalformedInputError(f"line {lineno}: trailing fields after COMPUTE")
            actions.append(Action(r, v, COMPUTE))
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
            actions.append(Action(r, v, SEND, target, token))
        else:
            raise MalformedInputError(f"line {lineno}: unknown action kind {kind!r}")
    return Schedule(length, tuple(actions))
