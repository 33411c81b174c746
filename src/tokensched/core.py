"""Token network model: graphs, cost parameters, schedules, and a round-accurate
simulator/validator.

Rounds are 1-indexed.  An action started at round r occupies rounds
[r, r + duration - 1] and its effect (token delivered, tokens merged) becomes
visible at the start of round r + duration.  A token that is in flight still
counts at the sender until delivery.
"""

from __future__ import annotations

import gc
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, wraps
from heapq import heappop, heappush
from itertools import chain

import numpy as np

SEND = "SEND"
COMPUTE = "COMPUTE"


class MalformedInputError(ValueError):
    """Structurally bad input: unknown node ids, non-neighbor send targets,
    unparseable files.  Distinct from a well-formed but invalid schedule."""


class DisconnectedGraphError(ValueError):
    """The operation needs a connected graph; aggregation is unsolvable otherwise."""


class InvalidScheduleError(ValueError):
    """A well-formed schedule broke a validity rule during replay."""

    def __init__(self, round_: int, node: int, rule: str, message: str):
        super().__init__(f"round {round_}, node {node}, rule ({rule}): {message}")
        self.round = round_
        self.node = node
        self.rule = rule
        self.message = message


def _nogc(fn):
    """fn run with the cyclic garbage collector paused, then set back as the
    caller had it, so a nested call changes nothing.  For bulk builders of
    acyclic data (ints, strings, tuples, lists, frozensets): reference
    counting frees all of it, and collections would only sweep the growing
    heap again and again.  The setting is process-wide, threads included."""

    @wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


_NO_NEIGHBORS = frozenset()


class Graph:
    """Undirected simple graph on nodes 0..n-1, stored as adjacency sets only.

    Duplicate edges (in either orientation) collapse into one.  The canonical
    edge set is built on first use of `edges`; the edge count `m` comes from
    the node degrees.  `generators.complete_graph` gives K_n as its counts
    alone, `adj` built on first read; a complete graph answers `has_edge`,
    `max_degree`, `bfs_distances`, `is_connected`, the replay's neighbour
    check and its eccentricities without `adj`.  `radius()` and `diameter()`
    read one cached pair, found by bounding every eccentricity from a few
    searches: whichever is called first, neither searches again.  `_dist0`,
    the search from vertex 0, and `_dfs` are cached the same way.
    """

    @_nogc
    def __init__(self, n: int, edges):
        if n < 1:
            raise MalformedInputError(f"node count must be >= 1, got {n}")
        adj = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise MalformedInputError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedInputError(f"edge ({u}, {v}) out of range for n={n}")
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        # Neighbours gather in lists (duplicates collapse in the frozenset);
        # isolated nodes share one empty frozenset, so a bare header costs one
        # empty list per node while parsing.
        self.adj = tuple(frozenset(a) if a else _NO_NEIGHBORS for a in adj)
        self.m = sum(map(len, self.adj)) // 2

    @cached_property
    def adj(self) -> tuple:
        """K_n's neighbour sets, each everyone but the vertex itself, built
        on first read.  Only complete_graph leaves `adj` unset; __init__
        sets it on every other graph."""
        everyone = frozenset(range(self.n))
        return tuple(everyone - {v} for v in range(self.n))

    @cached_property
    def edges(self) -> frozenset:
        """Every edge once, as (u, v) with u < v."""
        return frozenset((u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if u < v)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def has_edge(self, u: int, v: int) -> bool:
        """False for any id outside 0..n-1."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return u != v if self.is_complete() else v in self.adj[u]

    def max_degree(self) -> int:
        if self.is_complete():
            return self.n - 1
        return max((len(a) for a in self.adj), default=0)

    def is_complete(self) -> bool:
        """m == n(n-1)/2, which only K_n meets, as edges are deduplicated."""
        return self.m == self.n * (self.n - 1) // 2

    def bfs_distances(self, source: int) -> list:
        """Hop distances from source; -1 for unreachable nodes."""
        if self.is_complete():
            dist = [1] * self.n
            dist[source] = 0
            return dist
        adj = self.adj
        dist = [-1] * self.n
        dist[source] = 0
        frontier, level = [source], 0
        while frontier:  # one level at a time: every node found is at level + 1
            level += 1
            found = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = level
                        found.append(w)
            frontier = found
        return dist

    @cached_property
    def _dist0(self) -> list:
        """is_connected's search; its largest entry is ecc(0) <= diameter."""
        return self.bfs_distances(0)

    def is_connected(self) -> bool:
        return min(self._dist0) >= 0

    @cached_property
    def _extremes(self) -> tuple:
        """(radius, diameter) by the bounding method of Takes & Kosters
        (Algorithms 2013).  A search from w, of eccentricity e, bounds every
        v at distance d: max(d, e - d) <= ecc(v) <= e + d.  Searches
        alternate between the vertex of least lower bound and the one of
        greatest upper bound, taking the other when the one whose turn it is
        could not change the radius or the diameter found so far, and stop
        when neither could.  On K_n, (1, 1) ((0, 0) for n = 1) without a
        search."""
        n = self.n
        if self.is_complete():
            return (min(n - 1, 1),) * 2
        lo = np.zeros(n, dtype=np.int64)
        hi = np.full(n, n - 1, dtype=np.int64)
        # Vertex 0 is the first least-lower-bound pick, as all bounds tie.
        radius, diameter, w, low_turn = n, 0, 0, False
        while True:
            dist = self.bfs_distances(w) if w else self._dist0
            if min(dist) < 0:
                raise DisconnectedGraphError(
                    "graph is disconnected; aggregation to one token is unsolvable"
                )
            e, dist = max(dist), np.array(dist)
            radius, diameter = min(radius, e), max(diameter, e)
            np.maximum(lo, np.maximum(dist, e - dist), out=lo)
            np.minimum(hi, e + dist, out=hi)
            # A searched vertex has lo = hi = its eccentricity, so it is never
            # a pick that could change the radius or the diameter.
            low, high = int(lo.argmin()), int(hi.argmax())
            low_open, high_open = lo[low] < radius, hi[high] > diameter
            if not (low_open or high_open):
                return radius, diameter
            w = low if low_open and (low_turn or not high_open) else high
            low_turn = not low_turn

    def radius(self) -> int:
        """The least eccentricity; raises DisconnectedGraphError if disconnected."""
        return self._extremes[0]

    def diameter(self) -> int:
        """The largest eccentricity; raises DisconnectedGraphError if disconnected."""
        return self._extremes[1]

    @cached_property
    def _dfs(self) -> tuple:
        """(order, parent, cut, indptr, nbrs) for approx.choose_L's rounds.

        One low-link depth-first search from vertex 0, neighbours ascending:
        order is its preorder, parent[v] is v's DFS parent (-1 at the root),
        and cut[v] says whether G - parent[v] cuts v's subtree off, that is
        low[v] >= disc[parent[v]].  nbrs[indptr[v]:indptr[v + 1]] are v's
        neighbours ascending, in int64 arrays.  Only the root's component is
        searched."""
        sorted_adj = [sorted(a) for a in self.adj]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum([len(a) for a in sorted_adj], out=indptr[1:])
        nbrs = np.fromiter(chain.from_iterable(sorted_adj), np.int64, int(indptr[-1]))
        disc = [-1] * self.n
        low = [0] * self.n
        parent = [-1] * self.n
        cut = [False] * self.n
        disc[0], order = 0, [0]
        stack = [(0, iter(sorted_adj[0]))]
        while stack:
            u, ahead = stack[-1]
            for v in ahead:
                d = disc[v]
                if d < 0:
                    parent[v] = u
                    disc[v] = low[v] = len(stack)  # its depth: only ancestors are compared
                    order.append(v)
                    stack.append((v, iter(sorted_adj[v])))
                    break
                if d < low[u]:  # not min(): this loop is the hot path
                    low[u] = d
            else:
                stack.pop()
                p = parent[u]
                if p >= 0:
                    if low[u] < low[p]:
                        low[p] = low[u]
                    cut[u] = low[u] >= disc[p]
        return order, parent, cut, indptr, nbrs


@dataclass(frozen=True)
class NetworkParams:
    """Round costs: t_c per merge of two tokens, t_m per send to a neighbor."""

    t_c: int
    t_m: int

    def __post_init__(self):
        if self.t_c < 1 or self.t_m < 1:
            raise MalformedInputError(f"t_c and t_m must be >= 1, got ({self.t_c}, {self.t_m})")

    def duration(self, kind: str) -> int:
        return self.t_m if kind == SEND else self.t_c


class Action(namedtuple("Action", "start_round node kind target token",
                        defaults=(None, None))):
    """One timed action of one node, as an immutable tuple record.

    SEND occupies [start_round, start_round + t_m - 1]; COMPUTE occupies
    [start_round, start_round + t_c - 1].  `token`, when set, names the sent
    token by the lowest singleton id it contains; an unnamed SEND transmits
    the node's oldest-acquired token.  Every public way to build one (the
    constructor, `_make`, `_replace`, unpickling) checks the kind and its
    fields.  The one trusted constructor, `tuple.__new__(Action, fields)`,
    skips those checks; only bulk builders that have checked the fields
    themselves use it: `files.parse_schedule`, and `core._asap`, whose
    callers (the tree and gadget schedulers, and `approx.solve_tc`) queue
    only SEND with a target and COMPUTE.  Like any tuple, an Action equals
    the plain tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, start_round: int, node: int, kind: str,
                target: int | None = None, token: int | None = None):
        if kind == SEND:
            if target is None:
                raise MalformedInputError("SEND needs a target")
        elif kind == COMPUTE:
            if target is not None or token is not None:
                raise MalformedInputError("COMPUTE takes no target or token")
        else:
            raise MalformedInputError(f"unknown action kind {kind!r}")
        return tuple.__new__(cls, (start_round, node, kind, target, token))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def sort_key(self):
        """(start_round, node, COMPUTE before SEND, target, token), with -1
        for a field that is unset."""
        r, v, kind, target, token = self  # unpacking beats five field reads
        if kind == COMPUTE:
            return (r, v, 0, -1, -1)
        return (r, v, 1, target, -1 if token is None else token)


@dataclass(frozen=True)
class Schedule:
    """A timed list of actions plus a declared length in rounds.

    Actions are kept canonically sorted, in `Action.sort_key` order, so equal
    schedules compare equal and serialize identically.  The action tuples
    sort natively in that order ("COMPUTE" < "SEND"), with no key tuple per
    action, except where two SENDs differ only by an unset and a set token:
    comparing those raises TypeError, and only then does the sort fall back
    to `Action.sort_key`.
    """

    length: int
    actions: tuple = ()

    def __post_init__(self):
        if self.length < 0:
            raise MalformedInputError(f"length must be >= 0, got {self.length}")
        try:
            actions = sorted(self.actions)
        except TypeError:
            actions = sorted(self.actions, key=Action.sort_key)
        object.__setattr__(self, "actions", tuple(actions))

    def last_occupied_round(self, p: NetworkParams) -> int:
        return max(
            (a.start_round + p.duration(a.kind) - 1 for a in self.actions), default=0
        )


@dataclass(frozen=True)
class TokenState:
    """Per-node token holdings at one round boundary.

    Each token is a frozenset of the singleton origins it contains; tokens at
    a node are listed oldest-acquired first.  A token in flight is listed at
    its sender.
    """

    holdings: tuple  # tuple over nodes of tuple[frozenset, ...]

    def tokens_at(self, v: int) -> tuple:
        return self.holdings[v]

    def counts(self) -> tuple:
        return tuple(len(h) for h in self.holdings)

    def total_tokens(self) -> int:
        return sum(len(h) for h in self.holdings)

    def singleton_cover(self) -> list:
        """All singleton ids contained anywhere, with multiplicity."""
        out = []
        for h in self.holdings:
            for tok in h:
                out.extend(tok)
        return sorted(out)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violation: tuple | None  # (round, node, rule id, message)
    final_token_count: int


def initial_state(g: Graph) -> TokenState:
    return TokenState(tuple((frozenset([v]),) for v in range(g.n)))


_MERGE, _DELIVER = 0, 1  # merges land before deliveries within a round


class _Replay:
    """The one replay engine, shared by the validator and the simulator:
    constructing it replays the schedule to its end.

    It walks the actions in canonical order, by round, node, then target.
    Each started action's effect waits under the round it lands in, in one
    list of merge completions and one of deliveries per landing round, with
    a heap of the distinct landing rounds.  Nothing started at round r lands
    at r, so the per-round work is done once, as the walk enters a round:
    the effects due by then land, one landing round at a time, and the two
    lists its actions' effects go to, at r + t_c and r + t_m, are fetched.
    Within a landing round, merge completions land first (by node), then
    deliveries (by sender, target), so a delivered token is always newer in
    acquisition order than a merge finishing that round.  A replay costs
    O(A + R log R) for A actions over R distinct rounds, whatever the
    declared length.

    Tokens are integer handles carrying their lowest singleton id; contents
    are built only when a caller reads them.  Rule violations raise
    InvalidScheduleError; malformed actions raise MalformedInputError.  An
    action outside [1, length] raises its window violation when the walk
    reaches it, after every earlier action.
    """

    @_nogc
    def __init__(self, g: Graph, p: NetworkParams, s: Schedule,
                 start: TokenState | None = None, record_events: bool = False,
                 record_states: bool = False):
        if start is None:
            self.sets = [None] * g.n  # handle -> contents, None until first read
            self.min_id = list(range(g.n))  # handle -> lowest singleton id
            self.holdings = [[v] for v in range(g.n)]
        else:
            if len(start.holdings) != g.n:
                raise MalformedInputError("token state does not match graph size")
            self.sets = [t for h in start.holdings for t in h]
            self.min_id = [min(t) for t in self.sets]
            handles = iter(range(len(self.sets)))
            self.holdings = [[next(handles) for _ in h] for h in start.holdings]
        self.parts = [None] * len(self.sets)  # handle -> merged operand handles
        self.events = [] if record_events else None  # landed effects, in order
        # (landing round, TokenState after that round's effects), from the start
        self.states = [(1, self.state())] if record_states else None
        self._run(g, p, s)

    def contents(self, tok: int) -> frozenset:
        """The singleton ids in a token, built (and kept) on first read."""
        sets, parts = self.sets, self.parts
        stack = [tok]
        while stack:
            top = stack[-1]
            if sets[top] is None:
                if parts[top] is None:  # a singleton of the default start
                    sets[top] = frozenset([self.min_id[top]])
                else:
                    a, b = parts[top]
                    if sets[a] is None or sets[b] is None:
                        stack.extend(x for x in (a, b) if sets[x] is None)
                        continue
                    sets[top] = sets[a] | sets[b]
            stack.pop()
        return sets[tok]

    def state(self) -> TokenState:
        return TokenState(tuple(tuple(map(self.contents, h)) for h in self.holdings))

    def _run(self, g: Graph, p: NetworkParams, s: Schedule):
        length, n, t_m, t_c = s.length, g.n, p.t_m, p.t_c
        end = length + 1
        # K_n's neighbour sets are never built: there every in-range other
        # node is a neighbour.
        adj = None if g.is_complete() else g.adj
        holdings, sets, parts, min_id = self.holdings, self.sets, self.parts, self.min_id
        events, states = self.events, self.states
        free_from = [1] * n  # the first round each node is free
        due = {}  # landing round -> ([(node, a, b)], [(sender, target, token)])
        pending = []  # heap of the rounds in `due`
        stop = (end, None, None, None, None)  # lands what is left after the last action
        round_ = None
        for a in (*s.actions, stop):
            now, v, kind, target, token = a
            if now != round_:
                round_ = now
                while pending and pending[0] <= now:
                    r = heappop(pending)
                    ms, ds = due.pop(r)
                    for u, x, y in ms:
                        held = holdings[u]
                        held.remove(x)
                        held.remove(y)
                        held.append(len(min_id))
                        min_id.append(min_id[x] if min_id[x] < min_id[y] else min_id[y])
                        parts.append((x, y))
                        sets.append(None)
                        if events is not None:
                            events.append((r, _MERGE, u, u, x, y))
                    for u, w, x in ds:
                        holdings[u].remove(x)
                        holdings[w].append(x)
                        if events is not None:
                            events.append((r, _DELIVER, u, w, x, -1))
                    if states is not None and (ms or ds):
                        states.append((r, self.state()))
                # the lists this round's merges and sends land in
                for r in (now + t_c, now + t_m):
                    if r not in due:
                        due[r] = ([], [])
                        heappush(pending, r)
                merging, sending = due[now + t_c][0], due[now + t_m][1]
            if a is stop:
                return
            if not (0 <= v < n):
                raise MalformedInputError(f"action names unknown node {v}")
            if kind == SEND:
                if not (0 <= target < n) or target == v:
                    raise MalformedInputError(
                        f"round {now}: node {v} sends to invalid node {target}"
                    )
                if adj is not None and target not in adj[v]:
                    raise MalformedInputError(
                        f"round {now}: nodes {v} and {target} are not neighbors"
                    )
                done = now + t_m  # the round its effect lands
            else:
                done = now + t_c
            if now < 1 or done > end:
                raise InvalidScheduleError(
                    now, v, "d", f"{kind} occupies [{now}, {done - 1}] outside [1, {length}]",
                )
            if free_from[v] > now:
                raise InvalidScheduleError(
                    now, v, "c", f"node busy until round {free_from[v] - 1}"
                )
            held = holdings[v]
            if kind == SEND:
                if not held:
                    raise InvalidScheduleError(now, v, "a", "send with no token in hand")
                if token is None:
                    tok = held[0]  # oldest-acquired
                else:
                    tok = next((t for t in held if min_id[t] == token), None)
                    if tok is None:
                        raise InvalidScheduleError(now, v, "a", f"named token {token} not held")
                sending.append((v, target, tok))
            else:
                if len(held) < 2:
                    raise InvalidScheduleError(
                        now, v, "b", f"compute with {len(held)} token(s) in hand"
                    )
                merging.append((v, held[0], held[1]))  # two oldest
            free_from[v] = done


def simulate(g: Graph, p: NetworkParams, s: Schedule,
             start: TokenState | None = None) -> list:
    """Token-placement trace of a schedule as its state changes:
    [(r, TokenState after round r)] for r = 0, the state before round 1, and
    then for every round after which the holdings changed, in increasing r.
    The state after round r shows the effects landing at the start of round
    r + 1, and it is that of the last entry at or before r; trace[-1][1] is
    the final state.

    Costs one TokenState, O(n) each, per round with a change, on top of the
    replay's O(A + R log R) for A actions over R distinct rounds, whatever
    the declared length.  Raises InvalidScheduleError when the schedule
    breaks a structural rule (bad window, busy overlap, send without a
    token, compute without two).  Full aggregation is not required; callers
    inspect the final state.
    """
    states = _Replay(g, p, s, start, record_states=True).states
    return [(landed - 1, state) for landed, state in states]


def replay_events(g: Graph, p: NetworkParams, s: Schedule,
                  start: TokenState | None = None) -> tuple:
    """(final TokenState, event list) for a structurally sound schedule.

    Events are ("deliver", round, sender, target, token) and
    ("merge", round, node, operand_a, operand_b), where `round` is the round
    at whose start the effect lands, in application order.
    """
    eng = _Replay(g, p, s, start, record_events=True)
    tok = eng.contents
    events = [
        ("merge", r, node, tok(a), tok(b)) if kind == _MERGE
        else ("deliver", r, node, target, tok(a))
        for r, kind, node, target, a, b in eng.events
    ]
    return eng.state(), events


def validate_schedule(g: Graph, p: NetworkParams, s: Schedule,
                      start: TokenState | None = None) -> ValidationReport:
    """Check a schedule against the validity rules, in round order.

    (a) a sender holds the token it sends (a target that is not a graph
        neighbor is malformed input, not merely an invalid schedule),
    (b) a computing node holds at least two tokens,
    (c) one action at a time per node,
    (d) every occupancy window fits in [1, length],
    (e) exactly one token remains after the last round.

    Costs O(A) in the number of actions A, not in the declared length.
    """
    try:
        eng = _Replay(g, p, s, start)
    except InvalidScheduleError as e:
        return ValidationReport(False, (e.round, e.node, e.rule, e.message), -1)
    final = sum(map(len, eng.holdings))
    if final != 1:
        return ValidationReport(
            False,
            (s.length, -1, "e", f"{final} tokens remain after round {s.length}"),
            final,
        )
    return ValidationReport(True, None, 1)


def _asap(p: NetworkParams, queues: list, held: list) -> tuple:
    """The greedy timing engine: (actions, last occupied round).

    queues[v] lists node v's actions in order as (kind, target) pairs, each
    (SEND, node) or (COMPUTE, None), as the actions are built unchecked with
    the trusted Action constructor; held[v] is v's starting token count.
    Each action starts at the first round at which its node is free and
    holds a token for a SEND, two for a COMPUTE; tokens landing at a round
    count before that round's starts.  Its callers (the tree and gadget
    schedulers, approx.solve_tc) only build the queues.

    Timing the per-node orders of a valid schedule, from its starting token
    counts, gives a valid schedule that is no longer, with unnamed SENDs (an
    unnamed SEND moves the oldest token).  A node's k-th action waits only
    on its own earlier actions and on arrivals, and by induction every
    arrival comes no later than in the schedule timed, so every action
    starts no later than there.

    Rounds are visited in buckets: one list of landings and one of starts
    per round, and a heap of the distinct rounds only, so the cost is
    O(A + D log D) for A actions over D distinct rounds, however far apart
    the rounds are.  Raises ValueError naming the lowest node whose next
    action can never start.
    """
    cost = {SEND: (1, p.t_m), COMPUTE: (2, p.t_c)}  # kind -> (tokens needed, rounds)
    held = list(held)
    nxt = [0] * len(queues)  # index of each node's next action
    waiting = [False] * len(queues)  # the next action waits for a landing
    due = {1: ([], [v for v, q in enumerate(queues) if q])}  # round -> (lands, starts)
    rounds = [1]
    actions = []
    new = tuple.__new__
    while rounds:
        r = heappop(rounds)
        lands, starts = due.pop(r)
        for v in lands:
            held[v] += 1
            if waiting[v]:
                waiting[v] = False
                starts.append(v)
        for v in starts:
            q, i = queues[v], nxt[v]
            kind, target = q[i]
            need, dur = cost[kind]
            if held[v] < need:
                waiting[v] = True
                continue
            held[v] -= 1  # a send's token, or a merge's second operand
            nxt[v] = i + 1
            actions.append(new(Action, (r, v, kind, target, None)))
            # Every action ends in a visited round, so the last one popped
            # is one past the last occupied round.
            done = r + dur
            bucket = due.get(done)
            if bucket is None:
                bucket = due[done] = ([], [])
                heappush(rounds, done)
            if kind == SEND:
                bucket[0].append(target)
            if i + 1 < len(q):
                bucket[1].append(v)
    for v, q in enumerate(queues):
        if nxt[v] < len(q):
            raise ValueError(f"node {v} never holds the tokens for its next {q[nxt[v]][0]}")
    return actions, r - 1


def ceil_log2(n: int) -> int:
    """Smallest k with 2**k >= n, for n >= 1."""
    return (n - 1).bit_length()


def _iceil(x: float) -> int:
    """ceil(x), with x at most 1e-9 past an integer taken as that integer, so
    float error in x does not add one."""
    return math.ceil(x - 1e-9)


def lower_bounds(g: Graph, p: NetworkParams) -> tuple:
    """(compute_lb, radius_lb, combined_lb) in rounds.

    compute_lb: merging n tokens into one needs ceil(log2 n) serialized
    merges.  radius_lb: some token must travel at least radius(g) hops.
    Raises DisconnectedGraphError on a disconnected graph.
    """
    if g.n == 1:
        return (0, 0, 0)
    compute_lb = p.t_c * ceil_log2(g.n)
    radius_lb = p.t_m * g.radius()
    return (compute_lb, radius_lb, max(compute_lb, radius_lb))


def trivial_upper_bound(g: Graph, p: NetworkParams) -> int:
    """Rounds used by the naive schedule that repeatedly routes one token to
    another and merges: (n - 1) * (t_c + diameter * t_m).  Raises
    DisconnectedGraphError on a disconnected graph."""
    if g.n == 1:
        return 0
    return (g.n - 1) * (p.t_c + g.diameter() * p.t_m)
