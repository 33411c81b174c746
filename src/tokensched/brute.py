"""Exhaustive minimum-length schedule oracle for tiny instances.

Feasibility of finishing by a deadline depends only on where tokens are, not
on what they contain (any token may be sent, any two merged), so the search
runs over content-free states: per-node token counts, busy horizons, and
in-flight deliveries.  Token contents are recovered afterwards by replaying
the winning schedule.

States are canonicalized by sorting the records of interchangeable nodes
(twin vertices: same neighborhood, so any permutation among them is a graph
automorphism).  The graph's other automorphisms act when a state is refuted:
its bound is written under its image by one automorphism per coset of the
twin permutations, so no mirrored form of a refuted state is proved again.
On a complete graph or a star every automorphism permutes twins, and on a
graph with no automorphism but the identity the table holds exact states.

`brute_opt` deepens the horizon from the lower bound with one search, whose
table maps each canonical state to a proven minimum of the rounds it still
needs, starting from bounds that include the K_n tree bound: h nodes holding
tokens need r_star(h) rounds on any graph (see `_Search._lower_bound`).  A
state refuted at one horizon is never re-proved at the next, and a state
seen at an earlier round within one horizon is cut at the later ones.

Most children are cut by that table at once, so a child costs little until it
is expanded: one recursive enumeration builds each round's action sets in
place, in one list of records that each action rewrites in one or two entries
and restores on the way back, and looks each child up in the table before
recursing into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .complete import r_star
from .core import (
    COMPUTE,
    SEND,
    Action,
    Graph,
    NetworkParams,
    Schedule,
    ceil_log2,
    lower_bounds,
    replay_events,
    trivial_upper_bound,
    validate_schedule,
)
from .paths import DirectedPathSet

DEFAULT_MAX_NODES = 5
DEFAULT_MAX_COST = 3


class SearchInfeasibleError(ValueError):
    """Refusal: the graph is disconnected, or the instance is beyond the
    oracle's default envelope, which passing `lift` overrides.  `reason` is
    the message without that advice."""

    def __init__(self, reason: str, lift: str | None = None):
        super().__init__(reason if lift is None else f"{reason}; pass {lift} to override")
        self.reason = reason
        self.lift = lift


class NoScheduleWithinLimitError(ValueError):
    """The search space is exhausted: no valid schedule within the limit."""


@dataclass(frozen=True)
class OracleResult:
    opt_length: int
    schedule: Schedule
    max_singleton_distance: int  # furthest hop count any singleton travels


def _twin_classes(g: Graph) -> list:
    """Groups of mutually interchangeable nodes (classes of size >= 2 only)."""
    by_closed = {}
    by_open = {}
    for v in range(g.n):
        by_closed.setdefault(frozenset(g.adj[v]) | {v}, []).append(v)
    grouped = set()
    classes = []
    for members in by_closed.values():
        if len(members) >= 2:
            classes.append(tuple(members))
            grouped.update(members)
    for v in range(g.n):
        if v not in grouped:
            by_open.setdefault(g.adj[v], []).append(v)
    for members in by_open.values():
        if len(members) >= 2:
            classes.append(tuple(members))
    return classes


def _automorphisms(g: Graph, twins: list) -> list:
    """One automorphism of `g` per coset of the twin permutations, as tuples
    that map each vertex to its image, leaving out the identity's coset.
    `twins` is `_twin_classes(g)`.

    Partial maps grow over the vertices in id order, each vertex going to an
    unused vertex of its degree whose adjacency to the vertices already
    mapped matches.  Automorphisms map twin classes onto twin classes, so
    each coset holds exactly one map that sends the vertices mapped into a
    class to its members in ascending order.  Within a class only the lowest
    unused member is therefore tried, and K_n or a star yields the identity
    alone, not n! or (n - 1)! maps.
    """
    adj = g.adj
    deg = [len(a) for a in adj]
    class_of = {v: cls for cls in twins for v in cls}
    maps = [()]
    for v in range(g.n):
        maps = [
            m + (u,) for m in maps for u in range(g.n)
            if u not in m and deg[u] == deg[v]
            and u == min(w for w in class_of.get(u, (u,)) if w not in m)
            and all((w in adj[v]) == (m[w] in adj[u]) for w in range(v))
        ]
    return [m for m in maps if m != tuple(range(g.n))]


class _Search:
    """Depth-first search for a schedule finishing within a horizon, with one
    table of proven bounds shared by every horizon `run` is called with.

    Action sets per round are enumerated in lexicographic order of their
    sorted action lists (the empty set first), so the first schedule found is
    the lexicographically least one of its length.  `_dfs` enumerates them
    by recursion over the round's candidates, building each child's records
    in place, and checks each child against the table before expanding it,
    so a child that is cut costs one call, one tuple and one lookup.

    Whether a state can still finish depends on the round only through its
    slack, the rounds left counting the current one, and only monotonically:
    the sole use of the slack is the filter `duration <= slack` on the
    actions that may start, so a larger slack admits every schedule a smaller
    one does.  `need` maps each canonical state to a proven lower bound on
    the slack it needs: its `_lower_bound` when first seen, raised to
    slack + 1 when its subtree fails.  A state whose `need` exceeds its slack
    is pruned, so no failed subtree is explored twice at the same or a
    smaller slack, within one horizon or across horizons.

    `need` is the same on every image of a state under an automorphism of
    the graph: one maps a schedule that finishes from S onto one that
    finishes from its image of S, in the same rounds.  So a refuted state's
    bound is written under each of its images as well, one per coset of the
    twin permutations, which `_canon` already folds into one key.  The table
    still cuts only subtrees that fail, so the DFS order and the schedule
    found are those of a search without the table.
    """

    def __init__(self, g: Graph, p: NetworkParams, tree_bound: bool = True):
        self.g = g
        self.p = p
        # Rounds that h holders need at least, by the K_n tree bound.
        self.tree = [0] + [r_star(h, p) if tree_bound else 0 for h in range(1, g.n + 1)]
        self.merge = [(COMPUTE, v, -1) for v in range(g.n)]
        self.sends = [tuple((SEND, v, u) for u in sorted(g.adj[v])) for v in range(g.n)]
        self.dist = [g.bfs_distances(v) for v in range(g.n)]
        self.twins = _twin_classes(g)
        # Getters of a key's images, one per coset of the twin permutations
        # but the identity's; `_canon` folds each coset into one key.  A
        # getter moves records by its map's inverse, and the inverses run
        # over the same cosets.
        self.images = [itemgetter(*aut) for aut in _automorphisms(g, self.twins)]
        self.need = {}  # canonical state -> proven minimum slack
        self.by_place = {}  # token locations -> rounds they need by place alone
        self.recs = {}  # interned node records, shared by the table's keys

    # A state at the start of a round is a tuple over nodes of
    # (token count, rounds still busy, sorted tuple of rounds-to-arrival of
    # incoming in-flight tokens).  A merge decrements its node's count when it
    # starts; the node is busy until the merge lands, so nothing reads the
    # count early.

    def _canon(self, state):
        if not self.twins:
            return state
        canon = list(state)
        for cls in self.twins:
            for pos, rec in zip(cls, sorted(map(state.__getitem__, cls))):
                canon[pos] = rec
        return tuple(canon)

    def _lower_bound(self, state, total: int) -> int:
        """Rounds a state holding `total` >= 2 tokens still needs, at least.

        Besides merge depth, busy time and the hops to gather the tokens,
        it is the tree bound `r_star(h)` for the h holders, the nodes that
        hold a token or have one in flight to them, on any graph.  Landing
        every in-flight token now, freeing every node and keeping one token
        per holder only drops constraints and tokens (a dropped token's
        sends are skipped, as is a merge that loses an operand), so finishing
        gets no later.  From h lone tokens, a token that exists after t
        rounds holds at most `tree_size(t)` originals, by induction on t: a
        token formed at z merges z's own token with arrivals there, which fit
        the same slots in arrival order, so its last merge, ending at round
        e, joins a token that existed after e - t_c rounds with an arrival
        that existed after e - t_c - t_m, and none fits below t_c + t_m.
        Finishing thus needs `tree_size(slack) >= h`.
        """
        locs = tuple(v for v, rec in enumerate(state) if rec[0] or rec[2])
        by_place = self.by_place.get(locs)
        if by_place is None:
            gather = min(max(self.dist[u][v0] for u in locs) for v0 in range(self.g.n))
            by_place = self.by_place[locs] = max(
                gather * self.p.t_m + self.p.t_c, self.tree[len(locs)]
            )
        return max(
            self.p.t_c * ceil_log2(total),
            by_place,
            max(rec[1] for rec in state),
        )

    def _candidates(self, slack: int, state) -> list:
        """Per node that may act from `state`, in ascending order, the
        actions it may start: its merge first, then its sends."""
        merge_fits = self.p.t_c <= slack
        send_fits = self.p.t_m <= slack
        cands = []
        for v, (count, busy, _) in enumerate(state):
            if busy or not count:
                continue
            own = self.sends[v] if send_fits else ()
            if count >= 2 and merge_fits:
                own = (self.merge[v],) + own
            if own:
                cands.append(own)
        return cands

    def _aged(self, state) -> list:
        """The records one round later if no action starts: deliveries due
        now land, and busy counters and arrival times tick down."""
        out = []
        for count, busy, incoming in state:
            landed = incoming.count(1)
            ticked = tuple(a - 1 for a in incoming[landed:])
            out.append((count + landed, max(0, busy - 1), ticked))
        return out

    def _dfs(self, slack: int, cands, recs: list, i: int, acts: list, total: int):
        """Actions per round of the least schedule that starts `acts`, and
        then finishes within `slack` more rounds, or None.

        `recs` holds the records and `total` the token count of the child
        that starting `acts` leads to, and `cands` the round's actions per
        node.  The child is looked up in the table first and expanded only
        if its `need` allows: a call with its own round's candidates and no
        actions yet.  Then each extension of `acts` by one action of a node
        in `cands[i:]` is tried, in lexicographic order; it rewrites the
        records of its node and target in `recs`, and puts them back once
        its subtree is done.
        """
        if total == 1:
            return [tuple(acts)]
        child = tuple(recs)
        key = self._canon(child)
        need = self.need.get(key)
        if need is None:
            # Interned records keep the table's keys small.
            intern = self.recs.setdefault
            key = tuple(intern(rec, rec) for rec in key)
            need = self.need[key] = self._lower_bound(child, total)
        if need <= slack:
            sub = self._dfs(slack - 1, self._candidates(slack, child),
                            self._aged(child), 0, [], total)
            if sub is not None:
                return [tuple(acts)] + sub
            self.need[key] = slack + 1
            for image in self.images:
                self.need[self._canon(image(key))] = slack + 1
        for k in range(i, len(cands)):
            for act in cands[k]:
                _, v, u = act
                acts.append(act)
                at_v = count, _, incoming = recs[v]
                if u < 0:
                    recs[v] = (count - 1, self.p.t_c - 1, incoming)
                    found = self._dfs(slack, cands, recs, k + 1, acts, total - 1)
                else:
                    recs[v] = (count - 1, self.p.t_m - 1, incoming)
                    at_u = count, busy, incoming = recs[u]
                    if self.p.t_m == 1:
                        recs[u] = (count + 1, busy, incoming)
                    else:
                        # Every other arrival time is below t_m - 1, so
                        # appending keeps the tuple sorted.
                        recs[u] = (count, busy, incoming + (self.p.t_m - 1,))
                    found = self._dfs(slack, cands, recs, k + 1, acts, total)
                    recs[u] = at_u
                recs[v] = at_v
                acts.pop()
                if found is not None:
                    return found
        return None

    def run(self, horizon: int):
        """Actions of the lexicographically least schedule finishing within
        `horizon` rounds, or None if there is none."""
        init = [(1, 0, ())] * self.g.n
        # The start state is the child of an empty round 0 with no
        # candidates, so it gets the table check every child gets.
        per_round = self._dfs(horizon, (), init, 0, [], self.g.n)
        if per_round is None:
            return None
        actions = []
        for r, acts in enumerate(per_round[1:], start=1):
            for kind, v, u in acts:
                if kind == COMPUTE:
                    actions.append(Action(r, v, COMPUTE))
                else:
                    actions.append(Action(r, v, SEND, u))
        return tuple(actions)


def max_singleton_distance(g: Graph, p: NetworkParams, s: Schedule) -> int:
    """Furthest hop count any singleton travels: the number of deliveries of
    tokens containing it."""
    _, events = replay_events(g, p, s)
    hops = [0] * g.n
    for ev in events:
        if ev[0] == "deliver":
            for w in ev[4]:
                hops[w] += 1
    return max(hops, default=0)


def brute_opt(g: Graph, p: NetworkParams, limit: int | None = None,
              force: bool = False) -> OracleResult:
    """Minimum-length valid schedule by exhaustive search.

    Searches lengths from the combined lower bound upward with one `_Search`,
    whose table of proven bounds carries every refuted state from one length
    to the next.  Among minimum-length schedules the lexicographically least
    action list is returned.  Refuses instances beyond a small envelope
    (n <= 5, costs <= 3, limit <= the trivial upper bound) unless `force`.
    """
    if not g.is_connected():
        raise SearchInfeasibleError("graph is disconnected; aggregation unsolvable")
    if g.n == 1:
        return OracleResult(0, Schedule(0), 0)
    tub = trivial_upper_bound(g, p)
    if limit is None:
        limit = tub
    if not force:
        if g.n > DEFAULT_MAX_NODES:
            raise SearchInfeasibleError(
                f"n={g.n} exceeds the default search envelope (n <= {DEFAULT_MAX_NODES})",
                "force=True",
            )
        if max(p.t_c, p.t_m) > DEFAULT_MAX_COST:
            raise SearchInfeasibleError(
                f"costs {p} exceed the default search envelope (<= {DEFAULT_MAX_COST})",
                "force=True",
            )
        if limit > tub:
            raise SearchInfeasibleError(
                f"limit {limit} exceeds the trivial upper bound {tub}", "force=True"
            )
    search = _Search(g, p)
    for L in range(lower_bounds(g, p)[2], limit + 1):
        actions = search.run(L)
        if actions is not None:
            sched = Schedule(L, actions)
            report = validate_schedule(g, p, sched)
            if not report.valid:
                raise RuntimeError(f"oracle produced an invalid schedule: {report}")
            return OracleResult(L, sched, max_singleton_distance(g, p, sched))
    raise NoScheduleWithinLimitError(
        f"no valid schedule of length <= {limit} exists"
    )


def solvable_within(g: Graph, p: NetworkParams, rounds: int) -> bool:
    """Whether any valid schedule of length <= `rounds` exists."""
    if g.n == 1:
        return True
    if not g.is_connected():
        return False
    if lower_bounds(g, p)[2] > rounds:
        return False
    return _Search(g, p).run(rounds) is not None


def n_star_table(R_max: int, p: NetworkParams, max_n: int = 6) -> list:
    """Rows (R, largest n with a length-<=R schedule on K_n), for R <= R_max.

    Verified against the aggregation-tree size at every R; the table is
    truncated with a warning row once confirming an entry would need a search
    beyond max_n nodes.
    """
    from .complete import tree_size
    from .generators import complete_graph

    # One search per candidate K_{n+1}, run at increasing R, so each keeps
    # the states it has refuted.  The searches run without the tree bound:
    # the table verifies the tree recurrence, so it must not assume it.
    searches = {k: _Search(complete_graph(k), p, tree_bound=False)
                for k in range(2, max_n + 1)}
    rows = []
    n = 1
    for R in range(R_max + 1):
        while n + 1 <= max_n and searches[n + 1].run(R) is not None:
            n += 1
        if n + 1 > max_n:
            # Cannot refute n+1; the entry would be a guess, so stop here.
            break
        expected = tree_size(R, p)
        if n != expected:
            raise RuntimeError(
                f"oracle disagrees with the tree recurrence at R={R}: "
                f"N*={n} vs |T(R)|={expected}"
            )
        rows.append((R, n))
    return rows


def extract_opt_paths(g: Graph, p: NetworkParams, s: Schedule, W) -> DirectedPathSet:
    """Directed source-to-sink paths traced by the tokens of W in a schedule.

    Replays the schedule tracking, for each w in W, the vertices that receive
    tokens containing w's singleton.  A token is active when it contains an
    odd number of W-singletons; the first merge of two active tokens pairs the
    two singletons that are still pending and fixes the meeting vertex.  The
    path for w runs from w to the meeting vertex and back down its partner's
    trace.  Vertex congestion of the result is at most
    2 * length / min(t_c, t_m).
    """
    W = sorted(set(W))
    if any(not 0 <= w < g.n for w in W):
        raise ValueError("W contains unknown nodes")
    if len(W) % 2 == 1:
        W = W[:-1]  # drop the highest id to make the pairing total
    report = validate_schedule(g, p, s)
    if not report.valid:
        raise ValueError(f"schedule is invalid: {report.violation}")
    if not W:
        return DirectedPathSet(())
    _, events = replay_events(g, p, s)
    # carrier maps each active token to its one pending singleton.  This
    # holds by induction over merges: merging two active tokens pairs their
    # carriers and leaves an inactive token, merging an active token with an
    # inactive one passes the carrier on, and two inactive tokens stay
    # inactive.  So a delivered token extends at most its carrier's trace.
    carrier = {frozenset([w]): w for w in W}
    trace = {w: [w] for w in W}
    partner = {}
    for ev in events:
        if ev[0] == "deliver":
            _, _, _, target, tok = ev
            if tok in carrier:
                trace[carrier[tok]].append(target)
        else:
            _, _, _, a, b = ev
            wa, wb = carrier.pop(a, None), carrier.pop(b, None)
            if wa is not None and wb is not None:
                partner[wa], partner[wb] = wb, wa
            elif wa is not None or wb is not None:
                carrier[a | b] = wb if wa is None else wa
    pending = [w for w in W if w not in partner]
    if pending:
        raise RuntimeError(f"singletons {pending} never paired")
    out = []
    for w in W:
        u = partner[w]
        if trace[w][-1] != trace[u][-1]:
            raise RuntimeError("paired traces do not meet at one vertex")
        out.append(tuple(trace[w] + trace[u][-2::-1]))
    ps = DirectedPathSet(tuple(out))
    if ps.con * min(p.t_c, p.t_m) > 2 * s.length:
        raise RuntimeError(
            f"extracted congestion {ps.con} exceeds 2*length/min(t_c,t_m)"
        )
    return ps
