"""Independent reference for the search of `tokensched.brute`.

`ReferenceSearch` is the search `brute._Search` replaced: per round it
generates every action set with `_action_sets`, builds each child as a fresh
tuple with `_advance`, and calls `_dfs` on it, which looks the child up in the
table only then.  `_Search` builds the children in place and looks each up
before recursing; it must return what this class returns at every horizon.
"""

from tokensched.brute import _twin_classes
from tokensched.core import COMPUTE, SEND, Action, Graph, NetworkParams, ceil_log2


class ReferenceSearch:
    """Depth-first search for a schedule finishing within a horizon, with one
    table of proven bounds shared by every horizon `run` is called with.

    Action sets per round are enumerated in lexicographic order of their
    sorted action lists (the empty set first), so the first schedule found is
    the lexicographically least one of its length.

    Whether a state can still finish depends on the round only through its
    slack, the rounds left counting the current one, and only monotonically:
    the sole use of the slack is the filter `duration <= slack` on the
    actions that may start, so a larger slack admits every schedule a smaller
    one does.  `need` maps each canonical state to a proven lower bound on
    the slack it needs: its `_lower_bound` when first seen, raised to
    slack + 1 when its subtree fails.  A state whose `need` exceeds its slack
    is pruned, so no failed subtree is explored twice at the same or a
    smaller slack, within one horizon or across horizons.  Only failing
    subtrees are cut, so the DFS order and the schedule found are those of a
    search without the table.
    """

    def __init__(self, g: Graph, p: NetworkParams):
        self.g = g
        self.p = p
        self.adj_sorted = [sorted(g.adj[v]) for v in range(g.n)]
        self.dist = [g.bfs_distances(v) for v in range(g.n)]
        self.twins = _twin_classes(g)
        self.need = {}  # canonical state -> proven minimum slack
        self.gather = {}  # token locations -> hops to gather them at one node
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
            for pos, rec in zip(cls, sorted(state[i] for i in cls)):
                canon[pos] = rec
        return tuple(canon)

    def _lower_bound(self, state, total: int) -> int:
        """Rounds a state holding `total` >= 2 tokens still needs, at least."""
        locs = tuple(v for v, rec in enumerate(state) if rec[0] or rec[2])
        gather = self.gather.get(locs)
        if gather is None:
            gather = self.gather[locs] = min(
                max(self.dist[u][v0] for u in locs) for v0 in range(self.g.n)
            )
        return max(
            self.p.t_c * ceil_log2(total),
            gather * self.p.t_m + self.p.t_c,
            max(rec[1] for rec in state),
        )

    def _candidates(self, slack: int, state) -> list:
        cands = []
        t_c, t_m = self.p.t_c, self.p.t_m
        for v, (count, busy, _) in enumerate(state):
            if busy:
                continue
            if count >= 2 and t_c <= slack:
                cands.append((COMPUTE, v, -1))
            if count >= 1 and t_m <= slack:
                cands.extend((SEND, v, u) for u in self.adj_sorted[v])
        return cands

    @staticmethod
    def _action_sets(cands):
        """All per-node-compatible subsets, in lexicographic list order."""
        stack = [(0, frozenset(), ())]
        while stack:
            i, used, chosen = stack.pop()
            yield chosen
            ext = []
            for j in range(i, len(cands)):
                a = cands[j]
                if a[1] in used:
                    continue
                ext.append((j + 1, used | {a[1]}, chosen + (a,)))
            stack.extend(reversed(ext))

    def _aged(self, state) -> list:
        """The records one round later if no action starts: deliveries due
        now land, and busy counters and arrival times tick down."""
        out = []
        for count, busy, incoming in state:
            landed = incoming.count(1)
            ticked = tuple(a - 1 for a in incoming[landed:])
            out.append((count + landed, max(0, busy - 1), ticked))
        return out

    def _advance(self, aged: list, acts):
        """The next state after `acts` start, and how many of them are merges."""
        t_c, t_m = self.p.t_c, self.p.t_m
        nxt = list(aged)
        merges = 0
        for kind, v, u in acts:
            count, _, incoming = nxt[v]
            if kind == COMPUTE:
                merges += 1
                nxt[v] = (count - 1, t_c - 1, incoming)
            else:
                nxt[v] = (count - 1, t_m - 1, incoming)
                count, busy, incoming = nxt[u]
                if t_m == 1:
                    nxt[u] = (count + 1, busy, incoming)
                else:
                    # Every other arrival time is below t_m - 1, so
                    # appending keeps the tuple sorted.
                    nxt[u] = (count, busy, incoming + (t_m - 1,))
        return tuple(nxt), merges

    def _dfs(self, slack: int, state, total: int):
        if total == 1:
            return []
        key = self._canon(state)
        need = self.need.get(key)
        if need is None:
            # Interned records keep the table's keys small.
            intern = self.recs.setdefault
            key = tuple(intern(rec, rec) for rec in key)
            need = self.need[key] = self._lower_bound(state, total)
        if need > slack:
            return None
        aged = self._aged(state)
        for acts in self._action_sets(self._candidates(slack, state)):
            child, merges = self._advance(aged, acts)
            sub = self._dfs(slack - 1, child, total - merges)
            if sub is not None:
                return [acts] + sub
        self.need[key] = slack + 1
        return None

    def run(self, horizon: int):
        """Actions of the lexicographically least schedule finishing within
        `horizon` rounds, or None if there is none."""
        init = tuple((1, 0, ()) for _ in range(self.g.n))
        per_round = self._dfs(horizon, init, self.g.n)
        if per_round is None:
            return None
        actions = []
        for r, acts in enumerate(per_round, start=1):
            for kind, v, u in acts:
                if kind == COMPUTE:
                    actions.append(Action(r, v, COMPUTE))
                else:
                    actions.append(Action(r, v, SEND, u))
        return tuple(actions)
