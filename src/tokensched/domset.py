"""Dominating-set machinery: the hub-and-dangler gadget, schedules built from
dominating sets, dominating sets recovered from short schedules, and the
reduction-based approximation loop.

The gadget attaches to a base graph a hub adjacent to everything, one special
dangler, and max_degree + t_m plain danglers.  Any aggregation schedule on the
gadget shorter than 3 * t_m (with unit compute cost) must funnel everything
through the hub, and the base vertices that send to the hub form a dominating
set of the base graph.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

from .core import (
    COMPUTE,
    SEND,
    Graph,
    NetworkParams,
    Schedule,
    _asap,
    _iceil,
    validate_schedule,
)


@dataclass(frozen=True)
class PsiGadget:
    """A base graph augmented with hub `hub`, special dangler `special`, and
    plain `danglers` (max_degree(base) + t_m of them), the hub adjacent to
    every other vertex."""

    base: Graph
    t_m: int
    graph: Graph
    hub: int
    special: int
    danglers: tuple

    @property
    def params(self) -> NetworkParams:
        return NetworkParams(1, self.t_m)


@dataclass(frozen=True)
class DominatingSet:
    """Vertex set κ plus a certificate mapping each vertex to the member
    dominating it (members map to themselves)."""

    members: frozenset
    certificate: dict

    def __len__(self):
        return len(self.members)


def make_dominating_set(g: Graph, members) -> DominatingSet:
    """Build (and thereby verify) a dominating set with its certificate;
    non-members are mapped to their lowest-id dominating neighbor."""
    members = frozenset(members)
    if not members and g.n > 0:
        raise ValueError("empty set dominates nothing")
    cert = {}
    for v in range(g.n):
        if v in members:
            cert[v] = v
            continue
        doms = sorted(members & g.adj[v])
        if not doms:
            raise ValueError(f"node {v} is not dominated by {sorted(members)}")
        cert[v] = doms[0]
    return DominatingSet(members, cert)


def is_dominating_set(g: Graph, members) -> bool:
    try:
        make_dominating_set(g, members)
        return True
    except ValueError:
        return False


def min_dominating_set(g: Graph) -> DominatingSet:
    """Exact minimum dominating set by subset enumeration (tiny graphs only)."""
    for k in range(1, g.n + 1):
        for cand in combinations(range(g.n), k):
            if is_dominating_set(g, cand):
                return make_dominating_set(g, cand)
    raise ValueError("no dominating set found (empty graph?)")


def disjoint_copies(g: Graph, k: int) -> Graph:
    """k vertex-disjoint copies of g; copy i occupies ids [i*n, (i+1)*n)."""
    if k < 1:
        raise ValueError(f"need at least one copy, got {k}")
    edges = []
    for i in range(k):
        off = i * g.n
        edges.extend((u + off, v + off) for u, v in g.edges)
    return Graph(g.n * k, edges)


def psi_transform(g: Graph, t_m: int) -> PsiGadget:
    """Attach the hub, the special dangler, and max_degree + t_m danglers.

    Node ids: base keeps 0..n-1, hub is n, special dangler n+1, plain
    danglers follow.  Total node count n + 2 + max_degree + t_m.
    """
    if t_m < 1:
        raise ValueError(f"t_m must be >= 1, got {t_m}")
    delta = g.max_degree()
    hub = g.n
    special = g.n + 1
    danglers = tuple(range(g.n + 2, g.n + 2 + delta + t_m))
    n = g.n + 2 + delta + t_m
    edges = list(g.edges) + [(hub, v) for v in range(n) if v != hub]
    return PsiGadget(g, t_m, Graph(n, edges), hub, special, danglers)


def schedule_from_dominating_set(gadget: PsiGadget, ds: DominatingSet) -> Schedule:
    """Aggregation schedule on the gadget built from a base dominating set,
    with unit compute cost.

    Round 1: danglers send to the hub, the hub sends its token to the special
    dangler, every dominated vertex sends to its dominator, and dominators
    with nothing to wait for send immediately.  Then each dominator merges
    its pile and the special dangler the hub's token, and each forwards the
    result to the hub, which merges everything it receives.  Every action
    starts as early as its node's token count allows (core._asap, the greedy
    rule of complete.tree_schedule).  For base max degree >= 2 the length is
    at most 2 * t_m + max_degree + |κ|.
    """
    g = gadget.base
    if ds.members - set(range(g.n)):
        raise ValueError("dominating set names nodes outside the base graph")
    make_dominating_set(g, ds.members)  # re-verify on the base
    hub, special = gadget.hub, gadget.special
    n = gadget.graph.n
    queues = [[] for _ in range(n)]
    for d in gadget.danglers:
        queues[d].append((SEND, hub))
    queues[hub].append((SEND, special))
    k = [1] * n  # the tokens each node ends up merging
    k[special] = 2  # its own and the hub's
    for v in range(g.n):
        m = ds.certificate[v]
        if m != v:
            queues[v].append((SEND, m))
            k[m] += 1
    # Each dominator merges its pile, the special dangler the hub's token;
    # each then sends to the hub, which merges everything it receives.
    for m in [*ds.members, special]:
        queues[m] += [(COMPUTE, None)] * (k[m] - 1) + [(SEND, hub)]
    queues[hub] += [(COMPUTE, None)] * (len(gadget.danglers) + len(ds.members))
    actions, last = _asap(gadget.params, queues, [1] * n)
    return Schedule(last, actions)


def _copies(delta: int, eps: float) -> int:
    """ceil(delta / eps) base copies, at least one; eps must be in (0, 1]."""
    if not (0 < eps <= 1):
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    return max(1, _iceil(delta / eps))


def ds_from_schedule(gadget: PsiGadget, s: Schedule, eps: float) -> DominatingSet:
    """Recover a dominating set of the single base graph from a short
    schedule on a gadget over ceil(max_degree/eps) disjoint base copies.

    The candidate from copy i is the set of copy-i vertices that ever send to
    the hub; the smallest candidate is returned (ties to the lowest copy).
    Requires a valid schedule shorter than 3 * t_m.
    """
    copies = _copies(gadget.base.max_degree(), eps)
    if s.length >= 3 * gadget.t_m:
        raise ValueError(
            f"schedule length {s.length} is not below 3*t_m = {3 * gadget.t_m}"
        )
    report = validate_schedule(gadget.graph, gadget.params, s)
    if not report.valid:
        raise ValueError(f"schedule is invalid on the gadget: {report.violation}")
    if gadget.base.n % copies != 0:
        raise ValueError(
            f"gadget base has {gadget.base.n} nodes, not divisible into {copies} copies"
        )
    n_single = gadget.base.n // copies
    single = Graph(
        n_single,
        [(u, v) for u, v in gadget.base.edges if u < n_single and v < n_single],
    )
    senders = {
        a.node
        for a in s.actions
        if a.kind == SEND and a.target == gadget.hub and a.node < gadget.base.n
    }
    best = None
    for i in range(copies):
        off = i * n_single
        kappa = sorted(v - off for v in senders if off <= v < off + n_single)
        if best is None or len(kappa) < len(best):
            best = kappa
    return make_dominating_set(single, best)


def mds_apx(g: Graph, scheduler, eps: float) -> DominatingSet:
    """Approximate a minimum dominating set through aggregation scheduling.

    For each guess of the dominating-set size, builds the gadget over
    ceil(max_degree/eps) base copies with a matched t_m, runs `scheduler`
    (a callable (graph, params) -> Schedule or None) on it, and recovers a
    candidate whenever the schedule beats 3 * t_m.  Returns the smallest
    candidate; with no candidate at all, the full vertex set with a warning.
    The recovered-size guarantee holds only for near-optimal schedulers.
    """
    delta = g.max_degree()
    copies = _copies(delta, eps)
    if delta == 0:
        # Isolated vertices dominate only themselves.
        return make_dominating_set(g, range(g.n)) if g.n else DominatingSet(frozenset(), {})
    base = disjoint_copies(g, copies)
    best = None
    for k_hat in range(1, g.n + 1):
        t_m = _iceil((delta + k_hat * delta / eps) / eps) + 1
        gadget = psi_transform(base, t_m)
        sched = scheduler(gadget.graph, gadget.params)
        if sched is None or sched.length >= 3 * t_m:
            continue
        cand = ds_from_schedule(gadget, sched, eps)
        if best is None or len(cand) < len(best) or (
            len(cand) == len(best) and sorted(cand.members) < sorted(best.members)
        ):
            best = cand
    if best is None:
        warnings.warn("no guess produced a short schedule; returning all vertices")
        return make_dominating_set(g, range(g.n))
    return best
