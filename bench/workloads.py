"""The benchmark's workloads and the checks on their outputs.

An instance is one job a CLI user runs end to end: produce a schedule, write
it with `format_schedule`, read it back with `parse_schedule`, and validate
the parsed schedule.  `Instance.run` is the timed part.  It returns the
emitted schedules and a function with the instance's own checks, which the
runner calls after the timer has stopped.

Library calls go through module attributes (`approx.solve_tc`, never a
from-import), so the traced run sees them when it replaces those attributes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from tokensched import approx, brute, complete, core, domset, files, generators

WORKLOADS = ("approx", "complete", "oracle")

# solve_tc time on gnp_connected(100, .06, s) ranges from 1.9 s to 17.3 s over
# s = 0..4, so a seeded sample would make wall_s spread far beyond any usable
# bound.  The approx workload keeps the sample the roadmap names and seeds
# solve_tc only.
APPROX_GNP_SEED = 2
APPROX_PARAMS = ((1, 2), (2, 1))  # merge-on-collision router, merge-last router
COMPLETE_PARAMS = ((1, 1), (2, 1), (1, 2), (3, 1))
ORACLE_PARAMS = ((1, 1), (2, 1), (1, 2))
# brute_opt at (1,2) takes 0.05 s to 2.8 s on gnp_connected(5, .5, s) samples,
# which would spread wall_s across seeds by itself; the seeded graph skips it.
ORACLE_SEEDED_PARAMS = ((1, 1), (2, 1))


@dataclass
class Emitted:
    """One schedule an instance emitted, after its file round trip."""

    label: str
    graph: core.Graph
    params: core.NetworkParams
    text: str  # format_schedule output
    parsed: core.Schedule
    report: core.ValidationReport  # validate_schedule on `parsed`
    lower_bound: int | None = None  # None: lower_bounds(graph, params)[2]


@dataclass(frozen=True)
class Instance:
    id: str
    run: Callable[[], tuple]  # () -> (list of Emitted, () -> list of failures)


def derive_seed(seed: int, key: int) -> int:
    """Independent 32-bit seed for one use of the workload seed."""
    return int(np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(1)[0])


def complete_lower_bound(n: int, p: core.NetworkParams) -> int:
    """lower_bounds(complete_graph(n), p)[2] in closed form: K_n has radius 1,
    and lower_bounds would run all-pairs BFS on it."""
    return max(p.t_c * core.ceil_log2(n), p.t_m) if n > 1 else 0


def round_trip(label, g, p, s, lower_bound=None) -> Emitted:
    text = files.format_schedule(s)
    parsed = files.parse_schedule(text)
    return Emitted(label, g, p, text, parsed, core.validate_schedule(g, p, parsed), lower_bound)


def _no_checks() -> list:
    return []


def _length_is_r_star(e: Emitted, n: int) -> list:
    want = complete.r_star(n, e.params)
    return [] if e.parsed.length == want else [f"length {e.parsed.length} != r_star {want}"]


def _solve_tc(make_graph, p, seed):
    g = make_graph()
    return [round_trip("solve_tc", g, p, approx.solve_tc(g, p, seed))], _no_checks


def _opt_complete_tree(n, p):
    """opt_complete(n) validated on the host its tree lives on, which is much
    smaller than K_n."""
    s = complete.opt_complete(n, p)
    tree = complete.prune_tree(complete.build_tree(complete.r_star(n, p), p), n)
    host = core.Graph(n, tree.edges())
    e = round_trip("opt_complete", host, p, s, complete_lower_bound(n, p))
    return [e], partial(_length_is_r_star, e, n)


def _opt_complete_kn(n, p):
    g = generators.complete_graph(n)
    e = round_trip("opt_complete", g, p, complete.opt_complete(n, p), complete_lower_bound(n, p))
    return [e], partial(_length_is_r_star, e, n)


def _oracle(make_graph, p, seed):
    g = make_graph()
    opt = brute.brute_opt(g, p, force=True)
    e_opt = round_trip("brute_opt", g, p, opt.schedule)
    brute.extract_opt_paths(g, p, opt.schedule, range(g.n))
    e_tc = round_trip("solve_tc", g, p, approx.solve_tc(g, p, seed))

    def checks():
        lb = core.lower_bounds(g, p)[2]
        if lb <= e_opt.parsed.length <= e_tc.parsed.length:
            return []
        return [f"lower bound {lb}, brute_opt {e_opt.parsed.length} and "
                f"solve_tc {e_tc.parsed.length} are out of order"]

    return [e_opt, e_tc], checks


def gadget_round_trip(g):
    """Plant a minimum dominating set of g in the gadget over max_degree(g)
    copies of g (eps = 1), schedule from it, round-trip and validate the
    schedule, and recover a dominating set from the parsed schedule."""
    kappa = domset.min_dominating_set(g)
    copies = g.max_degree()
    galpha = domset.disjoint_copies(g, copies)
    planted = domset.make_dominating_set(
        galpha, [v + i * g.n for i in range(copies) for v in sorted(kappa.members)]
    )
    gadget = domset.psi_transform(galpha, copies + copies * len(kappa) + 1)
    e = round_trip("gadget", gadget.graph, gadget.params,
                   domset.schedule_from_dominating_set(gadget, planted))
    return e, kappa, domset.ds_from_schedule(gadget, e.parsed, eps=1.0)


def _gadget(make_graph):
    g = make_graph()
    e, kappa, recovered = gadget_round_trip(g)

    def checks():
        if len(recovered) <= len(kappa) and domset.is_dominating_set(g, recovered.members):
            return []
        return [f"gadget recovered {sorted(recovered.members)}, minimum is {len(kappa)}"]

    return [e], checks


def _mds_apx(make_graph, seed):
    g = make_graph()
    with warnings.catch_warnings():
        # solve_tc never beats 3 * t_m on these gadgets, so mds_apx warns and
        # falls back to all vertices; the run still exercises every guess.
        warnings.simplefilter("ignore", UserWarning)
        ds = domset.mds_apx(g, lambda gg, pp: approx.solve_tc(gg, pp, seed), eps=1.0)

    def checks():
        return [] if domset.is_dominating_set(g, ds.members) else ["mds_apx set does not dominate"]

    return [], checks


def instances(workload: str, seed: int, tiny: bool = False) -> list:
    """The instances of one workload for a seed; `tiny` is the seconds-long
    version the self-test runs.

    Graph makers are lambdas, so generators are looked up when an instance
    runs and the traced run sees them.
    """
    gen = generators
    out = []

    def add(name, run):
        out.append(Instance(name, run))

    if workload == "approx":
        shapes = (
            ("gnp30", lambda: gen.gnp_connected(30, 0.2, APPROX_GNP_SEED)),
            ("grid4x4", lambda: gen.grid_graph(4, 4)),
        ) if tiny else (
            ("gnp100", lambda: gen.gnp_connected(100, 0.06, APPROX_GNP_SEED)),
            ("grid8x8", lambda: gen.grid_graph(8, 8)),
            ("cycle60", lambda: gen.cycle_graph(60)),
            ("star30", lambda: gen.star_graph(30)),
        )
        for name, make in shapes:
            for tc, tm in APPROX_PARAMS:
                p = core.NetworkParams(tc, tm)
                add(f"{name}@{tc},{tm}", partial(_solve_tc, make, p, derive_seed(seed, len(out))))
    elif workload == "complete":
        n_tree, n_kn = (2000, 200) if tiny else (60000, 2000)
        for tc, tm in COMPLETE_PARAMS:
            p = core.NetworkParams(tc, tm)
            add(f"tree{n_tree}@{tc},{tm}", partial(_opt_complete_tree, n_tree, p))
        add(f"K{n_kn}@1,1", partial(_opt_complete_kn, n_kn, core.NetworkParams(1, 1)))
    elif workload == "oracle":
        gnp_seed = derive_seed(seed, 1000)
        shapes = (
            ("path4", lambda: gen.path_graph(4)),
            ("gnp4", lambda: gen.gnp_connected(4, 0.5, gnp_seed)),
        ) if tiny else (
            ("path6", lambda: gen.path_graph(6)),
            ("grid2x3", lambda: gen.grid_graph(2, 3)),
            ("K5", lambda: gen.complete_graph(5)),
            ("cycle5", lambda: gen.cycle_graph(5)),
            ("gnp5", lambda: gen.gnp_connected(5, 0.5, gnp_seed)),
        )
        for name, make in shapes:
            seeded = name.startswith("gnp")
            for tc, tm in ORACLE_SEEDED_PARAMS if seeded else ORACLE_PARAMS:
                p = core.NetworkParams(tc, tm)
                add(f"{name}@{tc},{tm}", partial(_oracle, make, p, derive_seed(seed, len(out))))
        for k, n in enumerate((4,) if tiny else (4, 5, 6)):
            gseed = derive_seed(seed, 2000 + k)
            add(f"gadget-gnp{n}", partial(_gadget, lambda n=n, s=gseed: gen.gnp_connected(n, 0.5, s)))
        mds_shapes = (("path4", lambda: gen.path_graph(4)),)
        if not tiny:
            mds_shapes += (("cycle5", lambda: gen.cycle_graph(5)),)
        for name, make in mds_shapes:
            add(f"mds-{name}", partial(_mds_apx, make, derive_seed(seed, len(out))))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return out
