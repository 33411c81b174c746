"""Command-line driver: schedule computation, validation, simulation, gadget
construction, statistics CSVs, and random instance generation.

Exit codes: 0 on success, 1 when `validate` rejects a schedule, 2 for
malformed input or usage errors.  Output files are byte-reproducible for a
fixed seed; the run report (stderr, suppressed by --quiet) is not part of any
output file.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .approx import IterationStats, solve_tc
from .brute import DEFAULT_MAX_NODES, NoScheduleWithinLimitError, SearchInfeasibleError, brute_opt
from .complete import baseline_lengths, build_tree, opt_complete, r_star
from .core import (
    DisconnectedGraphError,
    Graph,
    InvalidScheduleError,
    MalformedInputError,
    NetworkParams,
    lower_bounds,
    simulate,
    validate_schedule,
)
from . import files
from .domset import mds_apx, psi_transform
from .files import format_graph, format_schedule, read_graph, read_schedule
from .generators import (
    complete_graph,
    cycle_graph,
    gnp_connected,
    grid_graph,
    path_graph,
    star_graph,
)


def _default_seed() -> int:
    return int(os.environ.get("TOKENSCHED_SEED", "0"))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params(args) -> NetworkParams:
    p = NetworkParams(args.tc, args.tm)
    big, small = max(p.t_c, p.t_m), min(p.t_c, p.t_m)
    if big % small != 0:
        print(
            f"warning: neither of t_c={p.t_c}, t_m={p.t_m} divides the other; "
            "results are exact but outside the usual parameter regime",
            file=sys.stderr,
        )
    return p


def _report(args, facts, p: NetworkParams, length: int, seed, started: float) -> None:
    """Print the run line to stderr unless --quiet.  facts() returns
    (n, m, diameter, radius, lower_bounds) and is called only to print."""
    if getattr(args, "quiet", False):
        return
    n, m, diameter, radius, lbs = facts()
    ratio = length / lbs[2] if lbs[2] > 0 else float("nan")
    print(
        f"# cmd={args.command} n={n} m={m} diameter={diameter} "
        f"radius={radius} t_c={p.t_c} t_m={p.t_m} length={length} "
        f"compute_lb={lbs[0]} radius_lb={lbs[1]} combined_lb={lbs[2]} "
        f"ratio={ratio:.3f} seed={seed} wall={time.perf_counter() - started:.3f}s",
        file=sys.stderr,
    )


def _graph_facts(g: Graph, p: NetworkParams) -> tuple:
    return g.n, g.m, g.diameter(), g.radius(), lower_bounds(g, p)


def _cmd_complete(args) -> int:
    started = time.perf_counter()
    p = _params(args)
    if args.n > files.MAX_NODES:  # the limit parse_graph puts on a K_n file
        print(f"error: n={args.n} exceeds the limit of {files.MAX_NODES} nodes", file=sys.stderr)
        return 2
    sched = opt_complete(args.n, p)
    _emit(format_schedule(sched), args.out)
    _report(args, lambda: _graph_facts(complete_graph(args.n), p), p, sched.length, "-", started)
    return 0


def _cmd_tree(args) -> int:
    p = _params(args)
    if args.R >= r_star(2_000_001, p):  # tree sizes never shrink as R grows
        print(f"error: tree for R={args.R} exceeds the 2,000,000-node cap; too large to emit",
              file=sys.stderr)
        return 2
    tree = build_tree(args.R, p)
    _emit(" ".join(str(x) for x in tree.parent) + "\n", args.out)
    return 0


def _cmd_stats(args) -> int:
    p = _params(args)
    lines = ["n,naive_binary,pipelined_binary,optimal,compute_lb"]
    for n in range(1, args.nmax + 1):
        naive, pipe, opt, clb = baseline_lengths(n, p)
        lines.append(f"{n},{naive},{pipe},{opt},{clb}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_brute(args) -> int:
    started = time.perf_counter()
    p = _params(args)
    g = read_graph(args.graph)
    try:
        res = brute_opt(g, p, limit=args.limit, force=args.force)
    except SearchInfeasibleError as e:
        if e.lift is None:
            raise
        raise SearchInfeasibleError(e.reason, "--force") from None
    print(f"opt_length {res.opt_length}")
    print(f"max_singleton_distance {res.max_singleton_distance}")
    if args.out:
        _emit(format_schedule(res.schedule), args.out)
    _report(args, lambda: _graph_facts(g, p), p, res.opt_length, "-", started)
    return 0


def _cmd_approx(args) -> int:
    started = time.perf_counter()
    p = _params(args)
    g = read_graph(args.graph)
    seed = args.seed if args.seed is not None else _default_seed()
    rows: list[IterationStats] = []
    sched = solve_tc(g, p, seed, report=rows)
    _emit(format_schedule(sched), args.out)
    if args.report:
        lines = [
            f"# seed={seed} t_c={p.t_c} t_m={p.t_m} samples=ceil(4*log2(n))+1 "
            f"iteration_cap=24*ceil(log2(n))+8 "
            f"assembled={sum(r.fragment_rounds for r in rows)} length={sched.length}",
            "iter,holders,L,z,con,dil,sources,fragment_rounds,router,flow",
        ]
        for r in rows:
            lines.append(
                f"{r.iteration},{r.holders},{r.L},{r.z:.6g},{r.con},{r.dil},"
                f"{r.sources},{r.fragment_rounds},{r.router},{r.flow}"
            )
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    _report(args, lambda: _graph_facts(g, p), p, sched.length, seed, started)
    return 0


def _cmd_validate(args) -> int:
    p = _params(args)
    g = read_graph(args.graph)
    s = read_schedule(args.schedule)
    report = validate_schedule(g, p, s)
    if report.valid:
        _emit(f"valid length={s.length}\n", args.out)
        return 0
    r, node, rule, msg = report.violation
    _emit(f"invalid rule={rule} round={r} node={node}: {msg}\n", args.out)
    return 1


def _cmd_simulate(args) -> int:
    p = _params(args)
    g = read_graph(args.graph)
    s = read_schedule(args.schedule)
    lines = []
    for r, state in simulate(g, p, s):
        holders = " ".join(
            f"{v}:{{{','.join(str(x) for x in sorted(tok))}}}"
            for v in range(g.n)
            for tok in state.tokens_at(v)
        )
        lines.append(f"round {r}: {holders}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_gadget_psi(args) -> int:
    g = read_graph(args.graph)
    gadget = psi_transform(g, args.tm)
    _emit(format_graph(gadget.graph), args.out)
    if not args.quiet:
        print(
            f"# hub={gadget.hub} special={gadget.special} "
            f"danglers={gadget.danglers[0]}..{gadget.danglers[-1]}",
            file=sys.stderr,
        )
    return 0


def _cmd_mds(args) -> int:
    g = read_graph(args.graph)
    seed = args.seed if args.seed is not None else _default_seed()
    if args.scheduler == "brute":
        def scheduler(gg, pp):
            try:
                return brute_opt(gg, pp, limit=3 * pp.t_m - 1).schedule
            except NoScheduleWithinLimitError:
                return None
            except SearchInfeasibleError as e:
                # mds has no option that lifts the envelope.
                raise SearchInfeasibleError(e.reason) from None
    else:
        def scheduler(gg, pp):
            return solve_tc(gg, pp, seed)
    ds = mds_apx(g, scheduler, args.eps)
    members = " ".join(str(v) for v in sorted(ds.members))
    _emit(f"size {len(ds)}\n{members}\n", args.out)
    return 0


def _cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.kind == "gnp":
        g = gnp_connected(args.n, args.p, seed)
    elif args.kind == "grid":
        g = grid_graph(args.rows, args.cols)
    elif args.kind == "star":
        g = star_graph(args.n)
    elif args.kind == "path":
        g = path_graph(args.n)
    elif args.kind == "cycle":
        g = cycle_graph(args.n)
    else:
        g = complete_graph(args.n)
    _emit(format_graph(g), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tokensched",
        description="Aggregation scheduling in networks with compute and send costs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def costs(sp):
        sp.add_argument("--tc", type=int, required=True, help="rounds per merge")
        sp.add_argument("--tm", type=int, required=True, help="rounds per send")

    def common(sp, seed=False):
        sp.add_argument("--out", help="write the artifact here instead of stdout")
        sp.add_argument("--quiet", action="store_true", help="suppress the run report")
        if seed:
            sp.add_argument("--seed", type=int, default=None,
                            help="RNG seed (default: $TOKENSCHED_SEED or 0)")

    sp = sub.add_parser("complete", help="optimal schedule on a complete graph")
    sp.add_argument("--n", type=int, required=True)
    costs(sp)
    common(sp)
    sp.set_defaults(func=_cmd_complete)

    sp = sub.add_parser("tree", help="aggregation tree as a parent array")
    sp.add_argument("--R", type=int, required=True, help="round budget")
    costs(sp)
    common(sp)
    sp.set_defaults(func=_cmd_tree)

    sp = sub.add_parser("stats", help="schedule-length curves as CSV")
    sp.add_argument("--nmax", type=int, required=True)
    costs(sp)
    common(sp)
    sp.set_defaults(func=_cmd_stats)

    sp = sub.add_parser("brute", help="exhaustive optimum on a tiny graph")
    sp.add_argument("--graph", required=True)
    costs(sp)
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument("--force", action="store_true",
                    help="search beyond the default size envelope")
    common(sp)
    sp.set_defaults(func=_cmd_brute)

    sp = sub.add_parser("approx", help="approximation pipeline on any graph")
    sp.add_argument("--graph", required=True)
    costs(sp)
    sp.add_argument("--report", help="write per-iteration statistics CSV here")
    common(sp, seed=True)
    sp.set_defaults(func=_cmd_approx)

    sp = sub.add_parser("validate", help="check a schedule file")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--schedule", required=True)
    costs(sp)
    common(sp)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("simulate", help="print the token trace of a schedule: round 0, "
                        "then each round after which the holdings changed")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--schedule", required=True)
    costs(sp)
    common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("gadget", help="hardness gadget constructions")
    gsub = sp.add_subparsers(dest="gadget_command", required=True)
    gp = gsub.add_parser("psi", help="hub-and-dangler gadget over a base graph")
    gp.add_argument("--graph", required=True)
    gp.add_argument("--tm", type=int, required=True)
    common(gp)
    gp.set_defaults(func=_cmd_gadget_psi)

    sp = sub.add_parser("mds", help="dominating set via aggregation scheduling")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--scheduler", choices=["brute", "approx"], required=True,
                    help="brute fits only gadgets within brute_opt's search "
                         f"envelope (n <= {DEFAULT_MAX_NODES}) and otherwise exits 2; "
                         "every gadget of a connected graph with 2 or more nodes "
                         "exceeds it")
    common(sp, seed=True)
    sp.set_defaults(func=_cmd_mds)

    sp = sub.add_parser("gen", help="write a graph file")
    sp.add_argument("--kind", choices=["gnp", "grid", "star", "path", "cycle", "complete"],
                    required=True)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--p", type=float, default=0.5, help="edge probability for gnp")
    sp.add_argument("--rows", type=int, default=0)
    sp.add_argument("--cols", type=int, default=0)
    common(sp, seed=True)
    sp.set_defaults(func=_cmd_gen)

    return top


def cli_dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (MalformedInputError, DisconnectedGraphError, SearchInfeasibleError,
            NoScheduleWithinLimitError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvalidScheduleError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
