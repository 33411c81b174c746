"""Walkthrough: the approximation pipeline on an arbitrary graph.

Shows the stages one at a time on a random connected graph: the congestion
flow over the time-expanded graph (certified optimal from a max-flow at the
per-vertex congestion bounds, as also on a star, or solved as an LP),
random-walk path sampling, path direction,
and a route-and-compute round; then runs the full solver, which times all
its fragments' actions at once with the greedy timing engine core._asap,
and prints its per-iteration report and the rounds that timing saved over
the fragments laid end to end.
"""

from tokensched import (
    NetworkParams,
    lower_bounds,
    solve_tc,
    trivial_upper_bound,
    validate_schedule,
)
from tokensched.approx import (
    assign_paths,
    choose_L,
    route_paths_c,
    sample_paths,
)
from tokensched.core import initial_state, simulate
from tokensched.generators import gnp_connected, star_graph

g = gnp_connected(18, 0.25, seed=42)
p = NetworkParams(t_c=1, t_m=2)
print(f"graph: n={g.n}, m={len(g.edges)}, diameter={g.diameter()}")

print()
print("== Stage 1: congestion flow over the time-expanded graph ==")
W = list(range(g.n))
L, flow = choose_L(g, W, p)
source = "certified optimal without an LP" if flow.method == "certified" else "solved as an LP"
print(f"  chosen step count L={L}, vertex congestion z={flow.z:.3f} ({source})")
star = star_graph(12)
L_star, star_flow = choose_L(star, list(range(star.n)), p)
print(f"  on a 12-node star whose hub and leaves all hold tokens: z={star_flow.z:.0f}, "
      f"the hub's bound, with L={L_star} ({star_flow.method})")

print()
print("== Stage 2: sample one walk per token holder ==")
paths = sample_paths(flow, L, W, seed=7)
print(f"  kept {len(paths)} of {len(W)} walks; first few:")
for path in paths[:4]:
    print("   ", path)

print()
print("== Stage 3: direct the paths into source/sink pairs ==")
dp = assign_paths(paths, W)
print(f"  {len(dp)} directed paths; congestion {dp.con}, dilation {dp.dil}")
print(f"  sources: {dp.sources}")
print(f"  sinks:   {dp.sinks}")

print()
print("== Stage 4: one route-and-compute round (merge-on-collision) ==")
frag = route_paths_c(g, p, dp, counts=[1] * g.n)
after = simulate(g, p, frag, start=initial_state(g))[-1][1]
print(f"  fragment of {frag.length} rounds; tokens {g.n} -> {after.total_tokens()}")

print()
print("== The full solver ==")
rows = []
sched = solve_tc(g, p, seed=7, report=rows)
assembled = sum(r.fragment_rounds for r in rows)
print(f"  length {sched.length} ({assembled} concatenated, timed by core._asap), "
      f"valid={validate_schedule(g, p, sched).valid}")
print("  sends name no token: each moves its node's oldest one")
print(f"  lower bound {lower_bounds(g, p)[2]}, naive upper bound {trivial_upper_bound(g, p)}")
print("  iter holders   L      z con dil src rounds router flow")
for r in rows:
    print(
        f"  {r.iteration:4d} {r.holders:7d} {r.L:3d} {r.z:6.2f} {r.con:3d} "
        f"{r.dil:3d} {r.sources:3d} {r.fragment_rounds:6d} {r.router:>6} {r.flow}"
    )
