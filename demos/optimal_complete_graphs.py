"""Walkthrough: optimal aggregation schedules on complete graphs.

Grows the recursive aggregation tree, compares the resulting schedule length
against binary-tree baselines and the exhaustive optimum, and prints the
schedule-length curve data.
"""

from tokensched import (
    NetworkParams,
    baseline_lengths,
    brute_opt,
    build_tree,
    greedy_schedule,
    opt_complete,
    r_star,
    tree_size,
    validate_schedule,
)
from tokensched.generators import complete_graph

p = NetworkParams(t_c=2, t_m=1)

print("== The aggregation tree ==")
print("Budget R -> largest tree finishable in R rounds (t_c=2, t_m=1):")
print("  sizes:", [tree_size(R, p) for R in range(17)])
tree = build_tree(8, p)
print(f"  tree for R=8 has {tree.size} nodes; parent array: {tree.parent}")

print()
print("== Greedy aggregation finishes the budget-R tree within R rounds ==")
sched = greedy_schedule(tree, p)
print(f"  schedule length {sched.length}, {len(sched.actions)} actions")
for a in sched.actions[:6]:
    print("   ", a)
print("    ...")

print()
print("== Optimal schedules on K_n ==")
for n in (2, 3, 4, 5):
    opt = opt_complete(n, p)
    oracle = brute_opt(complete_graph(n), p)
    ok = validate_schedule(complete_graph(n), p, opt).valid
    print(
        f"  n={n}: tree schedule {opt.length} rounds, exhaustive optimum "
        f"{oracle.opt_length}, valid={ok}"
    )

print()
print("== How much the tree shape buys over binary trees ==")
print("  n, naive_binary, pipelined_binary, optimal, compute_lb")
for n in (8, 16, 32, 64, 128, 256):
    print("  ", (n, *baseline_lengths(n, p)))
print(f"\n  e.g. n=64 finishes in {r_star(64, p)} rounds; the pipelined binary")
print(f"  tree needs {baseline_lengths(64, p)[1]}.")
