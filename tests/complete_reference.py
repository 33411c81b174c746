"""Independent references for the aggregation trees of `tokensched.complete`.

`greedy_completion_round` is criterion 1's check on `greedy_schedule`: it
gets the greedy completion round from the budget recurrence, without building
a tree.  `stack_build_tree` is the plain stack builder that `build_tree`
replaced, which pops every node, leaves included; `build_tree` must give the
same parent array.
"""

from tokensched.core import NetworkParams


def _child_budgets(budget: int, p: NetworkParams) -> list:
    """Budgets of the root's subtrees, in child order (joined subtree last)."""
    buds = []
    b = budget
    while b >= p.t_c + p.t_m:
        buds.append(b - p.t_c - p.t_m)
        b -= p.t_c
    buds.reverse()
    return buds


def greedy_completion_round(R: int, p: NetworkParams) -> int:
    """Round by which greedy aggregation on the budget-R tree holds one token.

    Computed by recurrence over budgets, without building the tree: a subtree
    finished at round c sends during [c + 1, c + t_m] and its parent can merge
    from round c + t_m + 1 on; a parent chains merges greedily over its
    children's arrivals.  Serves as an independent check on greedy_schedule.
    """

    comp = []  # comp[b]: completion round on the budget-b tree
    for budget in range(R + 1):
        finish = 0  # free from round finish + 1
        for a in sorted(comp[b] + p.t_m + 1 for b in _child_budgets(budget, p)):
            finish = max(a, finish + 1) + p.t_c - 1
        comp.append(finish)
    return comp[R]


def stack_build_tree(R: int, p: NetworkParams) -> tuple:
    """Parent array of the budget-R tree: each popped node gets its children
    as one block of consecutive ids, and descent follows child order."""
    parent = [-1]
    stack = [(0, R)]
    while stack:
        node, budget = stack.pop()
        buds = _child_budgets(budget, p)
        kids = range(len(parent), len(parent) + len(buds))
        parent.extend([node] * len(buds))
        stack.extend(zip(reversed(kids), reversed(buds)))
    return tuple(parent)
