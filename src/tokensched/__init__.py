"""Scheduling data aggregation in synchronous networks where merging two
tokens costs t_c rounds and sending one to a neighbor costs t_m."""

__version__ = "0.1.0"

from .approx import solve_tc
from .brute import OracleResult, brute_opt, extract_opt_paths, n_star_table
from .complete import (
    AggTree,
    baseline_lengths,
    build_tree,
    greedy_schedule,
    opt_complete,
    r_star,
    tree_schedule,
    tree_size,
)
from .core import (
    Action,
    Graph,
    NetworkParams,
    Schedule,
    TokenState,
    ValidationReport,
    lower_bounds,
    simulate,
    trivial_upper_bound,
    validate_schedule,
)
from .domset import (
    DominatingSet,
    PsiGadget,
    ds_from_schedule,
    mds_apx,
    psi_transform,
    schedule_from_dominating_set,
)
from .paths import DirectedPathSet

__all__ = [
    "Action",
    "AggTree",
    "DirectedPathSet",
    "DominatingSet",
    "Graph",
    "NetworkParams",
    "OracleResult",
    "PsiGadget",
    "Schedule",
    "TokenState",
    "ValidationReport",
    "baseline_lengths",
    "brute_opt",
    "build_tree",
    "ds_from_schedule",
    "extract_opt_paths",
    "greedy_schedule",
    "lower_bounds",
    "mds_apx",
    "n_star_table",
    "opt_complete",
    "psi_transform",
    "r_star",
    "schedule_from_dominating_set",
    "simulate",
    "solve_tc",
    "tree_schedule",
    "tree_size",
    "trivial_upper_bound",
    "validate_schedule",
]
