"""Span tracer for the benchmark's traced run.

While an instance runs, each function named in SPANS is replaced, in every
tokensched module that binds it and in the benchmark's `workloads` module, by
a wrapper that records one span: name, start, end, parent span and instance
id.  Replacing every binding is what lets calls from inside the library be
seen, such as `approx.build_flow_lp` under `choose_L` or `approx.simulate`
under `solve_tc`.  Spans stay in memory until the run writes them out.

A layer's self time is its span time minus the time its direct child spans
cover.  The counters next to the times are read from the arguments and
results of the traced calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from tokensched import core

_lower_bounds = core.lower_bounds  # bound before any patching: never traced


def _count_lp_build(counts, args, result):
    counts["approx.lp_cols"] += result.n_cols
    counts["approx.lp_nnz"] += result.a_eq.nnz + result.a_ub.nnz


def _count_lp_solve(counts, args, result):
    counts["approx.lp_solves"] += 1


def _count_sample(counts, args, result):  # sample_paths(flow, L_hat, W, seed)
    counts["approx.paths_kept"] += len(result)
    counts["approx.holders_sampled"] += len(set(args[2]))


def _count_assign(counts, args, result):  # assign_paths(paths, W)
    counts["approx.sources"] += len(result)
    counts["approx.holders_assigned"] += len(set(args[1]))


def _count_validate(counts, args, result):  # validate_schedule(g, p, s)
    counts["core.validate_calls"] += 1
    counts["core.actions_validated"] += len(args[2].actions)


def _count_simulate(counts, args, result):
    counts["core.simulate_calls"] += 1


def _count_build_tree(counts, args, result):
    counts["complete.tree_nodes"] += result.size


def _count_prune_tree(counts, args, result):  # prune_tree(tree, n)
    counts["complete.nodes_pruned"] += args[0].size - args[1]


def _count_format(counts, args, result):
    counts["files.schedule_bytes"] += len(result.encode())


def _count_brute_opt(counts, args, result):  # brute_opt(g, p, ...)
    counts["brute.brute_opt_calls"] += 1
    counts["brute.horizons_tried"] += result.opt_length - _lower_bounds(args[0], args[1])[2] + 1


def _solve_tc(fn, args, kwargs, counts):
    """Call solve_tc with a report list (its own, when the caller passed none)
    and count iterations and the rounds of fallback fragments."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    if bound.arguments["report"] is None:
        bound.arguments["report"] = []
    report = bound.arguments["report"]
    first = len(report)
    result = fn(*bound.args, **bound.kwargs)
    stats = report[first:]
    counts["approx.iterations"] += len(stats)
    counts["approx.fallback_rounds"] += sum(
        s.fragment_rounds for s in stats if s.router == "fallback"
    )
    counts["approx.schedule_rounds"] += result.length
    return result


# (span name, module, attribute, counter).  Self time is reported as
# `<span name>_s`.  `Graph.__init__` is replaced on the class itself.
SPANS = (
    ("generators.build", "tokensched.generators", "complete_graph", None),
    ("generators.build", "tokensched.generators", "path_graph", None),
    ("generators.build", "tokensched.generators", "cycle_graph", None),
    ("generators.build", "tokensched.generators", "star_graph", None),
    ("generators.build", "tokensched.generators", "grid_graph", None),
    ("generators.build", "tokensched.generators", "gnp_connected", None),
    ("core.graph_build", "tokensched.core", "Graph.__init__", None),
    ("core.validate", "tokensched.core", "validate_schedule", _count_validate),
    ("core.simulate", "tokensched.core", "simulate", _count_simulate),
    ("core.lower_bounds", "tokensched.core", "lower_bounds", None),
    ("approx.solve_tc", "tokensched.approx", "solve_tc", None),
    ("approx.choose_L", "tokensched.approx", "choose_L", None),
    ("approx.lp_build", "tokensched.approx", "build_flow_lp", _count_lp_build),
    ("approx.lp_solve", "tokensched.approx", "solve_flow_lp", _count_lp_solve),
    ("approx.sample", "tokensched.approx", "sample_paths", _count_sample),
    ("approx.assign", "tokensched.approx", "assign_paths", _count_assign),
    ("approx.route", "tokensched.approx", "route_paths_m", None),
    ("approx.route", "tokensched.approx", "route_paths_c", None),
    ("approx.fallback", "tokensched.approx", "_fallback_pairing", None),
    ("complete.build_tree", "tokensched.complete", "build_tree", _count_build_tree),
    ("complete.prune_tree", "tokensched.complete", "prune_tree", _count_prune_tree),
    ("complete.greedy_schedule", "tokensched.complete", "greedy_schedule", None),
    ("files.format", "tokensched.files", "format_schedule", _count_format),
    ("files.parse", "tokensched.files", "parse_schedule", None),
    ("brute.brute_opt", "tokensched.brute", "brute_opt", _count_brute_opt),
    ("brute.extract_opt_paths", "tokensched.brute", "extract_opt_paths", None),
    ("domset.mds_apx", "tokensched.domset", "mds_apx", None),
    ("domset.min_dominating_set", "tokensched.domset", "min_dominating_set", None),
    ("domset.roundtrip", "workloads", "gadget_round_trip", None),
)

# Per-layer metrics in report order: (name, unit).
LAYER_METRICS = (
    ("approx.solve_tc_s", "s"),
    ("approx.iterations", "count"),
    ("approx.choose_L_s", "s"),
    ("approx.lp_build_s", "s"),
    ("approx.lp_solve_s", "s"),
    ("approx.lp_solves", "count"),
    ("approx.lp_cols", "count"),
    ("approx.lp_nnz", "count"),
    ("approx.sample_s", "s"),
    ("approx.paths_kept_frac", "ratio"),
    ("approx.assign_s", "s"),
    ("approx.sources_frac", "ratio"),
    ("approx.route_s", "s"),
    ("approx.fallback_s", "s"),
    ("approx.fallback_rounds_frac", "ratio"),
    ("core.validate_s", "s"),
    ("core.validate_calls", "count"),
    ("core.actions_validated", "count"),
    ("core.validate_ns_per_action", "ns/action"),
    ("core.graph_build_s", "s"),
    ("core.simulate_s", "s"),
    ("core.simulate_calls", "count"),
    ("core.lower_bounds_s", "s"),
    ("complete.build_tree_s", "s"),
    ("complete.prune_tree_s", "s"),
    ("complete.greedy_schedule_s", "s"),
    ("complete.tree_nodes", "count"),
    ("complete.nodes_pruned_frac", "ratio"),
    ("files.format_s", "s"),
    ("files.parse_s", "s"),
    ("files.schedule_bytes", "bytes"),
    ("brute.brute_opt_s", "s"),
    ("brute.brute_opt_calls", "count"),
    ("brute.horizons_tried", "count"),
    ("brute.extract_opt_paths_s", "s"),
    ("domset.mds_apx_s", "s"),
    ("domset.scheduler_calls", "count"),
    ("domset.roundtrip_s", "s"),
    ("domset.min_dominating_set_s", "s"),
    ("generators.build_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans and counters for the instances run under `recording`."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, instance id]
        self.counts = defaultdict(float)
        self._stack = []
        self._instance = None
        self._patches = self._plan()

    def _plan(self) -> list:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        owners = [
            m for name, m in sorted(sys.modules.items())
            if name in ("tokensched", "workloads") or name.startswith("tokensched.")
        ]
        patches = []
        for span, module, attr, counter in SPANS:
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(sys.modules[module], cls_name)
                orig = vars(cls)[attr]
                patches.append((cls, attr, orig, self._wrap(span, orig, counter)))
                continue
            orig = getattr(sys.modules[module], attr)
            wrapper = self._wrap(span, orig, counter, _solve_tc if span == "approx.solve_tc" else None)
            for owner in owners:
                for name, value in vars(owner).items():
                    if value is orig:
                        patches.append((owner, name, orig, wrapper))
        return patches

    def _wrap(self, name, fn, counter, around=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._instance]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                if around is not None:
                    result = around(fn, args, kwargs, counts)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    @contextmanager
    def recording(self, instance_id: str):
        """Replace the traced bindings while one instance runs, then restore them."""
        self._instance = instance_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, orig, _ in self._patches:
                setattr(owner, attr, orig)
            self._stack.clear()
            self._instance = None

    def self_times(self) -> dict:
        """Span name -> (total seconds, self seconds, calls)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += end - start
            row[1] += end - start - child_time[i]
            row[2] += 1
        return {name: tuple(row) for name, row in out.items()}

    def layer_metrics(self, passes: int, overhead_frac: float) -> dict:
        """Every LAYER_METRICS value, per traced pass."""
        times = self.self_times()
        c = self.counts
        per_pass = {name + "_s": row[1] / passes for name, row in times.items()}
        scheduler_calls = sum(
            1 for name, _, _, parent, _ in self.spans
            if name == "approx.solve_tc" and parent >= 0 and self.spans[parent][0] == "domset.mds_apx"
        )
        values = {
            **{k: c[k] / passes for k in (
                "approx.iterations", "approx.lp_solves", "approx.lp_cols", "approx.lp_nnz",
                "core.validate_calls", "core.actions_validated", "core.simulate_calls",
                "complete.tree_nodes", "files.schedule_bytes", "brute.brute_opt_calls",
                "brute.horizons_tried",
            )},
            "approx.paths_kept_frac": _ratio(c["approx.paths_kept"], c["approx.holders_sampled"]),
            "approx.sources_frac": _ratio(c["approx.sources"], c["approx.holders_assigned"]),
            "approx.fallback_rounds_frac": _ratio(c["approx.fallback_rounds"], c["approx.schedule_rounds"]),
            "core.validate_ns_per_action": 1e9 * _ratio(
                times.get("core.validate", (0, 0, 0))[1], c["core.actions_validated"]
            ),
            "complete.nodes_pruned_frac": _ratio(c["complete.nodes_pruned"], c["complete.tree_nodes"]),
            "domset.scheduler_calls": scheduler_calls / passes,
            "trace.overhead_frac": overhead_frac,
        }
        return {
            name: {"value": values.get(name, per_pass.get(name, 0.0)), "unit": unit}
            for name, unit in LAYER_METRICS
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, instance) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "instance": instance,
                }) + "\n")
