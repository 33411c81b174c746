"""tokensched benchmark: time one workload and check every schedule it emits.

    python3 bench/run.py --workload approx --seed 1 --seconds 30 --trace 0

Runs the workload's instances one at a time in this process (a closed loop
with one caller, no extra threads, BLAS/OpenMP pinned to one thread), pass
after pass, for about `--seconds` seconds and at least two passes.  Checks
run outside the timed region; an instance whose output fails a check, that
raises, or that runs past INSTANCE_CAP_S counts as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones (see
tracing.py).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The run also writes
bench/results/<workload>-seed<seed>-trace<t>.json with the environment, every
pass, every failure and per-span times, and, when traced, a JSON-lines file
of the spans.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import setup_probe

INSTANCE_CAP_S = 30.0
SETUP_PROBES = 4  # fresh processes timed for setup_s, besides this one
RESULTS_DIR = os.path.join(setup_probe.ROOT, "bench", "results")


class InstanceTimeout(Exception):
    """An instance ran past INSTANCE_CAP_S."""


def _on_alarm(signum, frame):
    raise InstanceTimeout(f"over the {INSTANCE_CAP_S:g} s instance cap")


@dataclass
class InstanceRun:
    id: str
    seconds: float
    failures: list
    digest: str = ""  # sha256 over the format_schedule outputs
    ratios: list = field(default_factory=list)  # length / lower bound per schedule


@dataclass
class Pass:
    traced: bool
    runs: list

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.runs)


def run_instance(inst, tracer, lower_bounds: dict) -> InstanceRun:
    """Time one instance, then check its outputs with the timer stopped."""
    from tokensched import core

    signal.setitimer(signal.ITIMER_REAL, INSTANCE_CAP_S)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            emitted, checks = inst.run()
        else:
            with tracer.recording(inst.id):
                emitted, checks = inst.run()
        seconds = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:  # any failure of the program under test is a result
        signal.setitimer(signal.ITIMER_REAL, 0)
        lines = traceback.format_exception_only(type(exc), exc)
        return InstanceRun(inst.id, time.perf_counter() - t0, [lines[-1].strip()])
    failures = []
    if seconds > INSTANCE_CAP_S:
        failures.append(f"timed out: {seconds:.1f} s is over the {INSTANCE_CAP_S:g} s cap")
    digest = hashlib.sha256()
    ratios = []
    for e in emitted:
        digest.update(e.text.encode())
        if not e.report.valid:
            failures.append(f"{e.label}: invalid after the file round trip: {e.report.violation}")
        key = (inst.id, e.label)
        if e.lower_bound is not None:
            lower_bounds[key] = e.lower_bound
        elif key not in lower_bounds:
            lower_bounds[key] = core.lower_bounds(e.graph, e.params)[2]
        ratios.append(e.parsed.length / lower_bounds[key])
    try:
        failures.extend(checks())
    except Exception as exc:
        failures.append(f"check raised {type(exc).__name__}: {exc}")
    return InstanceRun(inst.id, seconds, failures, digest.hexdigest(), ratios)


def run_passes(insts, seconds: float, tracer) -> list:
    """Passes over all instances until `seconds` are about used up (at least
    two, so output can be compared across passes).  With a tracer, passes
    alternate untraced and traced, starting untraced."""
    passes = []
    lower_bounds = {}
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            traced = tracer is not None and len(passes) % 2 == 1
            passes.append(Pass(traced, [
                run_instance(inst, tracer if traced else None, lower_bounds) for inst in insts
            ]))
            took = time.perf_counter() - t0
            if len(passes) >= 2 and time.perf_counter() - start + took / 2 > seconds:
                return passes
    finally:
        signal.signal(signal.SIGALRM, previous)


def check_determinism(passes) -> None:
    """Mark a run failed when its format_schedule output differs from pass 1's."""
    first = {r.id: r.digest for r in passes[0].runs}
    for p in passes[1:]:
        for r in p.runs:
            if r.digest and first[r.id] and r.digest != first[r.id]:
                r.failures.append("format_schedule output differs from pass 1 (same seed)")


def quartiles(values) -> tuple:
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def setup_seconds(first: float, probes: int) -> list:
    """This process's set-up time plus that of `probes` fresh processes."""
    times = [first]
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, os.path.join(setup_probe.ROOT, "bench", "setup_probe.py")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _git_commit():
    """HEAD of the checkout's git repository, read without running git; None
    outside a repository."""
    git = os.path.join(setup_probe.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_pinning": {var: os.environ.get(var) for var in setup_probe.THREAD_VARS},
        "git_commit": _git_commit(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
            setup_times: list) -> tuple:
    """Run one workload; return the result record, whose `line` is what the
    benchmark prints last, and the tracer (None when untraced)."""
    import tracing
    import workloads

    insts = workloads.instances(workload, seed, tiny)
    tracer = tracing.Tracer() if trace else None
    passes = run_passes(insts, seconds, tracer)
    check_determinism(passes)
    runs = [r for p in passes for r in p.runs]
    failed = sum(1 for r in runs if r.failures)
    plain = [p for p in passes if not p.traced]
    walls = [p.seconds for p in plain]
    ratios = [x for r in passes[0].runs for x in r.ratios]
    if trace:
        traced_walls = [p.seconds for p in passes if p.traced]
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1
        metrics = tracer.layer_metrics(len(traced_walls), overhead)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "slowest_instance_s": {
                "value": statistics.median(max(r.seconds for r in p.runs) for p in plain),
                "unit": "s",
            },
            "length_ratio_gmean": {
                "value": math.exp(statistics.fmean(math.log(x) for x in ratios)) if ratios else 0.0,
                "unit": "ratio",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    line = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
    result = {
        "line": line,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "environment": environment(),
        "failed_frac": failed / len(runs),
        "wall_s_quartiles": quartiles(walls),
        "setup_s_samples": setup_times,
        "passes": [
            {"traced": p.traced, "seconds": p.seconds,
             "instances": {r.id: r.seconds for r in p.runs}}
            for p in passes
        ],
        "failures": [
            {"pass": i, "instance": r.id, "failures": r.failures}
            for i, p in enumerate(passes, start=1) for r in p.runs if r.failures
        ],
        "spans": {
            name: {"total_s": total, "self_s": self_s, "calls": calls}
            for name, (total, self_s, calls) in sorted(tracer.self_times().items())
        } if trace else {},
    }
    return result, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run the seconds-long version of the workload (self-test)")
    args = ap.parse_args(argv)

    setup_probe.pin_threads()
    try:
        first_setup = setup_probe.setup()
    except ImportError as exc:
        print(f"bench: cannot set up tokensched: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup_times = setup_seconds(first_setup, 1 if args.tiny else SETUP_PROBES)
    result, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.tiny, setup_times)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write_spans(stem + "-spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    line = result["line"]
    q1, q2, q3 = result["wall_s_quartiles"]
    print(f"workload={args.workload} seed={args.seed} passes={len(result['passes'])} "
          f"attempted={line['attempted']} failed={line['failed']} "
          f"failed_frac={result['failed_frac']:.4f} wall_s q1/median/q3={q1:.3f}/{q2:.3f}/{q3:.3f}")
    for name, m in line["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for f in result["failures"][:20]:
        print(f"  FAILED pass {f['pass']} {f['instance']}: {'; '.join(f['failures'])}")
    print(f"  environment: {json.dumps(result['environment'], sort_keys=True)}")
    print(f"  results: {os.path.relpath(stem, setup_probe.ROOT)}.json")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
