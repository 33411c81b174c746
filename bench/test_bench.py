"""Self-test of the benchmark, on the seconds-long version of each workload.

    python3 -m pytest -q bench

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a corrupted schedule is counted as failed (so the checker can fail), that the
traced run puts the library back as it found it, that the command ends with
the result line, and that the benchmark refuses to run without the library's
sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import setup_probe  # noqa: E402

setup_probe.pin_threads()
setup_probe.setup()

import run  # noqa: E402
from tokensched import approx, core, files  # noqa: E402

with open(os.path.join(setup_probe.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _line(workload: str, trace: bool) -> dict:
    result, _ = run.measure(workload, seed=7, seconds=0.0, trace=trace, tiny=True,
                            setup_times=[0.5])
    return result["line"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    line = _line(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }
    for m in line["metrics"].values():
        assert isinstance(m["value"], float)


def test_traced_run_restores_the_library():
    init, simulate = core.Graph.__init__, core.simulate
    _line("approx", trace=True)
    assert core.Graph.__init__ is init
    assert core.simulate is simulate and approx.simulate is simulate


def test_schedule_missing_a_compute_counts_as_failed(monkeypatch):
    format_schedule = files.format_schedule

    def drop_one_compute(s):
        lines = format_schedule(s).splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line.rstrip().endswith("COMPUTE"))
        return "".join(lines[:first] + lines[first + 1:])

    monkeypatch.setattr(files, "format_schedule", drop_one_compute)
    line = _line("complete", trace=False)
    assert not line["correct"]
    assert line["failed"] == line["attempted"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(setup_probe.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "approx", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_command_line_ends_with_the_result_line():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "complete", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--tiny"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert line["correct"] and set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
