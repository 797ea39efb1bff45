"""Tests of the benchmark itself (not of the package).

    python3 -m pytest perfbench -q

The counter test makes two traced passes per workload in fresh processes,
about a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import REF_LOOP_S, Speed  # noqa: E402
from run import ROOT, child_env  # noqa: E402
from worker import EXACT_COUNTERS, tail  # noqa: E402

# Counters each workload must actually exercise.
EXERCISED = {
    "polytope": ("simplex.pivots", "simplex.columns", "beliefs.paths_scanned",
                 "decisions.calls"),
    "patterns": ("constraints.subsets_checked", "kernels.pattern_valid_rows"),
    "audit": ("populations.constructed", "axioms.instances_checked"),
    "cli": ("cli.report_bytes", "scenario.documents", "simplex.pivots",
            "constraints.subsets_checked", "populations.constructed"),
}


def _counters(workload, seed):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1", "--role", "counters"]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["counters"]


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_work_counters_repeat_exactly(workload):
    first = _counters(workload, 7)
    second = _counters(workload, 7)
    assert set(first) == set(EXACT_COUNTERS)
    assert first == second
    for name in EXERCISED[workload]:
        assert first[name] > 0, name


def test_tail_percentile_leaves_ten_samples_beyond_it_in_each_pass():
    lat = [float(i) for i in range(1, 1001)]
    assert tail(lat, 1000) == (99, 990.0)
    assert tail(lat, 200) == (95, 950.0)
    assert tail(lat[:500], 500) == (95, 475.0)
    assert tail(lat[:150], 150) == (90, 135.0)
    assert tail(lat[:20], 20) == (50, 10.0)


def test_speed_factor_averages_the_samples_around_a_task():
    speed = Speed()
    speed.at = [0.0, 1.0, 2.0]
    speed.loop_s = [REF_LOOP_S, 2 * REF_LOOP_S, 4 * REF_LOOP_S]
    assert speed.factor(0.2, 0.5) == 1 / 1.5  # between samples 0 and 1
    assert speed.factor(1.0, 1.5) == 1 / 3  # a sample taken at the start counts as before
    assert speed.factor(0.5, 1.5) == 1 / 2.5  # spans sample 1: samples 0 and 2
    assert speed.factor(2.5, 3.0) == 1 / 4  # after the last sample


def _result_file(path, **stamp):
    base = {"backend": "numpy", "nproc": 2, "numpy": "2.0", "python": "3.11", "seconds": 10,
            "seed": 1, "threads": "1", "trace": 0, "workload": "cli"}
    base.update(stamp)
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {"tasks_per_s": {"value": 5.0, "unit": "1/s"}}}
    path.write_text("stamp " + json.dumps(base) + "\n" + json.dumps(result) + "\n")
    return str(path)


def _compare(a, b):
    return subprocess.run([sys.executable, str(HERE / "compare.py"), a, b],
                          capture_output=True, text=True, timeout=60)


def test_compare_refuses_runs_with_different_stamps(tmp_path):
    a = _result_file(tmp_path / "a.txt")
    assert _compare(a, _result_file(tmp_path / "b.txt")).returncode == 0
    refused = _compare(a, _result_file(tmp_path / "c.txt", backend="numba"))
    assert refused.returncode == 2
    assert "backend" in refused.stderr


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
