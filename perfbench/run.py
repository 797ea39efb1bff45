"""Benchmark entry point.

    python3 perfbench/run.py --workload {polytope,patterns,audit,cli} \
        --seed N --seconds T --trace {0,1}

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout; without it the command fails with exit code 2.

Every number comes from fresh single-threaded processes (BLAS and OpenMP
pinned to one thread).  ``SETUP_SAMPLES`` processes time the set-up (import,
input generation from the seed, one warm-up task of each kind), then one
more sets up and measures.  End-to-end times are normalised to a reference
speed measured alongside them (``reference.py``):

* ``--trace 0``: a closed loop with one client over the seeded round of
  tasks, in whole passes, for about T seconds, tracing off.  Prints the
  end-to-end metrics.
* ``--trace 1``: passes over the round that run every task once untraced
  and once traced.  Prints the per-layer metrics and the tracing overhead.

Every task's output is checked outside its timed call.  The last stdout
line is the result as JSON; the lines before it repeat the metrics for
people, with the environment stamp that ``compare.py`` matches.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from reference import REF_LOOP_S, loop_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("polytope", "patterns", "audit", "cli")
SETUP_SAMPLES = 11
SETUP_LOOP_REPEATS = 9
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, role: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker ({role}) exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_setup(args) -> dict:
    """One set-up-only process, its set-up time normalised to reference speed.

    The reference loop is timed in this process just before the child starts
    and just after it ends, while this process waits for it.
    """
    before = loop_seconds(SETUP_LOOP_REPEATS)
    res = run_child(args, "setup")
    after = loop_seconds(SETUP_LOOP_REPEATS)
    res["setup_wall_s"] = res["setup_s"]
    for key in ("setup_s", "import_s", "inputs_s"):
        res[key] *= REF_LOOP_S / ((before + after) / 2)
    return res


def end_to_end(res: dict, setup_s: float) -> tuple[dict, list[str]]:
    """Throughput and latency over the complete passes of the closed loop.

    Times are normalised to the reference speed (``reference.py``); the
    notes repeat them in plain wall time.
    """
    from worker import tail

    def summary(passes):
        lat = [x for one_pass in passes for x in one_pass]
        ok = [x for x in lat if math.isfinite(x)]
        p, tail_s = tail(lat, len(passes[0]))
        return p, len(lat), {
            "tasks_per_s": len(ok) / sum(ok) if ok else 0.0,
            "task_p50_ms": statistics.median(lat) * 1000,
            "task_tail_ms": tail_s * 1000,
        }

    p, samples, metrics = summary(res["passes"])
    metrics["peak_rss_mib"] = res["peak_rss_mib"]
    metrics["setup_s"] = setup_s
    _, _, wall = summary(res["wall"])
    notes = [
        f"task_tail_ms is p{p:g} of {samples} samples "
        f"({len(res['passes'])} passes over a round of {len(res['passes'][0])} tasks)",
        f"failed_frac = {res['failed']}/{res['attempted']} = "
        f"{res['failed'] / res['attempted']:.6g}",
        "tasks_per_s counts time inside task calls; checks run outside it",
        f"times are normalised to a reference loop of {REF_LOOP_S * 1000:g} ms; the loop took "
        f"{res['loop_s'] * 1000:.4g} ms (median) during this run",
        "wall time: " + ", ".join(f"{k} = {v:.6g}" for k, v in wall.items()),
    ]
    for kind, values in sorted(res["by_kind"].items()):
        notes.append(f"kind {kind}: {len(values)} tasks, p50 {statistics.median(values) * 1000:.4g}"
                     f" ms, max {max(values) * 1000:.4g} ms")
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "uncertain_objectives" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'uncertain_objectives'}", file=sys.stderr)
        return 2

    setups = [run_setup(args) for _ in range(SETUP_SAMPLES)]
    res = run_child(args, "measure")
    setup = {key: statistics.median(s[key] for s in setups)
             for key in ("setup_s", "setup_wall_s", "import_s", "inputs_s")}

    correct = (
        res["failed"] == 0
        and res["probe_wrong"] == 0
        and all(s["warmup_failed"] == 0 for s in setups + [res])
    )
    print("stamp " + json.dumps(res["stamp"], sort_keys=True))
    if args.trace:
        metrics = dict(res["layers"])
        metrics["setup.import_s"] = setup["import_s"]
        metrics["setup.inputs_s"] = setup["inputs_s"]
        metrics["probes.known_failures"] = res["known_failures"]
        notes = [f"{res['passes']} passes over the round, each task once untraced and once traced"]
        for name, (num, den) in res["ratio_parts"].items():
            notes.append(f"{name} = {num}/{den}")
        units = {name: per_layer_units(name) for name in metrics}
    else:
        metrics, notes = end_to_end(res, setup["setup_s"])
        notes.append(f"setup_s in wall time: {setup['setup_wall_s']:.6g} s")
        notes.append(f"probes still failing as at the seed: {res['known_failures']}")
        units = END_TO_END
    for name in sorted(metrics):
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    for note in notes:
        print(f"{args.workload} {note}")
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
