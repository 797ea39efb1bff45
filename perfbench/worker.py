"""One benchmark process: set up a workload, then optionally measure it.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --role setup|measure|counters

``run.py`` starts this in fresh single-threaded processes.  Every role first
times its set-up (import the package, generate the inputs from the seed,
run the warm-up tasks).  ``setup`` stops there.  ``measure`` with trace 0
runs the closed loop with tracing off; with trace 1 it makes passes over the
round that run every task once untraced and once traced.  ``counters`` does
the same and reports only the exact work counters of the first pass.  The
result is the last stdout line, as JSON.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

from reference import Speed

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("polytope", "patterns", "audit", "cli")

# Counters that must repeat exactly across runs at one seed.
EXACT_COUNTERS = (
    "simplex.calls",
    "simplex.pivots",
    "simplex.columns",
    "simplex.rows",
    "beliefs.paths_scanned",
    "kernels.path_slacks_rows",
    "constraints.subsets_checked",
    "constraints.subsets_valid",
    "kernels.pattern_valid_rows",
    "populations.constructed",
    "populations.scores",
    "axioms.instances_checked",
    "decisions.calls",
    "scenario.documents",
    "cli.report_bytes",
)


def _run_task(task, ctx, tracer=None):
    """Time one task call, then check its output outside the timed region.

    With a tracer, tracing is on for the call only.  Returns (seconds, cpu
    seconds, ok, output).
    """
    if tracer is not None:
        tracer.enabled = True
    cpu0 = time.process_time()
    start = perf_counter()
    try:
        out = task.call(ctx)
    except Exception:  # any raise, typed refusals included, fails the task
        out, ok = None, False
    else:
        ok = True
    finally:
        elapsed = perf_counter() - start
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.enabled = False
    if ok:
        try:
            task.check(out, ctx)
        except Exception:  # CheckFailed, or output too malformed to inspect
            ok = False
    return elapsed, cpu, ok, out


def _time_is_up(start, pass_start, seconds):
    """True when another pass would end further from the limit than this one."""
    now = perf_counter()
    return now - start + (now - pass_start) / 2 >= seconds


def closed_loop(workload, ctx, seconds):
    """One client, next task as soon as the last one is checked.

    Runs whole passes over the round, so every seed measures the same mix,
    and stops after the pass that ends nearest to the time limit.  Between
    tasks, outside their timed calls, samples the reference speed
    (``reference.py``).  Returns (normalised latencies of each pass, wall
    latencies of each pass, attempted, failed, normalised latencies by task
    kind, median reference-loop seconds); a failed task's latency is
    infinite.
    """
    speed = Speed()
    spans = []  # per pass: (start, elapsed, ok) of each task
    attempted = failed = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        spans.append([])
        for task in workload.round:
            speed.maybe_sample()
            t0 = perf_counter()
            elapsed, _, ok, _ = _run_task(task, ctx)
            spans[-1].append((t0, elapsed, ok))
            attempted += 1
            failed += not ok
        if _time_is_up(start, pass_start, seconds):
            break
    speed.sample()
    passes, wall, by_kind = [], [], {}
    for one_pass in spans:
        passes.append([])
        wall.append([])
        for task, (t0, elapsed, ok) in zip(workload.round, one_pass):
            norm = elapsed * speed.factor(t0, t0 + elapsed) if ok else math.inf
            passes[-1].append(norm)
            wall[-1].append(elapsed if ok else math.inf)
            by_kind.setdefault(task.kind, []).append(norm)
    return passes, wall, attempted, failed, by_kind, speed.median_loop_s()


def traced_pass(workload, ctx, tracer, tid0, speed):
    """Run every task of the round twice, once traced and once not.

    The order alternates from task to task, so neither side always gets the
    caches the other left warm.  Samples the reference speed between tasks.
    Returns (untraced busy seconds, traced busy seconds, traced cpu seconds,
    failures).
    """
    untraced = traced = cpu = 0.0
    failed = 0
    for tid, task in enumerate(workload.round):
        speed.maybe_sample()
        tracer.task_id = tid0 + tid
        for with_trace in ((False, True) if tid % 2 else (True, False)):
            elapsed, cpu_s, ok, out = _run_task(task, ctx, tracer if with_trace else None)
            if with_trace:
                traced += elapsed
                cpu += cpu_s
                if ok and task.counts is not None:
                    tracer.counts.update(task.counts(out))
            else:
                untraced += elapsed
            failed += not ok
    return untraced, traced, cpu, failed


def run_probes(workload):
    """Probes that fail at the seed: count those still failing.

    Returns (still failing, wrong answers).  A probe that returns an answer
    that fails its check is a wrong answer, not a known failure.
    """
    still, wrong = 0, 0
    for probe in workload.probes:
        try:
            out = probe.call()
        except Exception as exc:
            still += 1
            print(f"probe {probe.name}: {type(exc).__name__} (seed: {probe.seed_failure})",
                  file=sys.stderr)
            continue
        try:
            probe.check(out)
        except Exception as exc:
            wrong += 1
            print(f"probe {probe.name}: wrong answer: {exc}", file=sys.stderr)
    return still, wrong


def tail(lat, per_pass):
    """Highest of p99.9/p99/p95/p90/p75/p50 that leaves at least 10 samples
    beyond it in every pass of ``per_pass`` tasks, and its value over ``lat``.

    Fixing the percentile by the round size rather than by the run's sample
    count keeps it the same when a faster program fits more passes in.
    """
    ordered = sorted(lat)
    for p in (99.9, 99, 95, 90, 75, 50):
        if per_pass * (100 - p) / 100 >= 10 or p == 50:
            rank = max(1, math.ceil(p / 100 * len(ordered)))
            return p, ordered[rank - 1]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer numbers of one traced pass over the round."""
    t, s, c = tracer.total, tracer.self_time, tracer.counts
    m = {
        "simplex.solve_s": t("simplex.solve"),
        "beliefs.feasibility_s": t("beliefs.feasibility"),
        "beliefs.minimax_s": t("beliefs.minimax"),
        "beliefs.lp_self_s": s("beliefs.feasibility") + s("beliefs.minimax"),
        "beliefs.path_exact_s": t("beliefs.path_exact"),
        "beliefs.path_float_s": t("beliefs.path_float"),
        "beliefs.matrix_s": t("beliefs.matrix"),
        "kernels.path_slacks_s": t("kernels.path_slacks"),
        "kernels.pairwise_matrix_s": t("kernels.pairwise_matrix"),
        "constraints.find_cycle_s": t("constraints.find_cycle"),
        "constraints.patterns_s": t("constraints.patterns"),
        "constraints.min_size_s": t("constraints.min_size"),
        "constraints.partial_order_s": t("constraints.partial_order")
        + t("constraints.validate_order"),
        "constraints.search_self_s": s("constraints.patterns") + s("constraints.min_size"),
        "constraints.valid_ratio": _ratio(
            c["constraints.subsets_valid"], c["constraints.subsets_checked"]
        ),
        "kernels.pattern_valid_s": t("kernels.pattern_valid"),
        "populations.construct_s": t("populations.construct"),
        "axioms.audit_s": t("axioms.audit"),
        "axioms.check_s": t("axioms.check"),
        "axioms.enumerate_self_s": s("axioms.audit"),
        "axioms.useful_ratio": _ratio(
            c["axioms.instances_checked"], c["populations.constructed"]
        ),
        "decisions.decide_s": tracer.layer_outer["decisions"],
        "decisions.calls": c["decisions.outer_calls"],
        "scenario.parse_s": tracer.layer_outer["scenario"],
        "cli.main_s": t("cli.main"),
        "cli.self_s": s("cli.main"),
    }
    for key in EXACT_COUNTERS:
        m.setdefault(key, c[key])
    return m


def stamp(args):
    import numpy
    from uncertain_objectives import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": os.environ.get("OMP_NUM_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--role", required=True, choices=("setup", "measure", "counters"))
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import uncertain_objectives

    src = (ROOT / "src").resolve()
    if Path(uncertain_objectives.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported {uncertain_objectives.__file__}, not the package under {src}")
    t1 = perf_counter()
    workload = importlib.import_module(f"wl_{args.workload}").build(args.seed)
    t2 = perf_counter()
    ctx = {}
    warm_failed = sum(not _run_task(task, ctx)[2] for task in workload.warmup)
    t3 = perf_counter()
    result = {
        "setup_s": t3 - t0,
        "import_s": t1 - t0,
        "inputs_s": t2 - t1,
        "warmup_failed": warm_failed,
    }
    try:
        if args.role == "measure":
            result["stamp"] = stamp(args)
            if args.trace:
                result.update(measure_traced(args, workload, ctx))
            else:
                passes, wall, attempted, failed, by_kind, loop_s = closed_loop(
                    workload, ctx, args.seconds
                )
                result.update(passes=passes, wall=wall, attempted=attempted, failed=failed,
                              by_kind=by_kind, loop_s=loop_s)
                result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["known_failures"], result["probe_wrong"] = run_probes(workload)
        elif args.role == "counters":
            layers = measure_traced(args, workload, ctx)["layers"]
            result["counters"] = {k: layers[k] for k in EXACT_COUNTERS}
    finally:
        if workload.cleanup is not None:
            workload.cleanup()
    print(json.dumps(result))


def measure_traced(args, workload, ctx):
    """Traced passes over the round, as many as fit the time (at least one).

    Every time of a pass is normalised by the median reference-loop time
    sampled during that pass.
    """
    from instrument import install
    from tracer import Tracer

    tracer = Tracer()
    install(tracer)
    speed = Speed()
    untraced, traced, cpu, layers = [], [], [], []
    failed = attempted = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        tracer.reset()
        u, t, c, f = traced_pass(workload, ctx, tracer, len(layers) * len(workload.round), speed)
        speed.sample()
        scale = speed.pass_factor(pass_start)
        untraced.append(u * scale)
        traced.append(t * scale)
        cpu.append(c * scale)
        failed += f
        attempted += 2 * len(workload.round)
        layer = layer_metrics(tracer)
        layers.append({k: v * scale if k.endswith("_s") else v for k, v in layer.items()})
        if len(layers) == 1:
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            tracer.write_spans(out / f"spans-{args.workload}-seed{args.seed}.jsonl", stamp(args))
        if _time_is_up(start, pass_start, args.seconds):
            break
    tracer.restore()
    first = layers[0]
    metrics = {}
    for key in first:
        if key in EXACT_COUNTERS:
            metrics[key] = first[key]
        else:
            metrics[key] = statistics.median(layer[key] for layer in layers)
    metrics["process.cpu_s"] = statistics.median(cpu)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    return {
        "layers": metrics,
        "ratio_parts": {
            "constraints.valid_ratio": [first["constraints.subsets_valid"],
                                        first["constraints.subsets_checked"]],
            "axioms.useful_ratio": [first["axioms.instances_checked"],
                                    first["populations.constructed"]],
            "trace.overhead_frac": [statistics.median(traced), statistics.median(untraced)],
        },
        "passes": len(layers),
        "attempted": attempted,
        "failed": failed,
    }


if __name__ == "__main__":
    main()
