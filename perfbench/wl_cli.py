"""Workload ``cli``: repeated in-process ``cli.main`` calls.

Each round makes the ten golden invocations of the CLI test suite, compared
byte for byte with ``tests/golden/*.json``, and calls on seeded synthetic
documents: four-world impossibility cycles built from structured axiom
constraints (the second-theorem shape, with seeded thresholds and sizes,
plus a source and a sink world joined by raw edges), small belief
matrices, n-cycle bounds and small audits.  The documents are written to a
temporary directory inside the checkout, which ``cleanup`` removes.

Calls take milliseconds, so parsing, validation, report assembly and the
tiny LPs and searches dominate; this is the only workload that measures the
``scenario`` and ``cli`` layers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from fractions import Fraction
from pathlib import Path

from uncertain_objectives import cli

from common import Task, Workload, check_farkas, expect, marginals, reach_sets

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "golden"

GOLDEN_CASES = {
    "analyze_three_cycle": ("analyze", "three_cycle.json"),
    "analyze_second_theorem": ("analyze", "second_theorem_cycle.json"),
    "bound_n4": ("bound", "--n", "4"),
    "coherence_rotation_exact": ("coherence", "rotation_matrix.json", "--exact"),
    "coherence_incoherent_exact": ("coherence", "incoherent_matrix.json", "--exact"),
    "decide_rotations_margin": ("decide", "decide_rotations.json"),
    "decide_from_matrix": ("decide", "decide_from_matrix.json"),
    "decide_partial_three_cycle": (
        "decide", "three_cycle.json", "--rule", "partial", "--policy", "abstain",
    ),
    "audit_total_repugnant": (
        "audit", "--swf=total", "--axiom=avoid_repugnant", "--levels=1,100", "--max-count=120",
    ),
    "audit_average_sadistic": (
        "audit", "--swf=average", "--axiom=avoid_sadistic", "--levels=-50,1,100",
        "--max-count=20", "--base", '[["100", 10]]', "--budget", "2000000",
    ),
}

# Synthetic calls per round, by family; with the golden calls a round has
# about 200 tasks.  The twenty ``bound --n 5`` calls (~16 ms) are the slowest
# group, so the p95 tail falls inside it.
CYCLES_PER_ROUND = 30  # each: analyze, bound, decide --rule partial
MATRICES_PER_ROUND = 50  # n = 3 and 4 alternating; half feasible marginals
BOUND_SIZES = (3,) * 5 + (4,) * 10 + (5,) * 20
AUDITS_PER_ROUND = 24  # half repugnant witnesses, half clean dominance


def run_main(argv):
    """One ``cli.main`` call; returns (exit code, stdout, stderr)."""
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, buf.getvalue(), err.getvalue()


def _report_bytes(out):
    return {"cli.report_bytes": len(out[1].encode())}


def _task(kind, argv, check):
    def checked(out, ctx):
        code, text, err = out
        expect(code == 0, f"{kind}: exit code {code}: {err.strip()}")
        check(text, ctx)

    return Task(kind, lambda ctx: run_main(argv), checked, counts=_report_bytes)


def _golden_task(name, argv):
    argv = [str(SCENARIOS / a) if a.endswith(".json") else a for a in argv]
    expected = (GOLDEN / f"{name}.json").read_text()

    def check(text, ctx):
        expect(text == expected, f"golden report {name} differs")

    return _task(f"golden:{argv[0]}", argv, check)


def _r(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _cycle_document(rng):
    """Second-theorem cycle a -> a_plus -> z -> a_star -> a with seeded numbers."""
    vl = Fraction(rng.randint(1, 3))
    vh = vl + rng.randint(5, 80)
    base = vh + rng.randint(1, 20)
    base_size = rng.randint(1, 4)
    extra = base_size + rng.randint(1, 8)
    worlds = {
        "a": [[_r(base), base_size]],
        "a_plus": [[_r(vl / 2), extra], [_r(base + 1), base_size]],
        "a_star": [[_r(vh), base_size]],
        "z": [[_r(vl), base_size + extra]],
    }
    constraints = [
        {"axiom": "dominance_addition", "label": "C1", "base": "a", "augmented": "a_plus",
         "raised": [[_r(base + 1), base_size]], "added": [[_r(vl / 2), extra]]},
        {"axiom": "inequality_aversion", "label": "C2", "mixed": "a_plus", "equal": "z"},
        {"axiom": "quality", "label": "C3", "high": "a_star", "low": "z",
         "very_high": _r(vh), "very_low": _r(vl)},
        {"axiom": "egalitarian_dominance", "label": "C4", "better": "a", "worse": "a_star"},
    ]
    # Sources only point into the cycle and sinks only out of it, so the
    # 4-cycle stays the only cycle and no path joins two cycle worlds outside it.
    # Every document has one source and one sink with two edges each, so
    # the pattern search (over all subsets of the eight edges) costs the same
    # for every seed.
    cycle = ["a", "a_plus", "z", "a_star"]
    for w in ("s", "t"):
        worlds[w] = [[_r(rng.randint(-5, 50)), rng.randint(1, 5)]]
        for node in rng.sample(cycle, 2):
            src, dst = (w, node) if w == "s" else (node, w)
            constraints.append({"label": f"R{len(constraints) + 1}", "from": src, "to": dst})
    doc = {"$schema": "uncertain-objectives/scenario/v1", "worlds": worlds,
           "constraints": constraints}
    edges = [
        ("a", "a_plus"), ("a_plus", "z"), ("z", "a_star"), ("a_star", "a")
    ] + [(c["from"], c["to"]) for c in constraints[4:]]
    return doc, sorted(worlds), edges


def _cycle_tasks(rng, path):
    doc, worlds, edges = _cycle_document(rng)
    path.write_text(json.dumps(doc, indent=2))
    cycle_labels = {"C1", "C2", "C3", "C4"}

    def check_analyze(text, ctx):
        f = json.loads(text)["findings"]
        cert = f["certificate"]
        expect(cert and cert["length"] == 4 and set(cert["labels"]) == cycle_labels,
               "certificate is not the 4-cycle")
        expect(f["min_uncertainty_size"] == 2, "minimum pattern size is not 2")
        pats = f["minimal_patterns"]
        expect(len(pats) == 6, "a 4-cycle has six minimal patterns")
        expect(all(len(p["labels"]) == 2 and set(p["labels"]) <= cycle_labels for p in pats),
               "minimal pattern outside the cycle")

    def check_bound(text, ctx):
        f = json.loads(text)["findings"]
        expect(f["n"] == 4 and f["bound"] == "1/4" and f["witness_max_violation"] == "1/4",
               "bound of a 4-cycle is not 1/4")

    policy = rng.choice(["abstain", "random_among_maximal", "treat_as_equal"])
    # The first minimal pattern drops C1 and C2; the kept edges induce the order.
    idx = {w: i for i, w in enumerate(worlds)}
    reach = reach_sets(len(worlds), [(idx[u], idx[v]) for u, v in edges[2:]])
    maximal = [w for w in worlds if not reach[idx[w]]]

    def check_decide(text, ctx):
        o = json.loads(text)["findings"]["outcome"]
        expect(o["candidates"] == maximal, "maximal set differs from the kept-edge closure")
        if len(maximal) == 1:
            expect(o["outcome"] == "act" and o["world"] == maximal[0], "unique maximum not chosen")
        elif policy == "abstain":
            expect(o["outcome"] == "abstain", "abstain policy not applied")
        elif policy == "treat_as_equal":
            expect(o["outcome"] == "tie", "treat_as_equal policy not applied")
        else:
            expect(o["outcome"] == "act" and o["world"] in maximal, "random pick outside the set")

    p = str(path)
    return [
        _task("analyze", ["analyze", p], check_analyze),
        _task("bound", ["bound", p], check_bound),
        _task("decide", ["decide", p, "--rule", "partial", "--policy", policy,
                         "--seed", str(rng.randint(0, 99))], check_decide),
    ]


def _matrix_task(rng, path, n, feasible):
    worlds = [f"m{i}" for i in range(n)]
    if feasible:
        support = rng.randint(1, 4)
        orders = set()
        while len(orders) < support:
            orders.add(tuple(rng.sample(worlds, n)))
        orders = sorted(orders)
        probs = [Fraction(1, len(orders))] * len(orders)
        z = marginals(orders, probs, worlds)
    else:
        z = [[Fraction(1, 2)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                z[i][j] = Fraction(rng.randint(0, 4), 4)
                z[j][i] = 1 - z[i][j]
    doc = {"$schema": "uncertain-objectives/matrix/v1", "worlds": worlds,
           "z": [[_r(v) for v in row] for row in z]}
    path.write_text(json.dumps(doc))

    def check(text, ctx):
        f = json.loads(text)["findings"]
        exact = f["exact"]
        if exact["feasible"]:
            w = exact["witness"]
            got = marginals([tuple(o) for o in w["orders"]], [Fraction(p) for p in w["p"]],
                            worlds)
            expect(got == z, "witness does not reproduce Z")
            expect(f["path_violations"] == [], "path violations on a feasible matrix")
        else:
            check_farkas(exact["certificate"], worlds, z)

    return _task("coherence", ["coherence", str(path), "--exact"], check)


def _bound_task(n):
    def check(text, ctx):
        f = json.loads(text)["findings"]
        expect(f["bound"] == f"1/{n}", f"bound for n={n} is not 1/{n}")

    return _task("bound_n", ["bound", "--n", str(n)], check)


def _audit_task(rng, witness):
    if witness:
        vl, vh = rng.randint(1, 3), rng.randint(20, 60)
        argv = ["audit", "--swf=total", "--axiom=avoid_repugnant", f"--levels={vl},{vh}",
                f"--max-count={vh // vl + 1 + rng.randint(0, 5)}"]
    else:
        levels = sorted(rng.sample(range(-5, 20), 3))
        argv = ["audit", f"--swf={rng.choice(['total', 'average'])}", "--axiom=dominance",
                "--levels=" + ",".join(map(str, levels)), "--max-count=2"]

    def check(text, ctx):
        f = json.loads(text)["findings"]
        if witness:
            expect(f["result"] == "violation" and f["replayed"] is True,
                   "repugnant witness missing or not replayed")
        else:
            expect(f["result"] == "none_found_in_bounds", "dominance violated")

    return _task("audit", argv, check)


def build(seed: int) -> Workload:
    rng = random.Random(f"cli:{seed}")
    tmp = ROOT / ".perfbench_tmp" / f"cli-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    round_ = [_golden_task(name, argv) for name, argv in GOLDEN_CASES.items()]
    for i in range(CYCLES_PER_ROUND):
        round_ += _cycle_tasks(rng, tmp / f"cycle{i}.json")
    round_ += [
        _matrix_task(rng, tmp / f"matrix{i}.json", 3 + i % 2, i % 4 < 2)
        for i in range(MATRICES_PER_ROUND)
    ]
    round_ += [_bound_task(n) for n in BOUND_SIZES]
    round_ += [_audit_task(rng, i % 2 == 0) for i in range(AUDITS_PER_ROUND)]
    rng.shuffle(round_)
    warmup = [_golden_task(name, argv) for name, argv in GOLDEN_CASES.items()]
    warmup += _cycle_tasks(rng, tmp / "warm_cycle.json")
    warmup += [
        _matrix_task(rng, tmp / "warm_matrix.json", 3, True),
        _bound_task(3),
        _audit_task(rng, True),
    ]

    def cleanup():
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()

    return Workload(round=round_, warmup=warmup, cleanup=cleanup)
