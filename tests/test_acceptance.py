"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
(run pytest with -s or -rA to see them), plus a check of the connectivity
helper that criterion 3 counts graphs with.  Tolerances are pinned here:
rational-mode quantities are compared with zero tolerance, runtimes against
the stated wall-clock budgets, and sampling frequencies at three standard
errors.
"""

import itertools
import random
import time
from fractions import Fraction as F

import numpy as np

import uncertain_objectives as uo
from uncertain_objectives import _kernels
from uncertain_objectives.errors import InvalidPatternError

from conftest import random_distribution


def _verdict(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


# ---------------------------------------------------------------------------
# Criterion 1: minimax bound is exactly 1/n, under 60 s at n = 7
# ---------------------------------------------------------------------------

def _run_cli(*argv):
    import contextlib
    import io

    from uncertain_objectives.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_criterion_1_minimax_bound():
    import json

    ok = True
    elapsed_at_7 = None
    for n in range(3, 8):
        t0 = time.perf_counter()
        code, out = _run_cli("bound", "--n", str(n))
        elapsed = time.perf_counter() - t0
        if n == 7:
            elapsed_at_7 = elapsed
        findings = json.loads(out)["findings"]
        ok &= code == 0
        ok &= findings["bound"] == f"1/{n}"  # zero tolerance, rational string
        ok &= findings["witness_max_violation"] == f"1/{n}"
        # Independent re-enumeration of the reported witness.
        spec = uo.CycleSpec(tuple(f"x{i + 1}" for i in range(n)))
        witness = uo.OrderDistribution(
            orders=[tuple(o) for o in findings["witness"]["orders"]],
            probs=findings["witness"]["p"],
        )
        ok &= max(uo.violation_probabilities(witness, spec)) == F(1, n)
    ok &= elapsed_at_7 is not None and elapsed_at_7 < 60.0
    _verdict(
        ok,
        f"criterion 1: bound --n returns exactly 1/n for n=3..7 and the witness "
        f"re-enumerates to 1/n (n=7 took {elapsed_at_7:.2f}s < 60s)",
    )


# ---------------------------------------------------------------------------
# Criterion 2: the optimal symmetric cycle-edge value is (n-1)/n
# ---------------------------------------------------------------------------

def test_criterion_2_rotation_edge_value():
    ok = True
    for n in range(3, 8):
        worlds = tuple(f"x{i + 1}" for i in range(n))
        m = uo.matrix_from_distribution(uo.rotation_mixture(n), worlds=worlds)
        for i in range(n):
            a, b = worlds[i], worlds[(i + 1) % n]
            ok &= m.prob(a, b) == F(n - 1, n)
    _verdict(ok, "criterion 2: rotation-mixture cycle edges all equal (n-1)/n "
                 "exactly for n=3..7")


# ---------------------------------------------------------------------------
# Criterion 3: every uncertainty pattern of a cyclic graph has >= 2 edges
# ---------------------------------------------------------------------------

def connected_flags(rows: np.ndarray) -> np.ndarray:
    """Weak connectivity of each bit-row graph (reachability from node 0)."""
    g, n = rows.shape
    und = rows.copy()
    for i in range(n):
        for j in range(n):
            und[:, j] |= ((rows[:, i] >> j) & 1) << i
    visited = np.ones(g, dtype=np.int64)
    for _ in range(n):
        for i in range(n):
            sel = (visited >> i) & 1
            visited |= sel * und[:, i]
    return visited == (1 << n) - 1


def test_connected_flags_helper_matches_reference():
    # Criterion 3 counts graphs with this helper, so it is checked first,
    # against union-find over every digraph on 3 nodes.
    n = 3
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    masks = range(1 << len(pairs))
    rows = np.zeros((len(masks), n), dtype=np.int64)
    want = []
    for m in masks:
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for b, (u, v) in enumerate(pairs):
            if m >> b & 1:
                rows[m, u] |= 1 << v
                parent[find(u)] = find(v)
        want.append(len({find(x) for x in range(n)}) == 1)
    assert connected_flags(rows).tolist() == want


def test_criterion_3_two_constraint_minimum():
    t0 = time.perf_counter()
    total = 0
    cyclic_connected = 0
    offenders = 0
    for n in range(2, 6):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        n_pairs = len(pairs)
        edge_u = np.array([p[0] for p in pairs], dtype=np.int64)
        edge_v = np.array([p[1] for p in pairs], dtype=np.int64)
        for k in range(1, min(8, n_pairs) + 1):
            combos = np.array(
                list(itertools.combinations(range(n_pairs), k)), dtype=np.int64
            )
            total += combos.shape[0]
            rows = np.zeros((combos.shape[0], n), dtype=np.int64)
            gidx = np.arange(combos.shape[0])
            for col in range(k):
                u = edge_u[combos[:, col]]
                bit = np.int64(1) << edge_v[combos[:, col]]
                np.bitwise_or.at(rows, (gidx, u), bit)
            mask = connected_flags(rows) & _kernels.cyclic_flags(
                _kernels.closure_rows(rows)
            )
            cyclic_connected += int(mask.sum())
            if mask.any():
                # A cyclic graph invalidates the empty pattern by definition;
                # any single-edge pattern must be invalid for the theorem.
                # One kernel row per (graph, edge): that edge's bit cleared,
                # its endpoints the removed pair.
                kept, edges = rows[mask], combos[mask]
                g = kept.shape[0]
                single = np.concatenate([kept] * k)
                ru = edge_u[edges.T.ravel()]
                rv = edge_v[edges.T.ravel()]
                single[np.arange(g * k), ru] &= ~(np.int64(1) << rv)
                flags = _kernels.pattern_valid_flags(single, ru[:, None], rv[:, None])
                offenders += int(flags.reshape(k, g).any(axis=0).sum())

    # Pure cycles: exactly the C(n,2) two-edge subsets, all minimal.
    pure_ok = True
    for n in range(3, 9):
        g = uo.ConstraintGraph.from_edges(
            [(f"w{i}", f"w{(i + 1) % n}", f"C{i + 1}") for i in range(n)]
        )
        patterns = uo.valid_uncertainty_patterns(g, 2)
        pure_ok &= [p.edge_indices for p in patterns] == list(
            itertools.combinations(range(n), 2)
        )
    elapsed = time.perf_counter() - t0
    ok = offenders == 0 and pure_ok and cyclic_connected > 200_000 and elapsed < 300
    _verdict(
        ok,
        f"criterion 3: {cyclic_connected} connected cyclic digraphs (<=5 nodes, "
        f"<=8 edges) all need >= 2 uncertain constraints; every 2-edge subset "
        f"of pure cycles is a valid pattern ({elapsed:.1f}s < 300s)",
    )


# ---------------------------------------------------------------------------
# Criterion 4: chained path bounds are sound and breaches are infeasible
# ---------------------------------------------------------------------------

def _adversarial_matrix(rng: random.Random):
    """Exact matrix that breaches one two-step path bound by >= 1/1000."""
    n = rng.choice((3, 4, 5))
    worlds = tuple(f"x{i + 1}" for i in range(n))
    grid = [[F(1, 2)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = F(rng.randint(1, 19), 20)
            grid[i][j] = v
            grid[j][i] = 1 - v

    a, b, c = rng.sample(range(n), 3)
    eps1 = F(rng.randint(1, 5), 100)
    eps2 = F(rng.randint(1, 5), 100)
    breach = F(rng.randint(1, 50), 1000)  # at least 1/1000
    grid[a][b] = 1 - eps1
    grid[b][a] = eps1
    grid[b][c] = 1 - eps2
    grid[c][b] = eps2
    span = (1 - eps1 - eps2) - breach  # below the path's lower bound
    grid[a][c] = span
    grid[c][a] = 1 - span
    return uo.BeliefMatrix(worlds, grid), breach


def test_criterion_4_path_bound_soundness():
    rng = random.Random(20250607)
    coherent_ok = True
    for _ in range(1000):
        d = random_distribution(rng, rng.randint(3, 6), rng.randint(1, 10))
        m = uo.matrix_from_distribution(d)
        coherent_ok &= uo.check_path_coherence(m) == []

    adversarial_ok = True
    for _ in range(1000):
        m, breach = _adversarial_matrix(rng)
        violations = uo.check_path_coherence(m)
        adversarial_ok &= any(v.slack >= F(1, 1000) for v in violations)
        res = uo.exact_feasibility(m)
        adversarial_ok &= not res.feasible and res.verify(m)

    ok = coherent_ok and adversarial_ok
    _verdict(
        ok,
        "criterion 4: 1000 derived matrices produce zero path violations; 1000 "
        "adversarial matrices breaching a bound by >= 1/1000 are all infeasible",
    )


# ---------------------------------------------------------------------------
# Criterion 5: the classic audits produce replaying witnesses
# ---------------------------------------------------------------------------

def test_criterion_5_impossibility_audits():
    # Documented search spaces: levels/max_count below; thresholds default to
    # the grid extremes (very_high = top level, very_low = least positive).
    total_witness = uo.audit_swf(
        uo.TotalWelfare(),
        uo.AxiomId.AVOID_REPUGNANT,
        uo.SearchBounds(levels=(1, 100), max_count=120, budget=200_000),
    )
    avg_witness = uo.audit_swf(
        uo.AverageWelfare(),
        uo.AxiomId.AVOID_SADISTIC,
        uo.SearchBounds(
            levels=(-50, 1, 100), max_count=20, budget=2_000_000,
            base=uo.population((100, 10)),
        ),
    )
    critical_witness = uo.audit_swf(
        uo.CriticalLevel(2),
        uo.AxiomId.AVOID_SADISTIC,
        uo.SearchBounds(
            levels=(-50, 1, 100), max_count=60, budget=10_000_000,
            base=uo.population((100, 10)), very_high=100,
        ),
    )
    witnesses_ok = all(
        w is not None and w.replay()
        for w in (total_witness, avg_witness, critical_witness)
    )

    # The spec'd exact comparisons behind the classic conclusions.
    repugnant_cmp = uo.swf_compare(
        uo.TotalWelfare(), uo.population((1, 1001)), uo.population((100, 10))
    )
    arithmetic_ok = repugnant_cmp is uo.Verdict.GREATER  # 1001 > 1000
    bt = uo.population((100, 10)) | uo.population((-50, 1))
    bp = uo.population((100, 10)) | uo.population((1, 1000))
    arithmetic_ok &= uo.average_welfare(bt) == F(950, 11)
    # The quoted rival average 110/101 undercounts the base total (the true
    # value is 2000/1010 = 200/101); the stated comparison holds either way
    # and the verdict below checks the real populations.
    arithmetic_ok &= uo.average_welfare(bp) == F(200, 101)
    arithmetic_ok &= F(950, 11) > F(110, 101)
    arithmetic_ok &= F(950, 11) > F(200, 101)
    arithmetic_ok &= (
        uo.swf_compare(uo.AverageWelfare(), bt, bp) is uo.Verdict.GREATER
    )

    ok = witnesses_ok and arithmetic_ok
    _verdict(
        ok,
        "criterion 5: total->repugnant, average->sadistic, critical(2)->sadistic "
        "witnesses found and replayed; exact comparisons 1001>1000 and "
        "950/11>110/101 reproduced",
    )


# ---------------------------------------------------------------------------
# Criterion 6: partial-order laws hold; single-edge weakening is contradictory
# ---------------------------------------------------------------------------

def test_criterion_6_partial_order_laws():
    rng = random.Random(606)
    laws_ok = True
    produced = 0
    for _ in range(400):
        n_nodes = rng.randint(2, 5)
        worlds = tuple(f"n{i}" for i in range(n_nodes))
        pairs = [(u, v) for u in worlds for v in worlds if u != v]
        chosen = rng.sample(pairs, rng.randint(1, min(7, len(pairs))))
        g = uo.ConstraintGraph.from_edges(
            [(u, v, f"E{i}") for i, (u, v) in enumerate(chosen)], worlds=worlds
        )
        for pattern in uo.valid_uncertainty_patterns(g, len(g.edges), budget=100_000):
            po = uo.partial_order_from(g, pattern)
            laws_ok &= uo.validate_partial_order(po) == []
            produced += 1
    laws_ok &= produced > 400

    single_edge_ok = True
    for n in range(3, 9):
        g = uo.ConstraintGraph.from_edges(
            [(f"w{i}", f"w{(i + 1) % n}", f"C{i + 1}") for i in range(n)]
        )
        for e in range(n):
            try:
                uo.partial_order_from(g, uo.UncertaintyPattern((e,)))
                single_edge_ok = False
            except InvalidPatternError:
                pass

    ok = laws_ok and single_edge_ok
    _verdict(
        ok,
        f"criterion 6: {produced} induced partial orders all satisfy the order "
        "laws; weakening any single edge of an n-cycle raises InvalidPattern",
    )


# ---------------------------------------------------------------------------
# Criterion 7: decision-rule contracts
# ---------------------------------------------------------------------------

def test_criterion_7_decision_rules():
    rng = random.Random(707)
    sums_ok = True
    for _ in range(300):
        d = random_distribution(rng, rng.randint(2, 6), rng.randint(1, 12))
        acts = d.worlds[: rng.randint(1, len(d.worlds))]
        sums_ok &= sum(uo.prob_best(d, acts).values()) == F(1)

    rotations = uo.rotation_mixture(3)
    margins_ok = True
    for delta in (F(1, 1000), F(1, 10), F(1, 2), F(1)):
        outcome = uo.decide_margin(rotations, ("x1", "x2", "x3"), delta)
        margins_ok &= outcome.kind is uo.OutcomeKind.ABSTAIN

    d = uo.OrderDistribution(
        orders=[("a", "b", "c"), ("b", "a", "c"), ("c", "b", "a")],
        probs=[F(1, 2), F(1, 3), F(1, 6)],
    )
    probs = uo.prob_best(d, ("a", "b", "c"))
    n_draws = 100_000
    counts = {"a": 0, "b": 0, "c": 0}
    for seed in range(n_draws):
        counts[uo.decide_quantilized(d, ("a", "b", "c"), F(0), seed=seed).world] += 1
    sampling_ok = True
    for world, p in probs.items():
        p = float(p)
        sigma = (p * (1 - p) / n_draws) ** 0.5
        sampling_ok &= abs(counts[world] / n_draws - p) <= 3 * sigma

    ok = sums_ok and margins_ok and sampling_ok
    _verdict(
        ok,
        "criterion 7: prob_best sums to exactly 1; margin rule abstains on the "
        "uniform rotation mixture for every delta > 0; quantilized frequencies "
        f"over {n_draws} seeded draws match prob_best within 3 sigma",
    )
