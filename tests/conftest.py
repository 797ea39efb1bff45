"""Shared generators and reference implementations for the test suite.

Reference (oracle) implementations here are deliberately independent of the
library's code paths: closures are recomputed by naive iteration, pairwise
probabilities by direct enumeration, and so on.
"""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from uncertain_objectives import (
    ConstraintGraph,
    OrderDistribution,
    Population,
    UncertaintyPattern,
)
from uncertain_objectives import _kernels
from uncertain_objectives.beliefs import FLOAT_TOL, PathViolation, path_bounds
from uncertain_objectives.simplex import LpResult

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def scenarios_dir() -> Path:
    return SCENARIOS


def random_exact_probs(rng: random.Random, k: int) -> list[Fraction]:
    """k nonnegative rationals summing to exactly 1."""
    weights = [rng.randint(0, 9) for _ in range(k)]
    if sum(weights) == 0:
        weights[rng.randrange(k)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_distribution(rng: random.Random, n: int, support: int) -> OrderDistribution:
    worlds = tuple(f"w{i}" for i in range(n))
    support = min(support, math.factorial(n))
    orders = set()
    while len(orders) < support:
        perm = list(worlds)
        rng.shuffle(perm)
        orders.add(tuple(perm))
    orders = sorted(orders)
    return OrderDistribution(orders=orders, probs=random_exact_probs(rng, len(orders)))


def random_population(rng: random.Random, levels=None, max_groups=3, max_count=5) -> Population:
    levels = levels or [Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)]
    k = rng.randint(1, max_groups)
    chosen = rng.sample(levels, min(k, len(levels)))
    return Population((lvl, rng.randint(1, max_count)) for lvl in chosen)


def random_graph(rng: random.Random, n_nodes: int, n_edges: int) -> ConstraintGraph:
    worlds = tuple(f"n{i}" for i in range(n_nodes))
    pairs = [(u, v) for u in worlds for v in worlds if u != v]
    chosen = rng.sample(pairs, min(n_edges, len(pairs)))
    return ConstraintGraph.from_edges(
        [(u, v, f"E{i}") for i, (u, v) in enumerate(chosen)], worlds=worlds
    )


def reference_reachability(graph: ConstraintGraph, skip=frozenset()) -> dict:
    """Naive fixed-point transitive closure over edge pairs."""
    reach = {(e.worse, e.better) for i, e in enumerate(graph.edges) if i not in skip}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(reach), repeat=2):
            if b == c and (a, d) not in reach:
                reach.add((a, d))
                changed = True
    return reach


def reference_pattern_valid(graph: ConstraintGraph, indices) -> bool:
    skip = frozenset(indices)
    reach = reference_reachability(graph, skip)
    if any((w, w) in reach for w in graph.worlds):
        return False
    for i in indices:
        e = graph.edges[i]
        if (e.worse, e.better) in reach or (e.better, e.worse) in reach:
            return False
    return True


def reference_minimal_patterns(graph: ConstraintGraph) -> list:
    """Inclusion-minimal valid patterns by checking every edge subset, by
    size then lexicographically, skipping supersets of patterns found."""
    found = []
    for size in range(len(graph.edges) + 1):
        for subset in itertools.combinations(range(len(graph.edges)), size):
            if not any(set(f) <= set(subset) for f in found):
                if reference_pattern_valid(graph, subset):
                    found.append(subset)
    return [UncertaintyPattern(f) for f in found]


def reference_pairwise(d: OrderDistribution) -> dict:
    """Z(a, b) by direct enumeration over the support."""
    z = {}
    worlds = d.worlds
    for a in worlds:
        for b in worlds:
            if a == b:
                z[(a, b)] = Fraction(1, 2)
            else:
                z[(a, b)] = sum(
                    (p for o, p in zip(d.orders, d.probs) if o.index(a) < o.index(b)),
                    Fraction(0),
                )
    return z


def reference_smallest_cycle(graph: ConstraintGraph):
    """Smallest edge-index sequence over all simple cycles, each cycle written
    from its smallest edge index; None when the graph is acyclic."""
    edges = graph.edges
    best = None

    def walk(path, seen):
        nonlocal best
        start, head = edges[path[0]].worse, edges[path[-1]].better
        if head == start:
            k = path.index(min(path))
            seq = path[k:] + path[:k]
            if best is None or seq < best:
                best = seq
            return
        for i, e in enumerate(edges):
            if e.worse == head and (e.better == start or e.better not in seen):
                walk(path + [i], seen | {e.better})

    for i, e in enumerate(edges):
        walk([i], {e.worse, e.better})
    return best


def reference_path_slacks(z, paths, one=1.0) -> list:
    """Chained-bound violation slack per path, by a plain scalar loop over
    probabilities in units of ``one``."""
    out = []
    for path in paths:
        steps = [z[a][b] for a, b in zip(path, path[1:])]
        upper = min(one, sum(steps))
        lower = max(one - one, one - sum(one - s for s in steps))
        span = z[path[0]][path[-1]]
        out.append(max(lower - span, span - upper))
    return out


def reference_path_violations(m, max_path_len=None) -> list:
    """The path scan the library used before its pruned scan, kept verbatim
    as an oracle: every simple path, one ``Fraction`` bound per path on
    exact matrices and the kernel over all permutations on float ones."""
    n = len(m.worlds)
    limit = n if max_path_len is None else min(max_path_len, n)
    violations: list[PathViolation] = []
    if limit < 3:
        return violations
    if m.is_exact:
        for k in range(3, limit + 1):
            for path in itertools.permutations(range(n), k):
                chain = [m.z[path[s]][path[s + 1]] for s in range(k - 1)]
                lower, upper = path_bounds(chain)
                span = m.z[path[0]][path[-1]]
                if span < lower or span > upper:
                    violations.append(
                        PathViolation(
                            tuple(m.worlds[i] for i in path),
                            span,
                            lower,
                            upper,
                            max(lower - span, span - upper),
                        )
                    )
        return violations
    z = m.as_float_array()
    for k in range(3, limit + 1):
        paths = np.array(list(itertools.permutations(range(n), k)), dtype=np.int64)
        slacks = _kernels.path_slacks(z, paths)
        for row, slack in zip(paths, slacks):
            if slack > FLOAT_TOL:
                chain = [z[row[s], row[s + 1]] for s in range(k - 1)]
                lower, upper = path_bounds(chain)
                violations.append(
                    PathViolation(
                        tuple(m.worlds[i] for i in row),
                        z[row[0], row[-1]],
                        lower,
                        upper,
                        float(slack),
                    )
                )
    return violations


# ---------------------------------------------------------------------------
# Reference dense simplex
# ---------------------------------------------------------------------------
# The dense-tableau two-phase simplex the library used before its revised
# simplex, kept verbatim as an oracle: one tableau column per variable, so it
# only runs on explicit matrices.  The library's solver must reproduce its
# status, x, objective, certificate and pivot count exactly.

_ZERO = Fraction(0)
_ONE = Fraction(1)
_STALL_LIMIT = 25
_MAX_PIVOTS = 200_000


def reference_solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()) -> LpResult:
    c = [Fraction(v) for v in c]
    n = len(c)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    senses: list[str] = []
    for row, b in zip(a_ub, b_ub):
        rows.append([Fraction(v) for v in row])
        rhs.append(Fraction(b))
        senses.append("ub")
    for row, b in zip(a_eq, b_eq):
        rows.append([Fraction(v) for v in row])
        rhs.append(Fraction(b))
        senses.append("eq")
    m = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("constraint row length does not match objective")

    flip = [_ONE] * m
    for i in range(m):
        if rhs[i] < 0:
            flip[i] = -_ONE
            rhs[i] = -rhs[i]
            rows[i] = [-v for v in rows[i]]

    # Column layout: x columns, then one slack per ub row, then artificials.
    slack_col = {}
    col_count = n
    for i in range(m):
        if senses[i] == "ub":
            slack_col[i] = col_count
            col_count += 1
    art_col = {}
    basis: list[int] = []
    for i in range(m):
        if senses[i] == "ub" and flip[i] == _ONE:
            basis.append(slack_col[i])
        else:
            art_col[i] = col_count
            col_count += 1
            basis.append(art_col[i])

    tableau = []
    for i in range(m):
        row = rows[i] + [_ZERO] * (col_count - n)
        if i in slack_col:
            row[slack_col[i]] = flip[i]
        if i in art_col:
            row[art_col[i]] = _ONE
        tableau.append(row)
    b = rhs[:]

    artificial = set(art_col.values())
    pivots = 0

    def run_phase(cost, blocked):
        nonlocal pivots
        ncols = col_count
        red = list(cost)
        z = _ZERO
        for i, bc in enumerate(basis):
            cb = cost[bc]
            if cb:
                z -= cb * b[i]
                trow = tableau[i]
                for j in range(ncols):
                    if trow[j]:
                        red[j] -= cb * trow[j]
        # Invariant: red[j] is the reduced cost of column j and z is the
        # negated objective value of the current basis.
        bland = False
        stall = 0
        last_z = z
        while True:
            enter = -1
            if bland:
                for j in range(ncols):
                    if j in blocked:
                        continue
                    if red[j] < 0:
                        enter = j
                        break
            else:
                best = _ZERO
                for j in range(ncols):
                    if j in blocked:
                        continue
                    if red[j] < best:
                        best = red[j]
                        enter = j
            if enter < 0:
                return "optimal", red, -z
            leave = -1
            best_ratio = None
            for i in range(m):
                a = tableau[i][enter]
                if a > 0:
                    ratio = b[i] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])
                    ):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                return "unbounded", red, -z
            pivots += 1
            if pivots > _MAX_PIVOTS:
                raise RuntimeError("simplex exceeded pivot cap")
            prow = tableau[leave]
            pval = prow[enter]
            if pval != 1:
                inv = _ONE / pval
                for j in range(ncols):
                    if prow[j]:
                        prow[j] *= inv
                b[leave] *= inv
            for i in range(m):
                if i == leave:
                    continue
                factor = tableau[i][enter]
                if factor:
                    trow = tableau[i]
                    for j in range(ncols):
                        if prow[j]:
                            trow[j] -= factor * prow[j]
                    b[i] -= factor * b[leave]
            factor = red[enter]
            if factor:
                for j in range(ncols):
                    if prow[j]:
                        red[j] -= factor * prow[j]
                z -= factor * b[leave]
            basis[leave] = enter
            if not bland:
                if z == last_z:
                    stall += 1
                    if stall > _STALL_LIMIT:
                        bland = True
                else:
                    stall = 0
                    last_z = z

    # Phase 1: drive the artificials to zero.
    if artificial:
        cost1 = [_ZERO] * col_count
        for j in artificial:
            cost1[j] = _ONE
        status, red1, obj1 = run_phase(cost1, blocked=frozenset())
        if status != "optimal":  # phase-1 objective is bounded below by 0
            raise RuntimeError("phase 1 cannot be unbounded")
        if obj1 > 0:
            y = [None] * m
            for i in range(m):
                if i in art_col:
                    y[i] = _ONE - red1[art_col[i]]
                else:
                    y[i] = -flip[i] * red1[slack_col[i]]
            cert = [flip[i] * y[i] for i in range(m)]
            return LpResult(status="infeasible", certificate=cert, pivots=pivots)
        # Pivot surviving artificials out of the basis; drop redundant rows.
        drop = []
        for i in range(m):
            if basis[i] in artificial:
                enter = -1
                for j in range(col_count):
                    if j not in artificial and tableau[i][j] != 0:
                        enter = j
                        break
                if enter < 0:
                    drop.append(i)
                    continue
                prow = tableau[i]
                pval = prow[enter]
                inv = _ONE / pval
                for j in range(col_count):
                    if prow[j]:
                        prow[j] *= inv
                b[i] *= inv
                for k in range(m):
                    if k == i:
                        continue
                    factor = tableau[k][enter]
                    if factor:
                        trow = tableau[k]
                        for j in range(col_count):
                            if prow[j]:
                                trow[j] -= factor * prow[j]
                        b[k] -= factor * b[i]
                basis[i] = enter
        if drop:
            for i in reversed(drop):
                del tableau[i], b[i], basis[i]
            m = len(tableau)

    cost2 = c + [_ZERO] * (col_count - n)
    status, _, obj2 = run_phase(cost2, blocked=frozenset(artificial))
    if status == "unbounded":
        return LpResult(status="unbounded", pivots=pivots)
    x = [_ZERO] * n
    for i, bc in enumerate(basis):
        if bc < n:
            x[bc] = b[i]
    return LpResult(status="optimal", x=x, objective=obj2, pivots=pivots)


def dense_solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), implicit=None):
    """``reference_solve_lp`` on the LP with every implicit order column of
    ``implicit`` (an ``OrderColumns``) written out, ids first; its x is
    mapped back to the library's explicit x and support."""
    keys = list(itertools.permutations(range(implicit.n))) if implicit else []
    cols = [implicit.column(k) for k in keys]
    n_ub = len(a_ub)
    res = reference_solve_lp(
        [0] * len(keys) + list(c),
        [[col[i] for col in cols] + list(row) for i, row in enumerate(a_ub)],
        b_ub,
        [[col[n_ub + i] for col in cols] + list(row) for i, row in enumerate(a_eq)],
        b_eq,
    )
    if res.x is not None:
        if implicit is not None:
            res.support = [(k, v) for k, v in zip(keys, res.x) if v > 0]
        res.x = res.x[len(keys):]
    return res
