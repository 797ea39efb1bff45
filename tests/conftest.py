"""Shared generators and reference implementations for the test suite.

Reference (oracle) implementations here are deliberately independent of the
library's code paths: closures are recomputed by naive iteration, pairwise
probabilities by direct enumeration, and so on.
"""

import itertools
import math
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import pytest

from uncertain_objectives import (
    ConstraintGraph,
    OrderDistribution,
    Population,
    UncertaintyPattern,
)
from uncertain_objectives.axioms import (
    AxiomId,
    AxiomInstance,
    CheckResult,
    SearchBounds,
    ViolationWitness,
    addition_instance,
    avoid_repugnant_instance,
    avoid_sadistic_instance,
    avoid_very_anti_egalitarian_instance,
    check_instance,
    dominance_addition_instance,
    dominance_instance,
    egalitarian_dominance_instance,
    inequality_aversion_instance,
    priority_compensation_instance,
    quality_instance,
)
from uncertain_objectives.beliefs import FLOAT_TOL, OrderColumns, PathViolation, path_bounds
from uncertain_objectives.errors import BoundsTooLargeError
from uncertain_objectives.populations import (
    EMPTY_POPULATION,
    SwfKind,
    World,
    swf_order,
    total_welfare,
)
from uncertain_objectives.simplex import LpResult, solve_lp

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
# The interpreter's integer-string digit limit (0: none, as before Python
# 3.10.7); the tests of numbers past it need one.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this interpreter has no integer-string digit limit"
)


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


def sorted_dominates(a: Population, b: Population, strict: bool) -> bool:
    """Sorted pointwise dominance by expansion: equal sizes, and the i-th
    worst of ``a`` above the i-th worst of ``b`` (or not below, when not
    ``strict``) for every i."""
    expand = lambda p: sorted(level for level, count in p.groups for _ in range(count))
    ea, eb = expand(a), expand(b)
    beats = (lambda x, y: x > y) if strict else (lambda x, y: x >= y)
    return len(ea) == len(eb) and all(beats(x, y) for x, y in zip(ea, eb))


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


def reference_validate_partial_order(po):
    """The law checks by name over every world pair and triple, in
    itertools order: the definition ``validate_partial_order`` must match."""
    from uncertain_objectives import Verdict
    from uncertain_objectives.constraints import LawViolation

    out = []
    for a in po.worlds:
        if po.verdict(a, a) is not Verdict.EQUAL:
            out.append(LawViolation("reflexivity", (a,), f"verdict({a},{a}) must be EQUAL"))
    for a, b in itertools.combinations(po.worlds, 2):
        v = po.verdict(a, b)
        w = po.verdict(b, a)
        if w is not v.flipped():
            law = "incomparable-symmetry" if Verdict.INCOMPARABLE in (v, w) else "antisymmetry"
            out.append(
                LawViolation(law, (a, b), f"verdict({a},{b})={v.value} but verdict({b},{a})={w.value}")
            )
    for a, b, c in itertools.permutations(po.worlds, 3):
        if po.leq(a, b) and po.leq(b, c) and not po.leq(a, c):
            out.append(
                LawViolation(
                    "transitivity",
                    (a, b, c),
                    f"{a}<={b} and {b}<={c} but verdict({a},{c})={po.verdict(a, c).value}",
                )
            )
    return out


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
    """The path scan the library used before its pruned scan, kept as an
    oracle: every simple path, one ``Fraction`` bound per path on exact
    matrices, and on float ones, each length's permutations at once, their
    steps summed left to right as ``path_bounds`` sums them."""
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
    z = np.array(m.z)
    for k in range(3, limit + 1):
        paths = np.array(list(itertools.permutations(range(n), k)), dtype=np.int64)
        step = z[paths[:, :-1], paths[:, 1:]]
        upper = np.minimum(1.0, np.cumsum(step, axis=1)[:, -1])
        lower = np.maximum(0.0, 1.0 - np.cumsum(1.0 - step, axis=1)[:, -1])
        span = z[paths[:, 0], paths[:, -1]]
        slacks = np.maximum(lower - span, span - upper)
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
# simplex, kept as an oracle: one tableau column per variable, so it only
# runs on explicit matrices.  It follows the library's pivot rule (Dantzig's
# entering rule; in phase 2, an artificial left basic by phase 1 leaves on
# any nonzero entry; otherwise the lexicographic ratio test against the
# basis the segment started from), and the library's solver must reproduce
# its status, x, objective, certificate and pivot count exactly.

_ZERO = Fraction(0)
_ONE = Fraction(1)
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

    def lex_less(i, k, enter, start):
        """Whether tableau row i restricted to the columns of ``start`` and
        divided by its entry in ``enter`` lexicographically precedes row k's."""
        for j in start:
            x = tableau[i][j] / tableau[i][enter]
            y = tableau[k][j] / tableau[k][enter]
            if x != y:
                return x < y

    def run_phase(cost, blocked):
        nonlocal pivots
        start = basis[:]
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
        while True:
            enter = -1
            best = _ZERO
            for j in range(ncols):
                if j in blocked:
                    continue
                if red[j] < best:
                    best = red[j]
                    enter = j
            if enter < 0:
                return "optimal", red, -z
            # A blocked artificial still basic (at zero) leaves first, on
            # any nonzero entry; a new lexicographic segment starts after.
            leave = next((i for i in range(m) if tableau[i][enter] and basis[i] in blocked), -1)
            restart = leave >= 0
            if not restart:
                best_ratio = None
                for i in range(m):
                    a = tableau[i][enter]
                    if a > 0:
                        ratio = b[i] / a
                        if (
                            best_ratio is None
                            or ratio < best_ratio
                            or (ratio == best_ratio and lex_less(i, leave, enter, start))
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
            if restart:
                start = basis[:]

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


def minimax_lp(spec, solve=solve_lp) -> tuple[Fraction, OrderDistribution]:
    """The minimax bound of an n-cycle solved as an exact LP by ``solve``: the
    optimum and its witness, the LP's support over the cycle's worlds.

    min t over distributions on all n! orders (priced implicitly) subject to
    P(violate C_i) - t <= 0 for every constraint, with total mass 1.  This
    is the formulation ``minimax_cycle_bound`` solved before its closed form.
    """
    n = spec.n
    idx = {w: i for i, w in enumerate(spec.worlds)}
    # Constraint i's row counts the orders ranking its worse world above its
    # better one, minus t; the last row is the total mass.
    rows = [(idx[worse], idx[better]) for better, worse in spec.constraint_pairs()]
    res = solve(
        c=[_ONE],
        a_ub=[[-_ONE] for _ in rows],
        b_ub=[_ZERO] * n,
        a_eq=[[_ZERO]],
        b_eq=[_ONE],
        implicit=OrderColumns(n, rows + [None]),
    )
    assert res.status == "optimal"
    return res.objective, OrderDistribution(
        orders=[tuple(spec.worlds[i] for i in o) for o, _ in res.support],
        probs=[p for _, p in res.support],
    )


# ---------------------------------------------------------------------------
# Reference audits
# ---------------------------------------------------------------------------
# The per-axiom bounded audits the library used before its table-driven
# driver, kept verbatim as an oracle: one hand-written search per axiom, the
# premise restated as loop filters and the budget as a formula over the
# loops.  The library's audits must return the same first witness (or None,
# or the same error type) on every grid whose budget does not bind.

def reference_audit_swf(swf, axiom, bounds):
    return _AUDITS[axiom](swf, bounds)


def _pop_space(levels: tuple[Fraction, ...], bounds: SearchBounds, min_groups: int = 1) -> int:
    return sum(
        comb(len(levels), k) * bounds.max_count**k
        for k in range(min_groups, bounds.max_groups + 1)
    )


def _populations(
    levels: Iterable[Fraction], bounds: SearchBounds, min_groups: int = 1
) -> Iterator[Population]:
    """All populations over the level subset, lexicographic: group count,
    then level combination, then per-group counts (each ascending)."""
    levels = tuple(levels)
    for k in range(min_groups, bounds.max_groups + 1):
        for combo in itertools.combinations(levels, k):
            for counts in itertools.product(range(1, bounds.max_count + 1), repeat=k):
                yield Population(zip(combo, counts))



def _check_budget(estimate: int, bounds: SearchBounds):
    if estimate > bounds.budget:
        raise BoundsTooLargeError(estimate, bounds.budget)


def _first_violation(instances: Iterator[AxiomInstance], swf: SwfKind, axiom: AxiomId, note=""):
    order = swf_order(swf)
    for inst in instances:
        if check_instance(inst, order) is CheckResult.VIOLATED:
            worse = inst.world(inst.claim_worse)
            better = inst.world(inst.claim_better)
            return ViolationWitness(
                swf=swf, axiom=axiom, instance=inst, observed=order(worse, better), note=note
            )
    return None


def _audit_avoid_repugnant(swf, bounds):
    vh, vl = bounds.eff_very_high(), bounds.eff_very_low()
    hi_levels = tuple(l for l in bounds.levels if l >= vh)
    lo_levels = tuple(l for l in bounds.levels if 0 < l <= vl)
    _check_budget(_pop_space(hi_levels, bounds) * _pop_space(lo_levels, bounds), bounds)

    def instances():
        for a in _populations(hi_levels, bounds):
            for z in _populations(lo_levels, bounds):
                if z.size > a.size:
                    yield avoid_repugnant_instance(World("a", a), World("z", z), vh, vl)

    return _first_violation(instances(), swf, AxiomId.AVOID_REPUGNANT)


def _audit_avoid_sadistic(swf, bounds):
    vh = bounds.eff_very_high()
    tm = bounds.eff_torture_max()
    hi_levels = tuple(l for l in bounds.levels if l >= vh)
    torture_levels = tuple(l for l in bounds.levels if l <= tm)
    pos_levels = tuple(l for l in bounds.levels if l > 0)
    bases = [bounds.base] if bounds.base is not None else None
    base_space = 1 if bases else _pop_space(hi_levels, bounds)
    _check_budget(
        base_space * _pop_space(torture_levels, bounds) * _pop_space(pos_levels, bounds),
        bounds,
    )

    def instances():
        base_stream = bases if bases else _populations(hi_levels, bounds)
        for b in base_stream:
            for t in _populations(torture_levels, bounds):
                for p in _populations(pos_levels, bounds):
                    if t.size < p.size:
                        yield avoid_sadistic_instance(b, t, p, vh, tm)

    return _first_violation(instances(), swf, AxiomId.AVOID_SADISTIC)


def _audit_avoid_very_anti_egalitarian(swf, bounds):
    uniform_space = len(bounds.levels) * bounds.max_count
    _check_budget(uniform_space * _pop_space(bounds.levels, bounds, min_groups=2), bounds)

    def instances():
        for level in bounds.levels:
            for count in range(2, bounds.max_count + 1):
                a = Population([(level, count)])
                for b in _populations(bounds.levels, bounds, min_groups=2):
                    if b.size == a.size and total_welfare(b) < total_welfare(a):
                        yield avoid_very_anti_egalitarian_instance(World("a", a), World("b", b))

    return _first_violation(instances(), swf, AxiomId.AVOID_VERY_ANTI_EGALITARIAN)


def _audit_dominance(swf, bounds):
    space = _pop_space(bounds.levels, bounds)
    _check_budget(space * space, bounds)

    def instances():
        for a in _populations(bounds.levels, bounds):
            for b in _populations(bounds.levels, bounds):
                if a.size == b.size and a.dominates(b, strict=True):
                    yield dominance_instance(World("a", a), World("b", b))

    return _first_violation(instances(), swf, AxiomId.DOMINANCE)


def _audit_egalitarian_dominance(swf, bounds):
    uniform_space = len(bounds.levels) * bounds.max_count
    _check_budget(uniform_space * _pop_space(bounds.levels, bounds), bounds)

    def instances():
        for level in bounds.levels:
            for count in range(1, bounds.max_count + 1):
                a = Population([(level, count)])
                for b in _populations(bounds.levels, bounds):
                    if b.size == count and b.hi < level:
                        yield egalitarian_dominance_instance(World("a", a), World("b", b))

    return _first_violation(instances(), swf, AxiomId.EGALITARIAN_DOMINANCE)


def _audit_dominance_addition(swf, bounds):
    pos_levels = tuple(l for l in bounds.levels if l > 0)
    space = _pop_space(bounds.levels, bounds)
    _check_budget(space * space * _pop_space(pos_levels, bounds), bounds)

    def instances():
        for a in _populations(bounds.levels, bounds):
            for raised in _populations(bounds.levels, bounds):
                if raised.size != a.size or not raised.dominates(a, strict=False):
                    continue
                for added in _populations(pos_levels, bounds):
                    yield dominance_addition_instance(
                        World("a", a), raised, added,
                        augmented=World("a_plus", raised | added),
                    )

    return _first_violation(instances(), swf, AxiomId.DOMINANCE_ADDITION)


def _audit_inequality_aversion(swf, bounds):
    n_levels = len(bounds.levels)
    _check_budget(
        comb(n_levels, 2) * bounds.max_count**2 * n_levels, bounds
    )

    def instances():
        for a_level, c_level in itertools.combinations(reversed(bounds.levels), 2):
            for a_count in range(1, bounds.max_count + 1):
                for c_count in range(a_count + 1, bounds.max_count + 1):
                    mixed = Population([(a_level, a_count), (c_level, c_count)])
                    for b_level in bounds.levels:
                        if c_level < b_level < a_level:
                            equal = Population([(b_level, a_count + c_count)])
                            yield inequality_aversion_instance(
                                World("mixed", mixed), World("equal", equal)
                            )

    return _first_violation(instances(), swf, AxiomId.INEQUALITY_AVERSION)


def _audit_addition(swf, bounds):
    space = _pop_space(bounds.levels, bounds)
    _check_budget(space**3, bounds)

    def instances():
        for a in _populations(bounds.levels, bounds):
            for b in _populations(bounds.levels, bounds):
                if b.hi >= a.lo:
                    continue
                for c in _populations(bounds.levels, bounds):
                    if c.size > b.size and c.hi < b.lo:
                        yield addition_instance(World("a", a), b, c)

    return _first_violation(instances(), swf, AxiomId.ADDITION)


def _audit_quality(swf, bounds):
    vh, vl = bounds.eff_very_high(), bounds.eff_very_low()
    hi_levels = tuple(l for l in bounds.levels if l >= vh)
    lo_levels = tuple(l for l in bounds.levels if 0 < l <= vl)
    hi_space = len(hi_levels) * bounds.max_count
    _check_budget(hi_space * _pop_space(lo_levels, bounds), bounds)
    order = swf_order(swf)
    first_witness = None
    candidates = 0
    for level in hi_levels:
        for count in range(1, bounds.max_count + 1):
            candidates += 1
            high = World("a", Population([(level, count)]))
            beaten = None
            for low_pop in _populations(lo_levels, bounds):
                inst = quality_instance(high, World("z", low_pop), vh, vl)
                if check_instance(inst, order) is CheckResult.VIOLATED:
                    beaten = inst
                    break
            if beaten is None:
                return None  # this candidate survives, so the axiom holds here
            if first_witness is None:
                first_witness = beaten
    if first_witness is None:
        return None
    worse = first_witness.world(first_witness.claim_worse)
    better = first_witness.world(first_witness.claim_better)
    return ViolationWitness(
        swf=swf,
        axiom=AxiomId.QUALITY,
        instance=first_witness,
        observed=order(worse, better),
        note=(
            f"all {candidates} perfectly equal very-high candidates in the grid are "
            "beaten by some very-low-positive population (bounded claim)"
        ),
    )


def _audit_priority_compensation(swf, bounds):
    vh, vl = bounds.eff_very_high(), bounds.eff_very_low()
    base = bounds.base if bounds.base is not None else EMPTY_POPULATION
    low_levels = tuple(l for l in bounds.levels if 0 < l <= vl)
    neg_levels = tuple(l for l in bounds.levels if l < 0)
    hi_levels = tuple(l for l in bounds.levels if l >= vh)
    _check_budget(
        len(low_levels) * len(neg_levels) * len(hi_levels) * bounds.max_count, bounds
    )
    order = swf_order(swf)
    for low in low_levels:
        for neg in neg_levels:
            for high in hi_levels:
                all_fail = True
                last = None
                for count in range(1, bounds.max_count + 1):
                    inst = priority_compensation_instance(
                        base, low, neg, high, count, vh, vl
                    )
                    if check_instance(inst, order) is not CheckResult.VIOLATED:
                        all_fail = False
                        break
                    last = inst
                if all_fail and last is not None:
                    worse = last.world(last.claim_worse)
                    better = last.world(last.claim_better)
                    return ViolationWitness(
                        swf=swf,
                        axiom=AxiomId.PRIORITY_COMPENSATION,
                        instance=last,
                        observed=order(worse, better),
                        note=(
                            f"no count up to {bounds.max_count} compensates the drop "
                            f"from {low} to {neg} (bounded claim)"
                        ),
                    )
    return None


_AUDITS = {
    AxiomId.QUALITY: _audit_quality,
    AxiomId.INEQUALITY_AVERSION: _audit_inequality_aversion,
    AxiomId.EGALITARIAN_DOMINANCE: _audit_egalitarian_dominance,
    AxiomId.DOMINANCE_ADDITION: _audit_dominance_addition,
    AxiomId.AVOID_REPUGNANT: _audit_avoid_repugnant,
    AxiomId.AVOID_SADISTIC: _audit_avoid_sadistic,
    AxiomId.AVOID_VERY_ANTI_EGALITARIAN: _audit_avoid_very_anti_egalitarian,
    AxiomId.DOMINANCE: _audit_dominance,
    AxiomId.ADDITION: _audit_addition,
    AxiomId.PRIORITY_COMPENSATION: _audit_priority_compensation,
}
