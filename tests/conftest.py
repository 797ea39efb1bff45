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

import pytest

from uncertain_objectives import ConstraintGraph, OrderDistribution, Population

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


def reference_path_slacks(z, paths) -> list[float]:
    """Chained-bound violation slack per path, by a plain scalar loop."""
    out = []
    for path in paths:
        steps = [z[a][b] for a, b in zip(path, path[1:])]
        upper = min(1.0, sum(steps))
        lower = max(0.0, 1.0 - sum(1.0 - s for s in steps))
        span = z[path[0]][path[-1]]
        out.append(max(lower - span, span - upper))
    return out
