"""Workload ``patterns``: seeded cyclic constraint graphs through the pattern search.

Each graph has 6-10 worlds and 10-24 edges, built as k vertex-disjoint
directed cycles plus acyclic "forward" edges between blocks (cycles and
single worlds in a hidden order).  Every cycle must lose at least two of its
own edges and forward edges never need to go, so the minimum pattern size
is exactly 2k and the minimal patterns up to that size are known; the
checks compare against these facts and against a reference validity test.

The search cost is set by the edge count and 2k alone (sum of C(E, s) for
s <= 2k), so a fixed list of (worlds, k, edges) classes per round gives
every seed the same amount of work, while the seed picks the cycle lengths,
names, edges and edge order.

Three probes that fail at the seed run once per run, untimed, after the
measured loop: a 10-world, 24-edge ``min_uncertainty_size`` past its subset
budget, ``find_cycle`` on a 1500-world cycle, and
``valid_uncertainty_patterns`` on a 64-world cycle.
"""

from __future__ import annotations

import itertools
import random
from math import comb

from uncertain_objectives import Verdict, constraints

from common import Probe, Task, Workload, expect, pattern_valid_ref, reach_sets, spread_evenly

# (worlds, cycles k, edges, graphs per round).  A round has 225 tasks, so
# the p95 tail is the 12th slowest: it falls in the middle of the fourteen
# searches of ~150 ms (both searches on the six 10-world/22-edge graphs, the
# minimum-size search on the two 9-world/3-cycle graphs), below the four
# slower ones and well above the ~70 ms searches on 9-world/2-cycle graphs.
PLAN = [
    (6, 1, 10, 8),
    (7, 1, 12, 8),
    (8, 1, 16, 6),
    (10, 1, 24, 3),
    (8, 2, 14, 6),
    (9, 2, 18, 5),
    (10, 2, 22, 6),
    (9, 3, 16, 2),
    (10, 3, 18, 1),
]
CAP = 4  # pattern-size cap for valid_uncertainty_patterns


class Graph:
    """A generated graph with the structure its checks rely on."""

    def __init__(self, rng, n_worlds, k, n_edges, pair_cycles=False):
        names = [f"v{i}" for i in range(n_worlds)]
        rng.shuffle(names)
        lengths = [2] * k if pair_cycles else self._cycle_lengths(rng, n_worlds, k, n_edges)
        blocks, pos = [], 0
        for length in lengths:
            blocks.append(names[pos : pos + length])
            pos += length
        blocks += [[w] for w in names[pos:]]
        rng.shuffle(blocks)
        cycles = [b for b in blocks if len(b) >= 2]
        edges, cycle_edges = [], []
        for b in cycles:
            ce = [(b[i], b[(i + 1) % len(b)]) for i in range(len(b))]
            cycle_edges.append(set(ce))
            edges += ce
        forward = [
            (u, v)
            for i, j in itertools.combinations(range(len(blocks)), 2)
            for u in blocks[i]
            for v in blocks[j]
        ]
        edges += rng.sample(forward, n_edges - len(edges))
        rng.shuffle(edges)
        self.worlds = tuple(sorted(names))
        self.graph = constraints.ConstraintGraph.from_edges(
            [(u, v, f"C{i + 1}") for i, (u, v) in enumerate(edges)], self.worlds
        )
        self.k = len(cycles)
        index = {e: i for i, e in enumerate(edges)}
        self.cycles = [sorted(index[e] for e in ce) for ce in cycle_edges]
        self.cycle_lengths = [len(c) for c in cycles]
        # A known valid pattern: two edges from every cycle.
        self.known_pattern = sorted(i for c in self.cycles for i in rng.sample(c, 2))
        idx = {w: i for i, w in enumerate(self.worlds)}
        self.index_edges = [(idx[u], idx[v]) for u, v in edges]

    @staticmethod
    def _cycle_lengths(rng, n_worlds, k, n_edges):
        """Cycle lengths (each >= 3) leaving room for the forward edges."""
        while True:
            lengths = [rng.randint(3, n_worlds - 3 * (k - 1)) for _ in range(k)]
            if sum(lengths) > n_worlds:
                continue
            sizes = lengths + [1] * (n_worlds - sum(lengths))
            capacity = sum(a * b for a, b in itertools.combinations(sizes, 2))
            if sum(lengths) <= n_edges <= sum(lengths) + capacity:
                return lengths

    def valid(self, removed) -> bool:
        return pattern_valid_ref(len(self.worlds), self.index_edges, removed)

    def expected_minimal(self, cap):
        if 2 * self.k > cap:
            return 0
        out = 1
        for length in self.cycle_lengths:
            out *= comb(length, 2)
        return out


def _graph_tasks(g: Graph, slot: str) -> list[Task]:
    graph = g.graph

    def check_cycle(cert, ctx):
        expect(cert is not None, "cyclic graph reported acyclic")
        idx = [graph.edges.index(e) for e in cert.edges]
        expect(sorted(idx) in g.cycles, "certificate is not one of the graph's cycles")

    def check_patterns(pats, ctx):
        expect(len(pats) == g.expected_minimal(CAP), "wrong number of minimal patterns")
        for p in pats:
            expect(constraints.pattern_is_valid(graph, p), "pattern fails pattern_is_valid")
            expect(g.valid(p.edge_indices), "pattern fails the reference validity test")
            for r in range(len(p.edge_indices)):
                for sub in itertools.combinations(p.edge_indices, r):
                    expect(not g.valid(sub), "pattern is not inclusion-minimal")
        if pats:
            expect(min(len(p) for p in pats) == 2 * g.k, "smallest pattern is not 2k")

    def check_min(size, ctx):
        expect(size >= 2, "cyclic graph with minimum pattern size below 2")
        expect(size == 2 * g.k, f"minimum pattern size {size} != {2 * g.k}")

    pattern = constraints.UncertaintyPattern(g.known_pattern)

    def check_order(po, ctx):
        removed = set(g.known_pattern)
        reach = reach_sets(
            len(g.worlds), [e for i, e in enumerate(g.index_edges) if i not in removed]
        )
        for i, a in enumerate(g.worlds):
            for j, b in enumerate(g.worlds):
                if i == j:
                    want = Verdict.EQUAL
                elif j in reach[i]:
                    want = Verdict.LESS
                elif i in reach[j]:
                    want = Verdict.GREATER
                else:
                    want = Verdict.INCOMPARABLE
                expect(po.verdict(a, b) is want, "induced partial order differs from closure")
        ctx[slot] = po

    def check_laws(violations, ctx):
        expect(violations == [], "induced partial order breaks an order law")

    return [
        Task("find_cycle", lambda ctx: constraints.find_cycle(graph), check_cycle),
        Task("valid_patterns", lambda ctx: constraints.valid_uncertainty_patterns(graph, CAP),
             check_patterns),
        Task("min_size", lambda ctx: constraints.min_uncertainty_size(graph), check_min),
        Task("partial_order", lambda ctx: constraints.partial_order_from(graph, pattern),
             check_order),
        Task("validate_order", lambda ctx: constraints.validate_partial_order(ctx[slot]),
             check_laws),
    ]


def _cycle_graph(n):
    worlds = [f"x{i}" for i in range(n)]
    return constraints.ConstraintGraph.from_edges(
        [(worlds[i], worlds[(i + 1) % n], f"C{i + 1}") for i in range(n)], worlds
    )


def _probes(rng) -> list[Probe]:
    budget = Graph(rng, 10, 5, 24, pair_cycles=True)

    def check_budget(size):
        expect(size == 10, f"minimum pattern size {size} != 10")

    ring = _cycle_graph(1500)

    def check_ring(cert):
        expect(cert is not None and len(cert) == 1500, "1500-world cycle not found")

    wide = _cycle_graph(64)

    def check_wide(pats):
        expect(len(pats) == comb(64, 2), "64-world cycle: wrong number of patterns")

    return [
        Probe("min_size_10w_24e", "BudgetExceededError",
              lambda: constraints.min_uncertainty_size(budget.graph), check_budget),
        Probe("find_cycle_1500w", "RecursionError",
              lambda: constraints.find_cycle(ring), check_ring),
        Probe("patterns_64w", "OverflowError",
              lambda: constraints.valid_uncertainty_patterns(wide, 2), check_wide),
    ]


def build(seed: int) -> Workload:
    rng = random.Random(f"patterns:{seed}")
    classes = []
    slot = 0
    for n_worlds, k, n_edges, count in PLAN:
        groups = []
        for _ in range(count):
            slot += 1
            groups.append(_graph_tasks(Graph(rng, n_worlds, k, n_edges), f"po{slot}"))
        classes.append(groups)
    round_ = spread_evenly(rng, classes)
    warmup = _graph_tasks(Graph(rng, 6, 1, 10), "po0")
    return Workload(round=round_, warmup=warmup, probes=_probes(rng))
