import itertools
import math
import random
import tracemalloc

import pytest

from uncertain_objectives import (
    ConstraintGraph,
    Edge,
    ImpossibilityCertificate,
    PartialOrder,
    UncertaintyPattern,
    Verdict,
    find_cycle,
    min_uncertainty_size,
    partial_order_from,
    pattern_is_valid,
    shortest_cycle,
    valid_uncertainty_patterns,
    validate_partial_order,
)
from uncertain_objectives.errors import (
    BudgetExceededError,
    InvalidPatternError,
    InvalidValueError,
    WorldLimitError,
)
from uncertain_objectives import constraints
from uncertain_objectives.axioms import build_cycle, second_theorem_cycle

from conftest import (
    random_graph,
    reference_minimal_patterns,
    reference_pattern_valid,
    reference_smallest_cycle,
    reference_validate_partial_order,
)


def random_cyclic_graph(rng: random.Random, n_worlds: int, n_edges: int) -> ConstraintGraph:
    """A graph with a cycle whose edges often repeat an earlier edge
    (parallel) or reverse one (antiparallel)."""
    worlds = tuple(f"n{i}" for i in range(n_worlds))
    while True:
        pairs = []
        for _ in range(n_edges):
            if pairs and rng.random() < 0.3:
                u, v = rng.choice(pairs)
                pairs.append((u, v) if rng.random() < 0.5 else (v, u))
            else:
                pairs.append(tuple(rng.sample(worlds, 2)))
        g = ConstraintGraph.from_edges(
            [(u, v, f"E{i}") for i, (u, v) in enumerate(pairs)], worlds=worlds
        )
        if find_cycle(g) is not None:
            return g


def few_back_edges_graph(rng: random.Random, n_worlds: int, n_edges: int) -> ConstraintGraph:
    """A cyclic graph whose edges mostly point up the world order: a few
    point down, and a few repeat or reverse an earlier edge."""
    worlds = tuple(f"n{i}" for i in range(n_worlds))
    while True:
        pairs = []
        for _ in range(n_edges):
            r = rng.random()
            if pairs and r < 0.1:
                u, v = rng.choice(pairs)
                pairs.append((u, v) if rng.random() < 0.6 else (v, u))
            else:
                a, b = sorted(rng.sample(worlds, 2))
                pairs.append((a, b) if r < 0.97 else (b, a))
        g = ConstraintGraph.from_edges(
            [(u, v, f"E{i}") for i, (u, v) in enumerate(pairs)], worlds=worlds
        )
        if find_cycle(g) is not None:
            return g


def cycle_graph(n: int) -> ConstraintGraph:
    return ConstraintGraph.from_edges(
        [(f"w{i + 1}", f"w{(i + 1) % n + 1}", f"C{i + 1}") for i in range(n)]
    )


def tournament(n: int) -> ConstraintGraph:
    """A random tournament: each pair of worlds i < j gets one edge, whose
    direction a ``random.Random(n)`` draw picks, labelled C1.. in order."""
    rng = random.Random(n)
    pairs = [
        (f"w{i}", f"w{j}") if rng.random() < 0.5 else (f"w{j}", f"w{i}")
        for i, j in itertools.combinations(range(n), 2)
    ]
    return ConstraintGraph.from_edges([(u, v, f"C{k + 1}") for k, (u, v) in enumerate(pairs)])


def blocks_graph(rng: random.Random, block_sizes, n_forward: int) -> ConstraintGraph:
    """Blocks of worlds in a hidden order: each block of 2 or more worlds is
    a directed cycle (a block of 2 is a pair of antiparallel edges), and
    ``n_forward`` edges point from earlier blocks to later ones, so every
    such block is its own cyclic strongly connected component.  A block of
    3 or more may also get a chord, and a block of 2 or more a parallel copy
    of one of its edges."""
    names = [f"v{i}" for i in range(sum(block_sizes))]
    rng.shuffle(names)
    blocks, pos = [], 0
    for size in block_sizes:
        blocks.append(names[pos : pos + size])
        pos += size
    pairs = []
    for b in blocks:
        if len(b) < 2:
            continue
        ring = [(b[i], b[(i + 1) % len(b)]) for i in range(len(b))]
        if len(b) >= 3 and rng.random() < 0.5:
            ring.append((b[0], b[2]))
        if rng.random() < 0.5:
            ring.append(rng.choice(ring))
        pairs += ring
    forward = [
        (u, v) for i, j in itertools.combinations(range(len(blocks)), 2)
        for u in blocks[i] for v in blocks[j]
    ]
    pairs += rng.sample(forward, min(n_forward, len(forward)))
    rng.shuffle(pairs)
    return ConstraintGraph.from_edges(
        [(u, v, f"E{i}") for i, (u, v) in enumerate(pairs)], worlds=tuple(sorted(names))
    )


# A 3-cycle and a 4-cycle, joined by two forward edges.
TWO_COMPONENTS = ConstraintGraph.from_edges(
    [
        ("a", "b", "C1"), ("b", "c", "C2"), ("c", "a", "C3"),
        ("x", "y", "D1"), ("y", "z", "D2"), ("z", "w", "D3"), ("w", "x", "D4"),
        ("a", "x", "F1"), ("c", "z", "F2"),
    ]
)
# Two 3-cycles joined by a forward edge, a 2-cycle of antiparallel edges,
# and three forward edges into a single world, in mixed order.
THREE_COMPONENTS = ConstraintGraph.from_edges(
    [
        ("v7", "v2"), ("v1", "v5"), ("v6", "v1"), ("v8", "v0"), ("v5", "v6"), ("v4", "v7"),
        ("v1", "v2"), ("v1", "v3"), ("v4", "v3"), ("v2", "v4"), ("v6", "v3"), ("v0", "v8"),
    ]
)
THREE_CYCLE = cycle_graph(3)
CHAIN = ConstraintGraph.from_edges([("w1", "w2", "C1"), ("w2", "w3", "C2")])


class TestGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            ConstraintGraph.from_edges([("a", "a", "C1")])

    def test_rejects_dangling_edges(self):
        with pytest.raises(ValueError):
            ConstraintGraph(("a",), (Edge("a", "b", "C1"),))

    def test_parallel_edges_with_distinct_labels(self):
        g = ConstraintGraph.from_edges([("a", "b", "C1"), ("a", "b", "C2")])
        assert len(g.edges) == 2

    def test_rejects_duplicate_world_ids(self):
        with pytest.raises(InvalidValueError, match="duplicate world id 'a'"):
            ConstraintGraph(("a", "b", "a"), ())

    def test_certificate_needs_two_edges(self):
        with pytest.raises(InvalidValueError, match="at least 2 edges"):
            ImpossibilityCertificate((Edge("a", "b", "C1"),))


class TestFindCycle:
    def test_three_cycle(self):
        cert = find_cycle(THREE_CYCLE)
        assert cert is not None
        assert cert.labels == ("C1", "C2", "C3")
        assert cert.worlds == ("w1", "w2", "w3")

    def test_chain_is_acyclic(self):
        assert find_cycle(CHAIN) is None

    def test_two_overlapping_cycles_smallest_and_stable(self):
        # Two cycles sharing the edge a->b: indices (0,1) form the smaller
        # certificate; rerunning returns exactly the same object value.
        g = ConstraintGraph.from_edges(
            [
                ("a", "b", "E0"),
                ("b", "a", "E1"),
                ("b", "c", "E2"),
                ("c", "d", "E3"),
                ("d", "a", "E4"),
            ]
        )
        first = find_cycle(g)
        assert first.labels == ("E0", "E1")
        assert find_cycle(g) == first

    def test_certificate_requires_consecutive_edges(self):
        with pytest.raises(ValueError):
            ImpossibilityCertificate((Edge("a", "b", "C1"), Edge("c", "a", "C2")))

    def test_two_cycle_certificate(self):
        g = ConstraintGraph.from_edges([("a", "b", "C1"), ("b", "a", "C2")])
        cert = find_cycle(g)
        assert len(cert) == 2

    def test_long_cycle_has_no_depth_limit(self):
        cert = find_cycle(cycle_graph(1500))
        assert cert.labels == tuple(f"C{i + 1}" for i in range(1500))

    def test_complete_dag_is_acyclic(self):
        # Edges in lexicographic order lead every start edge into the dense
        # rest of the graph, where a search over simple paths blows up.
        worlds = tuple(f"w{i}" for i in range(40))
        g = ConstraintGraph.from_edges(itertools.combinations(worlds, 2), worlds=worlds)
        assert find_cycle(g) is None

    def test_shuffled_dag_with_one_back_edge(self):
        rng = random.Random(60)
        worlds = [f"w{i}" for i in range(60)]
        rng.shuffle(worlds)
        pairs = [p for p in itertools.combinations(worlds, 2) if rng.random() < 0.2]
        rng.shuffle(pairs)
        back = (worlds[45], worlds[5])
        pairs.insert(rng.randrange(len(pairs)), back)
        g = ConstraintGraph.from_edges(pairs, worlds=tuple(worlds))
        cert = find_cycle(g)
        assert cert is not None
        assert (back[0], back[1]) in [(e.worse, e.better) for e in cert.edges]
        assert all(e in g.edges for e in cert.edges)
        assert len(set(cert.worlds)) == len(cert)

    def test_smallest_cycle_matches_brute_force(self):
        rng = random.Random(1729)
        seen_cyclic = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(2, 5), rng.randint(1, 12))
            cert = find_cycle(g)
            got = None if cert is None else [g.edges.index(e) for e in cert.edges]
            assert got == reference_smallest_cycle(g)
            seen_cyclic += cert is not None
        assert seen_cyclic > 100


def brute_force_girth(g: ConstraintGraph):
    """The fewest worlds on a directed cycle, by trying every sequence of
    distinct worlds; None when there is none."""
    arcs = {(e.worse, e.better) for e in g.edges}
    for k in range(2, len(g.worlds) + 1):
        for seq in itertools.permutations(g.worlds, k):
            if all((a, b) in arcs for a, b in zip(seq, seq[1:] + seq[:1])):
                return k
    return None


class TestShortestCycle:
    def test_length_is_the_girth(self):
        rng = random.Random(2718)
        seen_longer = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 14))
            cert = shortest_cycle(g)
            first = find_cycle(g)
            assert (cert is None) == (first is None)
            assert (None if cert is None else len(cert)) == brute_force_girth(g)
            if cert is not None:
                indices = [g.edges.index(e) for e in cert.edges]
                assert indices[0] == min(indices)
                assert len(set(cert.worlds)) == len(cert)
                assert len(cert) <= len(first)
                seen_longer += len(cert) < len(first)
        assert seen_longer > 0

    def test_tournament_has_a_three_cycle(self):
        for n in (10, 16):
            assert len(find_cycle(tournament(n))) > 3
            assert len(shortest_cycle(tournament(n))) == 3

    def test_two_cycle_among_longer_ones(self):
        g = ConstraintGraph.from_edges(
            [("a", "b", "E0"), ("b", "c", "E1"), ("c", "a", "E2"),
             ("c", "d", "E3"), ("d", "c", "E4")]
        )
        assert find_cycle(g).labels == ("E0", "E1", "E2")
        assert shortest_cycle(g).labels == ("E3", "E4")

    def test_acyclic(self):
        assert shortest_cycle(CHAIN) is None


class TestValidatePartialOrder:
    def test_total_order_table_is_valid(self):
        po = PartialOrder.from_ranking(("a", "b", "c"))
        assert validate_partial_order(po) == []

    def test_transitivity_violation_reported(self):
        po = PartialOrder.from_pairs(
            ("a", "b", "c"),
            {("a", "b"): Verdict.LESS, ("b", "c"): Verdict.LESS,
             ("a", "c"): Verdict.INCOMPARABLE},
        )
        violations = validate_partial_order(po)
        assert any(
            v.law == "transitivity" and v.worlds == ("a", "b", "c") for v in violations
        )

    def test_incomparable_symmetry_violation(self):
        po = PartialOrder.from_pairs(
            ("a", "b"),
            {("a", "b"): Verdict.INCOMPARABLE, ("b", "a"): Verdict.LESS},
        )
        violations = validate_partial_order(po)
        assert any(v.law == "incomparable-symmetry" for v in violations)

    def test_reflexivity_violation(self):
        po = PartialOrder(("a",), ((Verdict.LESS,),))
        assert any(v.law == "reflexivity" for v in validate_partial_order(po))

    def test_antisymmetry_violation(self):
        po = PartialOrder.from_pairs(
            ("a", "b"), {("a", "b"): Verdict.LESS, ("b", "a"): Verdict.LESS}
        )
        assert any(v.law == "antisymmetry" for v in validate_partial_order(po))

    def test_duplicate_worlds_rejected(self):
        with pytest.raises(InvalidValueError, match="duplicate world ids"):
            PartialOrder(("a", "a"), ((Verdict.EQUAL,) * 2,) * 2)

    def test_table_must_be_n_by_n(self):
        with pytest.raises(InvalidValueError, match="n x n"):
            PartialOrder(("a", "b"), ((Verdict.EQUAL, Verdict.LESS),))

    def test_from_pairs_leaves_unmentioned_pairs_incomparable(self):
        po = PartialOrder.from_pairs(("a", "b", "c"), {("a", "b"): Verdict.LESS})
        assert po.verdict("b", "a") is Verdict.GREATER
        assert po.verdict("a", "c") is po.verdict("c", "b") is Verdict.INCOMPARABLE
        assert validate_partial_order(po) == []

    def test_from_pairs_rejects_a_world_outside_the_set(self):
        with pytest.raises(InvalidValueError, match="outside the world set"):
            PartialOrder.from_pairs(("a", "b"), {("a", "z"): Verdict.LESS})

    @pytest.mark.parametrize("n", range(1, 8))
    def test_random_tables_match_reference(self, n):
        # Every law, world tuple, detail and position in the list, on tables
        # of all four verdicts: dense ones break many laws, sparse edits of a
        # ranking break a few.
        rng = random.Random(900 + n)
        verdicts = list(Verdict)
        worlds = tuple(f"x{i}" for i in range(n))
        laws = set()
        for trial in range(60):
            if trial % 2:
                grid = [[rng.choice(verdicts) for _ in worlds] for _ in worlds]
            else:
                ranking = list(worlds)
                rng.shuffle(ranking)
                grid = [list(row) for row in PartialOrder.from_ranking(ranking).table]
                for _ in range(rng.randint(0, 3)):
                    grid[rng.randrange(n)][rng.randrange(n)] = rng.choice(verdicts)
            po = PartialOrder(worlds, tuple(map(tuple, grid)))
            got = validate_partial_order(po)
            assert got == reference_validate_partial_order(po)
            laws.update(v.law for v in got)
        want = ["reflexivity", "antisymmetry", "incomparable-symmetry", "transitivity"]
        assert laws == set(want[: 1 if n == 1 else 3 if n == 2 else 4])

    def test_partial_order_from_outputs_match_reference(self):
        # The outputs validate clean; the same tables with one cell changed
        # must give the reference's list too.
        rng = random.Random(778)
        verdicts = list(Verdict)
        broken = 0
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 8))
            for pattern in valid_uncertainty_patterns(g, len(g.edges), budget=10_000)[:4]:
                po = partial_order_from(g, pattern)
                assert validate_partial_order(po) == reference_validate_partial_order(po) == []
                n = len(po.worlds)
                grid = [list(row) for row in po.table]
                grid[rng.randrange(n)][rng.randrange(n)] = rng.choice(verdicts)
                po = PartialOrder(po.worlds, tuple(map(tuple, grid)))
                got = validate_partial_order(po)
                assert got == reference_validate_partial_order(po)
                broken += bool(got)
        assert broken > 20


class TestPatterns:
    @pytest.mark.parametrize("index", [-1, 3])
    def test_pattern_outside_the_graph_is_refused(self, index):
        g = ConstraintGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(InvalidValueError, match="outside the graph"):
            pattern_is_valid(g, UncertaintyPattern((0, index)))

    def test_three_cycle_patterns_match_exhaustive_oracle(self):
        # All 8 subsets checked against the independent reference validator.
        expected = [
            s
            for size in range(4)
            for s in itertools.combinations(range(3), size)
            if reference_pattern_valid(THREE_CYCLE, s)
            and not any(
                set(t) < set(s)
                for t_size in range(size)
                for t in itertools.combinations(range(3), t_size)
                if reference_pattern_valid(THREE_CYCLE, t)
            )
        ]
        got = [p.edge_indices for p in valid_uncertainty_patterns(THREE_CYCLE, 3)]
        assert got == expected == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("n", range(4, 9))
    def test_pure_cycles_all_two_edge_subsets(self, n):
        g = cycle_graph(n)
        patterns = valid_uncertainty_patterns(g, 2)
        assert [p.edge_indices for p in patterns] == list(
            itertools.combinations(range(n), 2)
        )
        assert not any(len(p) < 2 for p in patterns)

    def test_acyclic_graph_has_the_empty_pattern(self):
        assert [p.edge_indices for p in valid_uncertainty_patterns(CHAIN, 2)] == [()]

    @pytest.mark.parametrize("g", [CHAIN, cycle_graph(3)], ids=["chain", "three_cycle"])
    def test_negative_max_size_is_refused(self, g):
        with pytest.raises(InvalidValueError, match="max_size must be at least 0, got -1"):
            valid_uncertainty_patterns(g, -1)

    def test_min_sizes(self):
        for n in range(3, 9):
            assert min_uncertainty_size(cycle_graph(n)) == 2
        assert min_uncertainty_size(CHAIN) == 0

    def test_two_disjoint_cycles_need_four(self):
        g = ConstraintGraph.from_edges(
            [
                ("a", "b", "C1"), ("b", "c", "C2"), ("c", "a", "C3"),
                ("x", "y", "D1"), ("y", "z", "D2"), ("z", "x", "D3"),
            ]
        )
        assert min_uncertainty_size(g) == 4

    def test_budget_guard(self):
        g = cycle_graph(8)
        with pytest.raises(BudgetExceededError):
            valid_uncertainty_patterns(g, 8, budget=10)

    def test_world_limit_is_a_typed_error(self):
        g = cycle_graph(64)
        with pytest.raises(WorldLimitError, match="64 worlds.*at most 62"):
            valid_uncertainty_patterns(g, 2)
        with pytest.raises(WorldLimitError):  # at the root, before any set is checked
            valid_uncertainty_patterns(g, 64)
        with pytest.raises(WorldLimitError):
            min_uncertainty_size(g)
        assert len(valid_uncertainty_patterns(cycle_graph(62), 2)) == 62 * 61 // 2

    def test_world_limit_comes_before_the_budget(self):
        g = cycle_graph(64)
        with pytest.raises(WorldLimitError):
            valid_uncertainty_patterns(g, 2, budget=10)
        with pytest.raises(WorldLimitError):
            min_uncertainty_size(g, budget=10)

    def test_the_root_decides_before_the_budget(self):
        path = ConstraintGraph.from_edges([(f"w{i}", f"w{i + 1}") for i in range(99)])
        assert len(path.worlds) == 100
        assert valid_uncertainty_patterns(path, budget=0) == [UncertaintyPattern(())]
        assert min_uncertainty_size(path, budget=0) == 0
        assert min_uncertainty_size(ConstraintGraph(("a", "b"), ())) == 0
        with pytest.raises(WorldLimitError):
            valid_uncertainty_patterns(cycle_graph(64), budget=0)
        with pytest.raises(WorldLimitError):
            min_uncertainty_size(cycle_graph(64), budget=0)

    @pytest.mark.parametrize(
        "graph,max_size,budget",
        [
            (cycle_graph(8), 2, 37),
            (cycle_graph(8), None, 10),
            (build_cycle(second_theorem_cycle()), 4, 11),
            (build_cycle(second_theorem_cycle()), None, 6),
            (tournament(8), None, 2286),
            (TWO_COMPONENTS, 4, 18),
            (TWO_COMPONENTS, None, 11),
            (THREE_COMPONENTS, 6, 18),
            (THREE_COMPONENTS, None, 13),
        ],
        ids=["cycle8-patterns", "cycle8-min", "second-theorem-patterns",
             "second-theorem-min", "tournament8-min", "two-components-patterns",
             "two-components-min", "three-components-patterns", "three-components-min"],
    )
    def test_smallest_sufficient_budget(self, graph, max_size, budget):
        # Each search checks exactly this many sets, so it finishes under
        # ``budget`` and is refused under one less.
        def search(b):
            if max_size is None:
                return min_uncertainty_size(graph, budget=b)
            return valid_uncertainty_patterns(graph, max_size, budget=b)

        search(budget)
        with pytest.raises(BudgetExceededError):
            search(budget - 1)

    def test_components_that_cannot_all_lose_two_edges_check_nothing(self):
        # Three cyclic components need at least 6 edges; below 2 * (3 - 1)
        # the answer is empty before any set is checked.
        assert valid_uncertainty_patterns(THREE_COMPONENTS, 3, budget=0) == []
        with pytest.raises(BudgetExceededError):
            valid_uncertainty_patterns(THREE_COMPONENTS, 4, budget=0)
        assert min_uncertainty_size(THREE_COMPONENTS) == 6

    def test_several_components_match_reference(self):
        # Disjoint cycles joined by forward edges, 2-cycles of antiparallel
        # edges, and chords and parallel edges inside components, against
        # the full reference at every cap.
        rng = random.Random(3511)
        layouts = [[3, 3], [2, 2, 1], [2, 3, 1], [4, 2], [2, 2, 2], [3, 1, 3], [2, 4, 1]]
        for layout in layouts * 4:
            g = blocks_graph(rng, layout, rng.randint(0, 4))
            expected = reference_minimal_patterns(g)
            for cap in range(len(g.edges) + 1):
                got = valid_uncertainty_patterns(g, cap)
                assert got == [p for p in expected if len(p) <= cap]
            assert min_uncertainty_size(g) == len(expected[0])

    def test_tournament8_minimum(self):
        assert min_uncertainty_size(tournament(8)) == 13

    def test_max_size_defaults_to_every_edge(self):
        rng = random.Random(88)
        for _ in range(20):
            g = random_cyclic_graph(rng, rng.randint(2, 5), rng.randint(2, 7))
            assert valid_uncertainty_patterns(g) == valid_uncertainty_patterns(g, len(g.edges))

    def test_cyclic_graphs_match_reference(self):
        rng = random.Random(2024)
        graphs = [
            random_cyclic_graph(rng, rng.randint(2, 6), rng.randint(2, 8)) for _ in range(150)
        ]
        assert any(
            (a.worse, a.better) in ((b.worse, b.better), (b.better, b.worse))
            for g in graphs
            for a, b in itertools.combinations(g.edges, 2)
        )
        for g in graphs:
            expected = reference_minimal_patterns(g)
            got = valid_uncertainty_patterns(g, len(g.edges))
            assert got == expected
            assert all(type(i) is int for p in got for i in p.edge_indices)
            assert min_uncertainty_size(g) == min(len(p) for p in expected)

    def test_search_holds_one_block_at_a_time(self):
        # A 3-cycle plus forward edges on 12 worlds: 313,912 edge subsets of
        # size <= 6, while the witness search checks only a handful of sets.
        rng = random.Random(5)
        forward = [(f"w{i}", f"w{j}") for i in range(12) for j in range(max(i + 1, 3), 12)]
        pairs = [("w0", "w1"), ("w1", "w2"), ("w2", "w0")] + rng.sample(forward, 23)
        g = ConstraintGraph.from_edges(
            [(u, v, f"E{i}") for i, (u, v) in enumerate(pairs)],
            worlds=tuple(f"w{i}" for i in range(12)),
        )
        subsets = math.comb(len(g.edges), 6)
        assert sum(math.comb(len(g.edges), s) for s in range(7)) == 313_912
        tracemalloc.start()
        try:
            patterns = valid_uncertainty_patterns(g, 6, budget=1_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [p.edge_indices for p in patterns] == [(0, 1), (0, 2), (1, 2)]
        # Built whole, the size-6 inputs alone would take an int64 per
        # (subset, world) for the bit-rows and three per (subset, removed
        # edge) for the index array and both endpoint arrays.
        assert peak < subsets * (12 + 3 * 6) * 8

    def test_larger_graphs_match_brute_force(self):
        # Graphs past the reach of the full reference enumeration, against a
        # brute force over every subset of size <= cap.
        rng = random.Random(1606)
        with_patterns = 0
        for _ in range(12):
            g = few_back_edges_graph(rng, rng.randint(7, 10), rng.randint(12, 20))
            cap = rng.randint(3, 4)
            n_edges = len(g.edges)
            expected = []
            for size in range(cap + 1):
                for subset in itertools.combinations(range(n_edges), size):
                    if not any(set(f) <= set(subset) for f in expected):
                        if reference_pattern_valid(g, subset):
                            expected.append(subset)
            budget = sum(math.comb(n_edges, s) for s in range(cap + 1))
            got = valid_uncertainty_patterns(g, cap, budget=budget)
            assert [p.edge_indices for p in got] == expected
            size = min_uncertainty_size(g)
            if expected:
                assert size == len(expected[0])
                with_patterns += 1
            else:
                assert size > cap
        assert with_patterns >= 6

    def test_five_two_cycles_need_ten(self):
        # Five 2-cycles on 10 worlds plus 14 forward edges between them: each
        # 2-cycle loses both edges, and no forward edge needs to go.
        rng = random.Random(24)
        names = [f"v{i}" for i in range(10)]
        rng.shuffle(names)
        blocks = [names[i : i + 2] for i in range(0, 10, 2)]
        pairs = [(a, b) for a, b in blocks] + [(b, a) for a, b in blocks]
        forward = [
            (u, v)
            for i, j in itertools.combinations(range(5), 2)
            for u in blocks[i]
            for v in blocks[j]
        ]
        pairs += rng.sample(forward, 14)
        rng.shuffle(pairs)
        g = ConstraintGraph.from_edges(
            [(u, v, f"C{i + 1}") for i, (u, v) in enumerate(pairs)], worlds=tuple(sorted(names))
        )
        assert len(g.edges) == 24
        assert min_uncertainty_size(g) == 10

    def test_complete_digraph_loses_every_edge(self):
        # Every edge has its reverse, so every edge must go: the search runs
        # 1,056 levels deep, on an explicit stack.
        worlds = tuple(f"w{i}" for i in range(33))
        g = ConstraintGraph.from_edges(
            [(u, v) for u in worlds for v in worlds if u != v], worlds=worlds
        )
        assert min_uncertainty_size(g) == 1056

    def test_acyclic_graph_has_only_the_empty_pattern(self):
        chain = ConstraintGraph.from_edges([(f"w{i}", f"w{i + 1}") for i in range(63)])
        assert valid_uncertainty_patterns(chain, 63) == [UncertaintyPattern(())]
        rng = random.Random(97)
        for _ in range(200):
            n = rng.randint(1, 6)
            rank = list(range(n))
            rng.shuffle(rank)
            # Every edge points up the random ranking, so no cycle exists.
            pairs = [(f"n{a}", f"n{b}") for a in range(n) for b in range(n) if rank[a] < rank[b]]
            chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
            g = ConstraintGraph.from_edges(
                [(u, v, f"E{i}") for i, (u, v) in enumerate(chosen)],
                worlds=tuple(f"n{i}" for i in range(n)),
            )
            assert valid_uncertainty_patterns(g, len(g.edges)) == reference_minimal_patterns(g)

    def test_world_limit_spares_acyclic_and_single_pattern_calls(self):
        chain = ConstraintGraph.from_edges([(f"w{i}", f"w{i + 1}") for i in range(70)])
        assert min_uncertainty_size(chain) == 0
        ring = cycle_graph(64)
        pattern = UncertaintyPattern((0, 1))
        assert pattern_is_valid(ring, pattern)
        assert validate_partial_order(partial_order_from(ring, pattern)) == []

    def test_pattern_validity_against_reference_random_graphs(self):
        rng = random.Random(4321)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 5), rng.randint(1, 7))
            for size in range(0, min(3, len(g.edges)) + 1):
                for subset in itertools.combinations(range(len(g.edges)), size):
                    assert pattern_is_valid(
                        g, UncertaintyPattern(subset)
                    ) == reference_pattern_valid(g, subset)


class TestPartialOrderFrom:
    def test_three_cycle_keep_first_edge(self):
        # Dropping C2 and C3 keeps w1 <= w2 with w3 incomparable to both.
        po = partial_order_from(THREE_CYCLE, UncertaintyPattern((1, 2)))
        assert po.verdict("w1", "w2") is Verdict.LESS
        assert po.verdict("w2", "w1") is Verdict.GREATER
        assert po.verdict("w1", "w3") is Verdict.INCOMPARABLE
        assert po.verdict("w2", "w3") is Verdict.INCOMPARABLE
        assert validate_partial_order(po) == []

    def test_acyclic_chain_total_on_support(self):
        po = partial_order_from(CHAIN, UncertaintyPattern(()))
        assert po.verdict("w1", "w3") is Verdict.LESS
        assert po.verdict("w3", "w2") is Verdict.GREATER
        assert validate_partial_order(po) == []

    def test_single_edge_weakening_is_invalid(self):
        # Transitivity over the kept edges forces the removed comparison,
        # contradicting the required incomparability.
        with pytest.raises(InvalidPatternError):
            partial_order_from(THREE_CYCLE, UncertaintyPattern((2,)))

    def test_outputs_always_validate(self):
        rng = random.Random(777)
        checked = 0
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 5), rng.randint(1, 6))
            for pattern in valid_uncertainty_patterns(g, len(g.edges), budget=10_000):
                po = partial_order_from(g, pattern)
                assert validate_partial_order(po) == []
                checked += 1
        assert checked > 50


class TestTheoremProperties:
    def test_cyclic_patterns_have_at_least_two_edges(self):
        rng = random.Random(2718)
        seen_cyclic = 0
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 5), rng.randint(2, 8))
            patterns = valid_uncertainty_patterns(g, len(g.edges), budget=100_000)
            if find_cycle(g) is not None:
                seen_cyclic += 1
                assert all(len(p) >= 2 for p in patterns)
            else:
                assert patterns[0].edge_indices == ()
        assert seen_cyclic > 20

    def test_acyclic_iff_min_size_zero(self):
        rng = random.Random(31415)
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 5), rng.randint(1, 7))
            assert (find_cycle(g) is None) == (min_uncertainty_size(g) == 0)

    def test_adding_an_edge_never_decreases_min_size(self):
        rng = random.Random(161803)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 5), rng.randint(1, 6))
            base = min_uncertainty_size(g)
            candidates = [
                (u, v)
                for u in g.worlds
                for v in g.worlds
                if u != v
            ]
            u, v = candidates[rng.randrange(len(candidates))]
            bigger = ConstraintGraph(
                g.worlds, g.edges + (Edge(u, v, "EXTRA"),)
            )
            assert min_uncertainty_size(bigger) >= base
