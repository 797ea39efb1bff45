import itertools
import random

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
    valid_uncertainty_patterns,
    validate_partial_order,
)
from uncertain_objectives.errors import (
    BudgetExceededError,
    InvalidPatternError,
    WorldLimitError,
)

from conftest import random_graph, reference_pattern_valid, reference_smallest_cycle


def cycle_graph(n: int) -> ConstraintGraph:
    return ConstraintGraph.from_edges(
        [(f"w{i + 1}", f"w{(i + 1) % n + 1}", f"C{i + 1}") for i in range(n)]
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


class TestPatterns:
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
        with pytest.raises(WorldLimitError):
            min_uncertainty_size(g)
        assert len(valid_uncertainty_patterns(cycle_graph(62), 2)) == 62 * 61 // 2

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
