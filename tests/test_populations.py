import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncertain_objectives import (
    AverageWelfare,
    CriticalLevel,
    Population,
    TotalWelfare,
    Verdict,
    average_welfare,
    population,
    swf_compare,
    total_welfare,
)
from uncertain_objectives.errors import EmptyPopulationError, InvalidValueError
from uncertain_objectives.populations import parse_swf, swf_label

from conftest import random_population, sorted_dominates

EMPTY = Population()


class TestPopulation:
    def test_union_disjoint_levels_concatenate(self):
        assert population((100, 10)) | population((1, 5)) == population((100, 10), (1, 5))

    def test_union_identity(self):
        p = population((3, 2), (5, 1))
        assert p | EMPTY == p

    def test_union_merges_equal_levels(self):
        assert population((1, 2)) | population((1, 3)) == population((1, 5))

    def test_canonical_form_sorted_and_merged(self):
        p = Population([(Fraction(5), 1), (Fraction(1), 2), (Fraction(5), 3)])
        assert p.groups == ((Fraction(1), 2), (Fraction(5), 4))

    def test_rejects_nonpositive_counts(self):
        for count in (0, -2, True, 1.5):
            with pytest.raises(InvalidValueError, match="group count must be a positive int"):
                Population([(1, count)])

    def test_size(self):
        assert population((100, 10), (1, 5)).size == 15
        assert EMPTY.size == 0

    @pytest.mark.parametrize("level", ["lo", "hi"])
    def test_empty_population_has_no_levels(self, level):
        with pytest.raises(EmptyPopulationError, match="no welfare levels"):
            getattr(EMPTY, level)


class TestWelfareArithmetic:
    def test_total(self):
        assert total_welfare(population((100, 10))) == 1000
        assert total_welfare(EMPTY) == 0
        assert total_welfare(population(("1/2", 3))) == Fraction(3, 2)

    def test_total_exact_thirds(self):
        assert total_welfare(population(("1/3", 3))) == 1

    def test_average(self):
        assert average_welfare(population((100, 10))) == 100
        assert average_welfare(population((100, 10), (0, 10))) == 50

    def test_average_empty_is_error(self):
        with pytest.raises(EmptyPopulationError):
            average_welfare(EMPTY)

    def test_perfectly_equal(self):
        assert population((100, 10)).tiers <= 1
        assert not population((100, 10), (1, 1)).tiers <= 1
        assert EMPTY.tiers <= 1


class TestSwfCompare:
    def test_repugnant_shape_under_total(self):
        a = population((100, 10))
        z = population((1, 1001))
        assert swf_compare(TotalWelfare(), a, z) is Verdict.LESS

    def test_average_prefers_happy_few(self):
        a = population((100, 10))
        z = population((1, 1001))
        assert swf_compare(AverageWelfare(), a, z) is Verdict.GREATER

    def test_critical_level(self):
        a = population((100, 10))
        z = population((1, 1001))
        # (100-2)*10 = 980 against (1-2)*1001 = -1001
        assert swf_compare(CriticalLevel(2), a, z) is Verdict.GREATER

    def test_average_on_empty_is_error(self):
        with pytest.raises(EmptyPopulationError):
            swf_compare(AverageWelfare(), EMPTY, population((1, 1)))

    def test_total_preorder_properties_bulk(self):
        # Exactly one verdict per pair plus transitivity of <=, over 10^4
        # random triples and all three welfare orderings.
        rng = random.Random(20240817)
        swfs = [TotalWelfare(), AverageWelfare(), CriticalLevel(Fraction(1, 2))]
        for _ in range(10_000):
            a, b, c = (random_population(rng) for _ in range(3))
            swf = rng.choice(swfs)
            vab = swf_compare(swf, a, b)
            vbc = swf_compare(swf, b, c)
            vac = swf_compare(swf, a, c)
            for v in (vab, vbc, vac):
                assert v in (Verdict.LESS, Verdict.EQUAL, Verdict.GREATER)
            assert swf_compare(swf, b, a) is vab.flipped()
            leq = (Verdict.LESS, Verdict.EQUAL)
            if vab in leq and vbc in leq:
                assert vac in leq

    def test_swf_labels_round_trip(self):
        for text in ("total", "average", "critical:7/2"):
            assert swf_label(parse_swf(text)) == text
        with pytest.raises(ValueError):
            parse_swf("maximin")


groups_strategy = st.lists(
    st.tuples(
        st.fractions(min_value=-10, max_value=10, max_denominator=6),
        st.integers(min_value=1, max_value=8),
    ),
    max_size=4,
)


@settings(max_examples=200)
@given(groups_strategy, groups_strategy)
def test_union_commutative(ga, gb):
    a, b = Population(ga), Population(gb)
    assert a | b == b | a


@settings(max_examples=200)
@given(groups_strategy, groups_strategy, groups_strategy)
def test_union_associative_and_additive(ga, gb, gc):
    a, b, c = Population(ga), Population(gb), Population(gc)
    assert (a | b) | c == a | (b | c)
    assert (a | b).size == a.size + b.size
    assert total_welfare(a | b) == total_welfare(a) + total_welfare(b)


def _assert_dominance_matches_expansion(a, b):
    for strict in (True, False):
        assert a.dominates(b, strict) == sorted_dominates(a, b, strict), (a, b, strict)


def test_pointwise_dominates_matches_expansion():
    rng = random.Random(7)
    for _ in range(500):
        a = random_population(rng, max_groups=3, max_count=4)
        b = random_population(rng, max_groups=3, max_count=4)
        _assert_dominance_matches_expansion(a, b)


def _shift_down(p, rng, step):
    """``p`` with each group, or part of it, moved down 0 or 1 grid step."""
    groups = []
    for level, count in p.groups:
        kept = rng.randint(0, count)
        groups += [(level, kept), (level - rng.choice((0, step)), count - kept)]
    return Population((level, count) for level, count in groups if count)


def test_dominance_matches_expansion_on_derived_pairs():
    # Independent draws seldom share a size, so derive ``b`` from ``a``: a
    # shift down by 0 or 1 step keeps the size and lands on both sides of
    # the strict/weak boundary; so does splitting one group.
    rng = random.Random(11)
    step = Fraction(1, 2)
    outcomes = set()
    for _ in range(2000):
        a = random_population(rng, levels=[Fraction(k, 2) for k in range(-4, 5)], max_count=4)
        level, count = rng.choice(a.groups)
        split = [(l, c) for l, c in a.groups if l != level]
        if count > 1:
            split += [(level, count - 1), (level - step * rng.randint(0, 1), 1)]
        else:
            split += [(level, 1)]
        for b in (_shift_down(a, rng, step), Population(split), a):
            for x, y in ((a, b), (b, a)):
                _assert_dominance_matches_expansion(x, y)
                outcomes.add((x.dominates(y, True), x.dominates(y, False)))
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_dominance_of_empty_and_equal_populations():
    _assert_dominance_matches_expansion(EMPTY, EMPTY)
    assert EMPTY.dominates(EMPTY, strict=True) and EMPTY.dominates(EMPTY, strict=False)
    p = population((1, 2), ("1/2", 3))
    q = Population([("1/2", 1), (1, 2), ("1/2", 2)])
    _assert_dominance_matches_expansion(p, q)
    assert (p.dominates(q, strict=True), p.dominates(q, strict=False)) == (False, True)
