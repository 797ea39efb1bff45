import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from uncertain_objectives import (
    AverageWelfare,
    AxiomId,
    CheckResult,
    CriticalLevel,
    Population,
    SearchBounds,
    TotalWelfare,
    Verdict,
    World,
    audit_swf,
    build_cycle,
    check_instance,
    find_cycle,
    min_uncertainty_size,
    population,
    second_theorem_cycle,
    swf_compare,
)
from uncertain_objectives import axioms
from uncertain_objectives.axioms import (
    AxiomInstance,
    addition_instance,
    avoid_repugnant_instance,
    avoid_sadistic_instance,
    avoid_very_anti_egalitarian_instance,
    dominance_addition_instance,
    dominance_instance,
    egalitarian_dominance_instance,
    inequality_aversion_instance,
    priority_compensation_instance,
    quality_instance,
)
from uncertain_objectives.errors import (
    BoundsTooLargeError,
    BudgetExceededError,
    ConflictingWorldIdsError,
    InvalidInstanceError,
    InvalidValueError,
    UncertainObjectivesError,
)
from uncertain_objectives.populations import swf_order

from conftest import reference_audit_swf, reference_stream_populations, reference_two_tier


def w(name, *groups):
    return World(name, Population(groups))


class TestInstanceConstruction:
    def test_quality_valid_and_invalid(self):
        quality_instance(w("h", (95, 3)), w("l", (1, 50)), 90, 1)
        with pytest.raises(InvalidInstanceError):  # high world below threshold
            quality_instance(w("h", (80, 3)), w("l", (1, 50)), 90, 1)
        with pytest.raises(InvalidInstanceError):  # low world not positive
            quality_instance(w("h", (95, 3)), w("l", (0, 50)), 90, 1)
        with pytest.raises(InvalidInstanceError):  # high world unequal
            quality_instance(w("h", (95, 3), (96, 1)), w("l", (1, 50)), 90, 1)

    def test_inequality_aversion_valid_and_invalid(self):
        inequality_aversion_instance(w("m", (10, 2), (1, 5)), w("e", (5, 7)))
        with pytest.raises(InvalidInstanceError):  # lower tier not larger
            inequality_aversion_instance(w("m", (10, 5), (1, 2)), w("e", (5, 7)))
        with pytest.raises(InvalidInstanceError):  # level not between tiers
            inequality_aversion_instance(w("m", (10, 2), (1, 5)), w("e", (12, 7)))
        with pytest.raises(InvalidInstanceError):  # size mismatch
            inequality_aversion_instance(w("m", (10, 2), (1, 5)), w("e", (5, 6)))

    def test_egalitarian_dominance_valid_and_invalid(self):
        egalitarian_dominance_instance(w("a", (10, 5)), w("b", (9, 3), (8, 2)))
        with pytest.raises(InvalidInstanceError):  # not strictly happier
            egalitarian_dominance_instance(w("a", (9, 5)), w("b", (9, 3), (8, 2)))
        with pytest.raises(InvalidInstanceError):  # unequal sizes
            egalitarian_dominance_instance(w("a", (10, 4)), w("b", (9, 3), (8, 2)))

    def test_dominance_addition_valid_and_invalid(self):
        base = w("a", (10, 5))
        raised = Population([(11, 5)])
        added = Population([(1, 100)])
        dominance_addition_instance(base, raised, added, augmented=w("ap", (11, 5), (1, 100)))
        with pytest.raises(InvalidInstanceError):  # added lives not positive
            dominance_addition_instance(
                base, raised, Population([(0, 1)]), augmented=w("ap", (11, 5), (0, 1))
            )
        with pytest.raises(InvalidInstanceError):  # raised part drops someone
            dominance_addition_instance(
                base, Population([(9, 5)]), added, augmented=w("ap", (9, 5), (1, 100))
            )
        with pytest.raises(InvalidInstanceError):  # augmented world wrong
            dominance_addition_instance(base, raised, added, augmented=w("ap", (11, 5), (1, 99)))

    def test_avoid_repugnant_valid_and_invalid(self):
        avoid_repugnant_instance(w("a", (100, 10)), w("z", (1, 1001)), 100, 1)
        with pytest.raises(InvalidInstanceError):  # crowd not larger
            avoid_repugnant_instance(w("a", (100, 10)), w("z", (1, 10)), 100, 1)
        with pytest.raises(InvalidInstanceError):  # crowd above very_low
            avoid_repugnant_instance(w("a", (100, 10)), w("z", (2, 1001)), 100, 1)

    def test_avoid_sadistic_valid_and_invalid(self):
        avoid_sadistic_instance(
            population((100, 10)), population((-50, 1)), population((1, 1000)), 100, -50
        )
        with pytest.raises(InvalidInstanceError):  # tortured group not smaller
            avoid_sadistic_instance(
                population((100, 10)), population((-50, 5)), population((1, 5)), 100, -50
            )
        with pytest.raises(InvalidInstanceError):  # not tortured enough
            avoid_sadistic_instance(
                population((100, 10)), population((-10, 1)), population((1, 5)), 100, -50
            )

    def test_avoid_very_anti_egalitarian_valid_and_invalid(self):
        avoid_very_anti_egalitarian_instance(w("a", (10, 2)), w("b", (15, 1), (1, 1)))
        with pytest.raises(InvalidInstanceError):  # rival total not lower
            avoid_very_anti_egalitarian_instance(w("a", (10, 2)), w("b", (19, 1), (2, 1)))
        with pytest.raises(InvalidInstanceError):  # rival perfectly equal
            avoid_very_anti_egalitarian_instance(w("a", (10, 2)), w("b", (9, 2)))

    def test_dominance_valid_and_invalid(self):
        dominance_instance(w("a", (10, 2), (5, 1)), w("b", (9, 2), (4, 1)))
        with pytest.raises(InvalidInstanceError):  # equality somewhere
            dominance_instance(w("a", (10, 2), (5, 1)), w("b", (10, 2), (4, 1)))

    def test_addition_valid_and_invalid(self):
        addition_instance(w("a", (10, 3)), population((5, 2)), population((4, 3)))
        with pytest.raises(InvalidInstanceError):  # c not larger than b
            addition_instance(w("a", (10, 3)), population((5, 2)), population((4, 2)))
        with pytest.raises(InvalidInstanceError):  # c not worse off than b
            addition_instance(w("a", (10, 3)), population((5, 2)), population((5, 3)))
        with pytest.raises(InvalidInstanceError):  # b not worse off than base
            addition_instance(w("a", (10, 3)), population((10, 2)), population((4, 3)))

    def test_priority_compensation_valid_and_invalid(self):
        priority_compensation_instance(
            population((50, 4)), 1, -1, 100, 7, very_high=100, very_low=1
        )
        with pytest.raises(InvalidInstanceError):  # drop must end below zero
            priority_compensation_instance(
                population((50, 4)), 1, 1, 100, 7, very_high=100, very_low=1
            )
        with pytest.raises(InvalidInstanceError):  # created lives not high enough
            priority_compensation_instance(
                population((50, 4)), 1, -1, 60, 7, very_high=100, very_low=1
            )

    @pytest.mark.parametrize("count", [0, True, 1.5])
    def test_priority_compensation_count_fails_its_own_clause(self, count):
        # The count clause runs before the after-world is built from it.
        with pytest.raises(InvalidInstanceError, match="must create at least one life"):
            priority_compensation_instance(
                population((50, 4)), 1, -1, 100, count, very_high=100, very_low=1
            )

    def test_make_instance_binds_fields_like_a_call(self):
        high, low = w("h", (95, 3)), w("l", (1, 50))
        expected = quality_instance(high, low, 90, 1)
        got = axioms.make_instance(AxiomId.QUALITY, high, low, very_low=1, very_high=90)
        assert got == expected
        for args, kwargs in [
            ((high, low, 90, 1, 2), {}),  # too many fields
            ((high, low, 90, 1), {"high": high}),  # a field given twice
            ((high, low, 90, 1), {"bogus": 1}),  # no such field
            ((high, low, 90), {}),  # a field missing
        ]:
            with pytest.raises(TypeError, match="quality"):
                axioms.make_instance(AxiomId.QUALITY, *args, **kwargs)
        with pytest.raises(TypeError):  # a derived world is given by name only
            addition_instance(w("a", (10, 3)), population((5, 2)), population((4, 3)),
                              w("with_b", (5, 2), (10, 3)))

    def test_too_many_positional_fields_names_the_count(self):
        high, low = w("h", (95, 3)), w("l", (1, 50))
        cases = [
            (AxiomId.QUALITY, (high, low, 90, 1, 2),
             "quality takes 4 positional fields (['high', 'low', 'very_high', 'very_low']), got 5"),
            (AxiomId.DOMINANCE_ADDITION, tuple(population((5, 2)) for _ in range(4)),
             "dominance_addition takes 3 positional fields (['base', 'raised', 'added']), got 4"),
        ]
        for axiom, fields, message in cases:
            with pytest.raises(TypeError) as info:
                axioms.make_instance(axiom, *fields)
            assert str(info.value) == message

    def test_populations_get_the_audit_ids(self):
        inst = axioms.make_instance(
            AxiomId.ADDITION, base_world=population((10, 3)), b=population((5, 2)),
            c=population((4, 3)),
        )
        assert [x.id for x in inst.worlds] == ["a", "with_b", "with_c"]
        assert (inst.claim_worse, inst.claim_better) == ("with_c", "with_b")
        assert inst.gate == ("with_b", "a")


def constant_order(verdict):
    return lambda u, v: verdict


class TestCheckInstance:
    def test_one_rule_for_gated_and_ungated_claims(self):
        s, v, u = (CheckResult.SATISFIED, CheckResult.VIOLATED,
                   CheckResult.UNCERTAINLY_SATISFIED)
        claims = (Verdict.LESS, Verdict.EQUAL, Verdict.GREATER, Verdict.INCOMPARABLE)
        # (strict, gate verdict) -> the result for each claim verdict above.
        expected = {
            (False, None): (s, s, v, u),
            (True, None): (s, v, v, u),
            (False, Verdict.LESS): (s, s, v, u),
            (False, Verdict.EQUAL): (s, s, s, s),
            (False, Verdict.GREATER): (s, s, s, s),
            (False, Verdict.INCOMPARABLE): (s, s, u, u),
        }
        for (strict, gate), results in expected.items():
            assert tuple(axioms._result(strict, c, gate) for c in claims) == results
        # Every gated axiom is non-strict, so the table covers every instance.
        assert not any(row.strict for row in axioms.AXIOMS.values() if len(row.roles) > 2)

    def test_strict_is_read_from_the_axiom_row(self):
        for inst in sample_instances(random.Random(1)):
            assert inst.strict is axioms.AXIOMS[inst.axiom].strict
            assert inst.to_json()["claim"]["strict"] is inst.strict

    def test_egalitarian_dominance_satisfied_under_total(self):
        inst = egalitarian_dominance_instance(w("a", (10, 5)), w("b", (9, 3), (8, 2)))
        assert check_instance(inst, swf_order(TotalWelfare())) is CheckResult.SATISFIED

    def test_incomparable_is_uncertain_satisfaction(self):
        inst = egalitarian_dominance_instance(w("a", (10, 5)), w("b", (9, 3), (8, 2)))
        result = check_instance(inst, constant_order(Verdict.INCOMPARABLE))
        assert result is CheckResult.UNCERTAINLY_SATISFIED

    def test_dominance_addition_violated_by_average(self):
        # Average drops from 10 to 155/105 = 31/21 when 100 barely-positive
        # lives join, so the augmented world is ranked strictly worse.
        inst = dominance_addition_instance(
            w("a", (10, 5)),
            Population([(11, 5)]),
            Population([(1, 100)]),
            augmented=w("ap", (11, 5), (1, 100)),
        )
        assert swf_compare(
            AverageWelfare(), Population([(11, 5), (1, 100)]), Population([(10, 5)])
        ) is Verdict.LESS
        assert check_instance(inst, swf_order(AverageWelfare())) is CheckResult.VIOLATED

    def test_strict_axiom_counts_equality_as_violation(self):
        inst = egalitarian_dominance_instance(w("a", (10, 5)), w("b", (9, 3), (8, 2)))
        assert check_instance(inst, constant_order(Verdict.EQUAL)) is CheckResult.VIOLATED

    def test_non_strict_axiom_accepts_equality(self):
        inst = dominance_instance(w("a", (10, 2)), w("b", (9, 2)))
        assert check_instance(inst, constant_order(Verdict.EQUAL)) is CheckResult.SATISFIED

    def test_addition_gate(self):
        inst = addition_instance(w("a", (10, 3)), population((5, 2)), population((4, 3)))
        base, b_world, c_world = inst.worlds

        def order_factory(gate_verdict, claim_verdict):
            def order(u, v):
                if {u.id, v.id} == {b_world.id, base.id}:
                    return gate_verdict if u.id == b_world.id else gate_verdict.flipped()
                if {u.id, v.id} == {c_world.id, b_world.id}:
                    return claim_verdict if u.id == c_world.id else claim_verdict.flipped()
                return Verdict.EQUAL

            return order

        # Gate holds (adding b is bad) and c-added ranked above b-added: violated.
        assert (
            check_instance(inst, order_factory(Verdict.LESS, Verdict.GREATER))
            is CheckResult.VIOLATED
        )
        # Gate fails: satisfied regardless of the claim comparison.
        assert (
            check_instance(inst, order_factory(Verdict.GREATER, Verdict.GREATER))
            is CheckResult.SATISFIED
        )
        # Gate holds, claim respected: satisfied.
        assert (
            check_instance(inst, order_factory(Verdict.LESS, Verdict.LESS))
            is CheckResult.SATISFIED
        )
        # Gate uncertain while the claim comparison could still fire: uncertain.
        assert (
            check_instance(inst, order_factory(Verdict.INCOMPARABLE, Verdict.GREATER))
            is CheckResult.UNCERTAINLY_SATISFIED
        )
        # Gate uncertain but the claim holds anyway: never a violation.
        assert (
            check_instance(inst, order_factory(Verdict.INCOMPARABLE, Verdict.LESS))
            is CheckResult.SATISFIED
        )


def sample_instances(rng: random.Random):
    """A spread of structurally valid instances across all ten axioms."""
    hi = Fraction(rng.randint(90, 120))
    lo = Fraction(1, rng.randint(1, 4))
    s = rng.randint(1, 4)
    m = s + rng.randint(1, 5)
    out = [
        quality_instance(w("h", (hi, s)), w("l", (lo, m)), hi, lo),
        inequality_aversion_instance(
            w("mix", (hi, s), (lo, m)), w("eq", ((hi + lo) / 2, s + m))
        ),
        egalitarian_dominance_instance(w("a", (hi, s + 1)), w("b", (hi - 1, s), (0, 1))),
        dominance_addition_instance(
            w("base", (hi, s)),
            Population([(hi + 2, s)]),
            Population([(lo, m)]),
            augmented=World("aug", Population([(hi + 2, s), (lo, m)])),
        ),
        avoid_repugnant_instance(w("a", (hi, s)), w("z", (lo, 100 * s)), hi, lo),
        avoid_sadistic_instance(
            population((hi, s)), population((-50, 1)), population((lo, rng.randint(2, 9))),
            hi, -50,
        ),
        avoid_very_anti_egalitarian_instance(
            w("a", (10, s + 1)), w("b", (11, s), (-20, 1))
        ),
        dominance_instance(w("a", (hi, s), (2, 1)), w("b", (hi - 1, s), (1, 1))),
        addition_instance(w("a", (10, s)), population((5, 2)), population((4, rng.randint(3, 6)))),
        priority_compensation_instance(
            population((hi, s)), lo, Fraction(-1, 2), hi, rng.randint(1, 9), hi, lo
        ),
    ]
    return out


def test_self_consistency_every_axiom():
    # An order that delivers exactly the required verdict must satisfy the
    # instance that demanded it.
    rng = random.Random(99)
    for _ in range(25):
        for inst in sample_instances(rng):
            def order(u, v, inst=inst):
                if u.id == inst.claim_worse and v.id == inst.claim_better:
                    return Verdict.LESS
                if u.id == inst.claim_better and v.id == inst.claim_worse:
                    return Verdict.GREATER
                if inst.gate and {u.id, v.id} == set(inst.gate):
                    return Verdict.LESS if u.id == inst.gate[0] else Verdict.GREATER
                return Verdict.EQUAL

            assert check_instance(inst, order) is CheckResult.SATISFIED


class TestAudits:
    def test_total_welfare_vs_avoid_repugnant_matches_oracle(self):
        bounds = SearchBounds(levels=(1, 100), max_count=120, budget=200_000)
        witness = audit_swf(TotalWelfare(), AxiomId.AVOID_REPUGNANT, bounds)
        assert witness is not None and witness.replay()
        # Independent oracle: first (A, Z) pair in the documented enumeration
        # order whose totals reverse.
        found = None
        for a_level in (1, 100):
            if a_level < 100:
                continue  # very_high defaults to the top level
            for a_count in range(1, 121):
                for z_count in range(1, 121):
                    if z_count > a_count and z_count * 1 > a_level * a_count:
                        found = (a_count, z_count)
                        break
                if found:
                    break
        a_pop = witness.instance.world("a").population
        z_pop = witness.instance.world("z").population
        assert (a_pop.groups[0][1], z_pop.groups[0][1]) == found == (1, 101)

    def test_average_welfare_vs_avoid_sadistic_matches_oracle(self):
        base = population((100, 10))
        bounds = SearchBounds(
            levels=(-50, 1, 100), max_count=20, budget=2_000_000, base=base
        )
        witness = audit_swf(AverageWelfare(), AxiomId.AVOID_SADISTIC, bounds)
        assert witness is not None and witness.replay()
        # Oracle: smallest torture group is (-50, 1); the first positive
        # addition ranked below it by average is (1, 2).
        assert witness.instance.params["tortured"] == population((-50, 1))
        assert witness.instance.params["positive"] == population((1, 2))
        assert witness.observed is Verdict.GREATER

    def test_critical_level_vs_avoid_sadistic(self):
        bounds = SearchBounds(
            levels=(-50, 1, 100),
            max_count=60,
            budget=10_000_000,
            base=population((100, 10)),
            very_high=100,
        )
        witness = audit_swf(CriticalLevel(2), AxiomId.AVOID_SADISTIC, bounds)
        assert witness is not None and witness.replay()
        # Score drop of one tortured person is 52; 53 lives at welfare 1
        # score -53, so the tortured addition wins.
        assert witness.instance.params["tortured"] == population((-50, 1))
        assert witness.instance.params["positive"] == population((1, 53))

    def test_total_welfare_respects_dominance(self):
        bounds = SearchBounds(levels=(0, 1, 2), max_count=3, budget=200_000)
        assert audit_swf(TotalWelfare(), AxiomId.DOMINANCE, bounds) is None

    def test_total_welfare_respects_dominance_addition(self):
        bounds = SearchBounds(levels=(1, 2), max_count=2, budget=200_000)
        assert audit_swf(TotalWelfare(), AxiomId.DOMINANCE_ADDITION, bounds) is None

    def test_average_violates_egalitarian_dominance_never(self):
        # A perfectly equal, pointwise-higher population has a strictly
        # higher average, so no witness exists at any bounds.
        bounds = SearchBounds(levels=(0, 1, 2, 3), max_count=3, budget=500_000)
        assert audit_swf(AverageWelfare(), AxiomId.EGALITARIAN_DOMINANCE, bounds) is None

    def test_quality_audit_returns_bounded_none(self):
        # Within a shared count cap the largest very-high population always
        # outscores every very-low crowd under total welfare, so the
        # universal-refutation audit must come back empty.
        bounds = SearchBounds(levels=(1, 100), max_count=30, budget=200_000)
        assert audit_swf(TotalWelfare(), AxiomId.QUALITY, bounds) is None

    def test_priority_compensation_witness_for_high_critical_level(self):
        # With the critical level above every grid welfare, created lives
        # score negatively and no count ever compensates the drop.
        bounds = SearchBounds(levels=(-1, 1, 100), max_count=25, budget=100_000)
        witness = audit_swf(CriticalLevel(200), AxiomId.PRIORITY_COMPENSATION, bounds)
        assert witness is not None and witness.replay()
        assert witness.instance.params["count"] == 25
        assert "no count up to 25" in witness.note

    def test_priority_compensation_none_for_total(self):
        bounds = SearchBounds(levels=(-1, 1, 100), max_count=25, budget=100_000)
        assert audit_swf(TotalWelfare(), AxiomId.PRIORITY_COMPENSATION, bounds) is None

    def test_budget_guard(self):
        bounds = SearchBounds(levels=(1, 100), max_count=1000, budget=100)
        with pytest.raises(BoundsTooLargeError):
            audit_swf(TotalWelfare(), AxiomId.AVOID_REPUGNANT, bounds)

    def test_audit_refusal_is_a_budget_error(self):
        # One except clause catches both the pattern search's and the
        # audit's refusal.
        bounds = SearchBounds(levels=(1, 100), max_count=1000, budget=100)
        with pytest.raises(BudgetExceededError) as info:
            audit_swf(TotalWelfare(), AxiomId.AVOID_REPUGNANT, bounds)
        assert isinstance(info.value, BoundsTooLargeError)
        assert (info.value.estimate, info.value.budget) == (1000 * 1000, 100)

    @pytest.mark.parametrize(
        "axiom,empty",
        [
            (AxiomId.QUALITY, "low"),
            (AxiomId.AVOID_REPUGNANT, "crowd"),
            (AxiomId.PRIORITY_COMPENSATION, "low_level"),
        ],
    )
    def test_empty_stream_refused_before_search(self, axiom, empty):
        # very_low = 1/2 is positive but below every grid level, so no level
        # lies in (0, very_low] and the search would check nothing.
        bounds = SearchBounds(levels=(1, 2), max_count=2, very_low=Fraction(1, 2))
        with pytest.raises(InvalidInstanceError, match=f"no grid candidate for {empty},"):
            audit_swf(TotalWelfare(), axiom, bounds)

    @pytest.mark.parametrize(
        "axiom,threshold",
        [
            (AxiomId.QUALITY, {"very_low": 0}),
            (AxiomId.AVOID_REPUGNANT, {"very_low": 0}),
            (AxiomId.AVOID_REPUGNANT, {"very_low": 100, "very_high": 100}),
            (AxiomId.AVOID_SADISTIC, {"torture_max": 0}),
            (AxiomId.PRIORITY_COMPENSATION, {"very_low": 0}),
            (AxiomId.PRIORITY_COMPENSATION, {"very_low": -1}),
        ],
    )
    def test_invalid_thresholds_refused_before_search(self, axiom, threshold):
        # Thresholds that break the premise by themselves are refused before
        # the budget check; a zero very_low would otherwise leave the low
        # stream empty and report a vacuous clean result.
        bounds = SearchBounds(levels=(-5, 1, 100), max_count=2, budget=0, **threshold)
        with pytest.raises(InvalidInstanceError):
            audit_swf(TotalWelfare(), axiom, bounds)

    def test_derived_worlds_are_checked_inside_audits(self, monkeypatch):
        # The witness is built by make_instance, which derives the augmented
        # world and then checks every clause on the worlds it built, so a
        # derivation that adds the added lives twice is caught there.
        derive = axioms._derive

        def added_twice(clauses, env):
            env = derive(clauses, env)
            env["augmented"] = env["augmented"] | env["added"]
            return env

        monkeypatch.setattr(axioms, "_derive", added_twice)
        bounds = SearchBounds((-2, -1, 1, 2), 2, max_groups=1)
        with pytest.raises(InvalidInstanceError, match="augmented world must equal"):
            audit_swf(AverageWelfare(), AxiomId.DOMINANCE_ADDITION, bounds)

    def test_construction_checks_everything_after_a_failed_audit(self, monkeypatch):
        def broken(swf, a, b, critical=0):
            raise RuntimeError("scoring failed")

        # Audits score count views through swf_signs; a failure there propagates.
        monkeypatch.setattr(axioms, "swf_signs", broken)
        with pytest.raises(RuntimeError, match="scoring failed"):
            audit_swf(TotalWelfare(), AxiomId.AVOID_REPUGNANT, SearchBounds((1, 100), 3))
        base = population((100, 1))
        with pytest.raises(InvalidInstanceError, match="tortured world must equal"):
            AxiomInstance(
                AxiomId.AVOID_SADISTIC,
                (World("t", base), World("p", population((100, 1), (1, 2)))), "t", "p",
                params={"base": base, "tortured": population((-5, 1)),
                        "positive": population((1, 2)), "very_high": Fraction(100),
                        "torture_max": Fraction(-5)},
            )

    @pytest.mark.parametrize(
        "change,message",
        [
            ("duplicate", "duplicate world ids in instance"),
            ("claim", "claim endpoints must be premise worlds"),
            ("gate", "addition instances carry a gate comparison"),
        ],
    )
    def test_direct_construction_checks_the_roles(self, change, message):
        inst = addition_instance(w("a", (10, 3)), population((5, 2)), population((4, 3)))
        changes = {
            "duplicate": {"worlds": inst.worlds + inst.worlds[:1]},
            "claim": {"claim_worse": "nowhere"},
            "gate": {"gate": None},
        }
        with pytest.raises(InvalidInstanceError, match=message):
            dataclasses.replace(inst, **changes[change])

    def test_direct_construction_refuses_a_gate_on_an_ungated_axiom(self):
        # A gate that fails would turn this violation into a satisfaction.
        inst = egalitarian_dominance_instance(
            Population([(6, 2)]), Population([(5, 1), (3, 1)])
        )
        assert (inst.claim_worse, inst.claim_better) == ("b", "a")

        def b_above_a(u, v):
            return Verdict.GREATER if (u.id, v.id) == ("b", "a") else Verdict.LESS

        assert check_instance(inst, b_above_a) is CheckResult.VIOLATED
        with pytest.raises(
            InvalidInstanceError, match="egalitarian_dominance instances carry no gate comparison"
        ):
            dataclasses.replace(inst, gate=("b", "a"))

    @pytest.mark.parametrize(
        "swf,axiom,bounds,witness",
        [
            (TotalWelfare(), AxiomId.DOMINANCE, SearchBounds((0, 1, 2), 3), False),
            (TotalWelfare(), AxiomId.ADDITION, SearchBounds((-2, -1, 1), 2), False),
            (TotalWelfare(), AxiomId.QUALITY, SearchBounds((1, 100), 5), False),
            (AverageWelfare(), AxiomId.DOMINANCE_ADDITION,
             SearchBounds((-2, -1, 1, 2), 2, max_groups=1), True),
            (TotalWelfare(), AxiomId.AVOID_REPUGNANT, SearchBounds((1, 100), 120), True),
            (CriticalLevel(200), AxiomId.PRIORITY_COMPENSATION,
             SearchBounds((-1, 1, 100), 25), True),
        ],
    )
    def test_audits_build_only_the_witness(self, monkeypatch, swf, axiom, bounds, witness):
        built, populations = [], []
        make = axioms.make_instance
        monkeypatch.setattr(
            axioms, "make_instance", lambda *a, **k: built.append(make(*a, **k)) or built[-1]
        )
        init = Population.__init__
        monkeypatch.setattr(
            Population, "__init__", lambda p, *a: (populations.append(p), init(p, *a))[1]
        )
        found = audit_swf(swf, axiom, bounds)
        assert built == ([found.instance] if witness else [])
        # Only the witness's populations are built: none for a clean audit.
        assert len(populations) <= (len(found.instance.worlds) + len(found.instance.params)
                                    if witness else 0)

    def test_witness_that_does_not_replay_is_refused(self, monkeypatch):
        # Replay orders the built instance's worlds; an order that disagrees
        # with the scores the audit compared is caught before returning.
        monkeypatch.setattr(axioms, "swf_order", lambda swf: lambda u, v: Verdict.LESS)
        bounds = SearchBounds((-2, -1, 1, 2), 2, max_groups=1)
        with pytest.raises(InvalidInstanceError, match="witness does not replay"):
            audit_swf(AverageWelfare(), AxiomId.DOMINANCE_ADDITION, bounds)

    def test_zero_thresholds_serialize(self):
        bounds = SearchBounds(levels=(1, 2), max_count=1, very_low=0, torture_max=0, very_high=0)
        doc = bounds.to_json()
        assert (doc["very_low"], doc["torture_max"], doc["very_high"]) == ("0", "0", "0")

    def test_grid_errors_are_typed(self):
        for make in (
            lambda: SearchBounds(levels=(), max_count=1),
            lambda: SearchBounds(levels=(1,), max_count=0),
            lambda: SearchBounds(levels=(1,), max_count=1, max_groups=0),
            lambda: SearchBounds(levels=("x",), max_count=1),
            lambda: SearchBounds(levels=(-1,), max_count=1).eff_very_low(),
            lambda: SearchBounds(levels=(1,), max_count=1).eff_torture_max(),
        ):
            with pytest.raises(InvalidValueError):
                make()

    def test_spec_canonical_comparisons(self):
        # The canonical instances behind the two classic witnesses.
        assert swf_compare(
            TotalWelfare(), population((1, 1001)), population((100, 10))
        ) is Verdict.GREATER  # 1001 > 1000
        bt = population((100, 10)) | population((-50, 1))
        bp = population((100, 10)) | population((1, 1000))
        # 950/11 > 110/101 under average welfare
        assert swf_compare(AverageWelfare(), bt, bp) is Verdict.GREATER
        inst = avoid_sadistic_instance(
            population((100, 10)), population((-50, 1)), population((1, 1000)), 100, -50
        )
        assert check_instance(inst, swf_order(AverageWelfare())) is CheckResult.VIOLATED
        inst2 = avoid_repugnant_instance(
            w("a", (100, 10)), w("z", (1, 1001)), 100, 1
        )
        assert check_instance(inst2, swf_order(TotalWelfare())) is CheckResult.VIOLATED


@pytest.mark.parametrize("name", ["nope", ["x"], None])
def test_unknown_axiom_id_is_a_value_error(name):
    with pytest.raises(InvalidValueError) as info:
        AxiomId(name)
    assert isinstance(info.value, ValueError)
    assert str(info.value) == f"unknown axiom id {name!r}"


class TestBuildCycle:
    def test_second_theorem_cycle_numbers(self):
        instances = second_theorem_cycle()
        worlds = {w.id: w.population for inst in instances for w in inst.worlds}
        assert worlds == {
            "a": population((100, 2)),
            "a_plus": population((101, 2), (Fraction(1, 2), 6)),
            "z": population((1, 8)),
            "a_star": population((90, 2)),
        }
        assert instances[2].params == {"very_high": 90, "very_low": 1}

    def test_second_theorem_cycle_is_cyclic(self):
        instances = second_theorem_cycle()
        graph = build_cycle(instances)
        certificate = find_cycle(graph)
        assert certificate is not None and len(certificate) == 4
        assert set(certificate.labels) == {
            "dominance_addition",
            "inequality_aversion",
            "quality",
            "egalitarian_dominance",
        }
        assert min_uncertainty_size(graph) == 2

    def test_acyclic_chain_of_instances(self):
        a, b = w("a", (10, 5)), w("b", (9, 5))
        c = w("c", (8, 5))
        chain = [
            egalitarian_dominance_instance(a, b),
            egalitarian_dominance_instance(b, c),
        ]
        graph = build_cycle(chain)
        assert find_cycle(graph) is None

    def test_conflicting_world_ids(self):
        good = egalitarian_dominance_instance(w("a", (10, 5)), w("b", (9, 5)))
        clash = egalitarian_dominance_instance(w("b", (7, 5)), w("c", (6, 5)))
        with pytest.raises(ConflictingWorldIdsError):
            build_cycle([good, clash])


def _outcome(audit, swf, axiom, bounds):
    try:
        witness = audit(swf, axiom, bounds)
    except (UncertainObjectivesError, ValueError) as exc:
        return type(exc)
    return None if witness is None else witness.to_json()


def _estimate(audit, swf, axiom, bounds):
    """The instance-space estimate an audit checks against its budget."""
    try:
        audit(swf, axiom, SearchBounds(**{**_bounds_kwargs(bounds), "budget": -1}))
    except BoundsTooLargeError as exc:
        return exc.estimate
    raise AssertionError("a budget of -1 must bind")


def _bounds_kwargs(bounds):
    return {
        "levels": bounds.levels, "max_count": bounds.max_count,
        "max_groups": bounds.max_groups, "budget": bounds.budget,
        "very_high": bounds.very_high, "very_low": bounds.very_low,
        "torture_max": bounds.torture_max, "base": bounds.base,
    }


_LEVEL_POOL = [Fraction(x) for x in (-3, -1, "-1/2", 0, "1/2", 1, 2, 5)]


def _random_bounds(rng, max_count):
    kwargs = {
        "levels": rng.sample(_LEVEL_POOL, rng.randint(1, 4)),
        "max_count": max_count,
        "max_groups": rng.randint(1, 2),
        "budget": 10**7,
    }
    for key in ("very_high", "very_low", "torture_max"):
        if rng.random() < 0.2:
            kwargs[key] = rng.choice(_LEVEL_POOL)
    if rng.random() < 0.3:
        kwargs["base"] = Population(
            (rng.choice(_LEVEL_POOL), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))
        )
    return SearchBounds(**kwargs)


def _seeded_audits(rng, count):
    """``count`` (swf, axiom, bounds) audits, the axioms in turn, each on the
    first of up to three random grids (``max_count`` 3, 2, 1) whose instance
    space is at most 4000, or that refuses."""
    audits = []
    for case in range(count):
        axiom = list(AxiomId)[case % len(AxiomId)]
        swf = rng.choice(
            [TotalWelfare(), AverageWelfare(), CriticalLevel(rng.choice(_LEVEL_POOL))]
        )
        for max_count in (3, 2, 1):
            bounds = _random_bounds(rng, max_count)
            try:
                if _estimate(audit_swf, swf, axiom, bounds) <= 4000:
                    break
            except (ValueError, InvalidInstanceError):
                break
        audits.append((swf, axiom, bounds))
    return audits


def _some_stream_empty(axiom, bounds):
    """True when one of the audit's component streams yields no candidate."""
    row = axioms.AXIOMS[axiom]
    fixed = {name: getattr(bounds, f"eff_{name}")() for name in row.thresholds}
    return any(
        isinstance(s, axioms.Stream) and not any(True for _ in s.build())
        for s in row.streams(bounds, **fixed).values()
    )


def _fixed_premise_fails(axiom, bounds):
    """True when a premise clause that reads only thresholds (or the pinned
    base) fails, or a component stream is empty, so the audit must refuse
    the grid before enumerating."""
    if _some_stream_empty(axiom, bounds):
        return True
    if axiom in (AxiomId.QUALITY, AxiomId.AVOID_REPUGNANT):
        return not 0 < bounds.eff_very_low() < bounds.eff_very_high()
    if axiom is AxiomId.PRIORITY_COMPENSATION:
        return bounds.eff_very_low() <= 0
    if axiom is AxiomId.AVOID_SADISTIC:
        base = bounds.base
        return bounds.eff_torture_max() >= 0 or (
            base is not None and (base.size == 0 or base.lo < bounds.eff_very_high())
        )
    return False


class TestAuditMatchesReference:
    """The table-driven audits against the per-axiom searches they replaced."""

    def test_seeded_sweep(self):
        rng = random.Random(2000)
        tally = {"witness": 0, "none": 0, "error": 0, "refused": 0}
        for case in range(600):
            axiom = list(AxiomId)[case % len(AxiomId)]
            swf = rng.choice(
                [TotalWelfare(), AverageWelfare(), CriticalLevel(rng.choice(_LEVEL_POOL))]
            )
            for max_count in (3, 2, 1):
                bounds = _random_bounds(rng, max_count)
                try:
                    if _estimate(reference_audit_swf, swf, axiom, bounds) <= 4000:
                        break
                except (ValueError, InvalidInstanceError):
                    break
            expected = _outcome(reference_audit_swf, swf, axiom, bounds)
            got = _outcome(audit_swf, swf, axiom, bounds)
            if isinstance(got, dict):
                # Rebuilt outside an audit, the witness passes every clause.
                witness = audit_swf(swf, axiom, bounds)
                assert dataclasses.replace(witness.instance) == witness.instance
            if got is InvalidInstanceError and expected is None:
                # The parent enumerated nothing and reported a vacuous clean
                # result; the fixed premise now refuses the grid up front.
                assert _fixed_premise_fails(axiom, bounds), (axiom, bounds)
                tally["refused"] += 1
                continue
            if isinstance(expected, type):
                assert isinstance(got, type) and issubclass(got, expected), (axiom, bounds)
                tally["error"] += 1
                continue
            assert got == expected, (axiom, swf, bounds)
            tally["witness" if expected else "none"] += 1
        assert min(tally["witness"], tally["none"], tally["error"]) > 0, tally

    @pytest.mark.parametrize("axiom", list(AxiomId))
    @pytest.mark.parametrize("max_groups", [1, 2])
    def test_estimates(self, axiom, max_groups):
        for levels, max_count in (((-2, -1, 1, 2, 3), 3), ((-1, 1, 4, 9), 4)):
            bounds = SearchBounds(levels=levels, max_count=max_count, max_groups=max_groups)
            parent = _estimate(reference_audit_swf, TotalWelfare(), axiom, bounds)
            got = _estimate(audit_swf, TotalWelfare(), axiom, bounds)
            n = len(levels)
            space2 = sum(math.comb(n, k) * max_count**k for k in range(2, max_groups + 1))
            if axiom is AxiomId.AVOID_VERY_ANTI_EGALITARIAN:
                # uniform populations of 2..max_count people, not 1..max_count
                assert got == n * (max_count - 1) * space2 <= parent
            elif axiom is AxiomId.INEQUALITY_AVERSION:
                # tier counts a < c: C(max_count, 2) pairs, not max_count^2
                assert got == math.comb(n, 2) * math.comb(max_count, 2) * n < parent
            else:
                assert got == parent


class TestTileSize:
    """Audit outcomes do not depend on how many bindings a tile holds."""

    @staticmethod
    def _outcomes(monkeypatch, swf, axiom, bounds):
        outcomes = []
        for block in (axioms._BLOCK, 1, 7, 64):
            monkeypatch.setattr(axioms, "_BLOCK", block)
            outcomes.append(_outcome(audit_swf, swf, axiom, bounds))
        return outcomes

    def test_seeded_grids(self, monkeypatch):
        tally = {"witness": 0, "none": 0, "error": 0}
        for swf, axiom, bounds in _seeded_audits(random.Random(2100), 300):
            default, *others = self._outcomes(monkeypatch, swf, axiom, bounds)
            assert others == [default] * 3, (axiom, swf, bounds)
            tally["witness" if isinstance(default, dict) else "error" if default else "none"] += 1
        assert min(tally.values()) > 10, tally

    def test_quality_rows_across_tiles(self, monkeypatch):
        bounds = SearchBounds(levels=("1/2", 1, 2), max_count=3, max_groups=2, very_low=1)
        default, *others = self._outcomes(monkeypatch, CriticalLevel(-1), AxiomId.QUALITY, bounds)
        assert others == [default] * 3
        assert default["note"].startswith("all 3 perfectly equal very-high candidates")


_TABLE_POOL = _LEVEL_POOL + [Fraction(1, 10**30), Fraction(-7, 10**25 + 1), Fraction(3, 10**20)]


def _table_grid(rng):
    """A grid for the stream-table checks: up to five levels, huge
    denominators among them, ``max_groups`` up to 4, and a base whose levels
    may lie off the grid."""
    kwargs = {
        "levels": rng.sample(_TABLE_POOL, rng.randint(1, 5)),
        "max_count": rng.randint(1, 3),
        "max_groups": rng.randint(1, 4),
        "budget": 10**7,
    }
    for key in ("very_high", "very_low", "torture_max"):
        if rng.random() < 0.3:
            kwargs[key] = rng.choice(_TABLE_POOL)
    if rng.random() < 0.4:
        kwargs["base"] = Population(
            (rng.choice(_TABLE_POOL + [Fraction(7), Fraction(-9)]), rng.randint(1, 3))
            for _ in range(rng.randint(1, 2))
        )
    return SearchBounds(**kwargs)


class TestStreamTables:
    """Population streams copy their rows from memoised per-shape tables."""

    @staticmethod
    def _streams(row, bounds):
        fixed = {name: getattr(bounds, f"eff_{name}")() for name in row.thresholds}
        return row.streams(bounds, **fixed)

    def test_rows_match_the_reference_builders(self, monkeypatch):
        kept_seen = []
        positions = SearchBounds.positions

        def recording(bounds, keep=None):
            kept = positions(bounds, keep)
            kept_seen.append((len(kept), len(bounds.levels)))
            return kept

        monkeypatch.setattr(SearchBounds, "positions", recording)
        rng = random.Random(3300)
        tally = {"off_grid_base": 0, "object_units": 0, "groups_above_kept": 0}
        for case in range(200):
            bounds, start = _table_grid(rng), len(kept_seen)
            tally["off_grid_base"] += len(bounds.alphabet) > len(bounds.levels)
            for axiom in AxiomId:
                row = axioms.AXIOMS[axiom]
                try:
                    got = self._streams(row, bounds)
                except InvalidValueError:
                    continue  # no level can serve as a default threshold
                with monkeypatch.context() as patch:
                    patch.setattr(axioms, "_populations", reference_stream_populations)
                    want = (reference_two_tier(bounds) if row.streams is axioms._two_tier
                            else self._streams(row, bounds))
                assert got.keys() == want.keys()
                for name, stream in got.items():
                    if not isinstance(stream, axioms.Stream):
                        assert stream == want[name]
                        continue
                    assert stream.size == want[name].size, (axiom, name, bounds)
                    rows, expected = stream.build(), want[name].build()
                    if isinstance(expected, np.ndarray):
                        assert rows.dtype == expected.dtype == np.int64
                        assert rows.shape == expected.shape, (axiom, name, bounds)
                        assert (rows == expected).all(), (axiom, name, bounds)
                    else:
                        assert list(rows) == list(expected)
                try:
                    plan = axioms._plan(row, TotalWelfare(), bounds)[2]
                except (BoundsTooLargeError, InvalidInstanceError):
                    continue
                units = [v.units for _, _, v, _ in plan if isinstance(v, axioms.Counts)]
                tally["object_units"] += any(u.dtype == object for u in units)
            tally["groups_above_kept"] += any(k < bounds.max_groups for k, _ in kept_seen[start:])
        kept = {k if k < 2 else "all" if k == n else "some" for k, n in kept_seen}
        assert kept == {0, 1, "some", "all"}, kept
        assert min(tally.values()) > 10, tally

    def test_outcomes_do_not_depend_on_the_memo(self):
        cases = _seeded_audits(random.Random(3301), 300)
        cold = []
        for case in cases:
            axioms._TABLES.clear()
            cold.append(_outcome(audit_swf, *case))
        axioms._TABLES.clear()
        warm = [_outcome(audit_swf, *case) for case in cases]
        backwards = [_outcome(audit_swf, *case) for case in reversed(cases)][::-1]
        assert warm == cold
        assert backwards == cold
        kinds = [
            "witness" if isinstance(o, dict) else "error" if o else "none" for o in cold
        ]
        assert min(kinds.count(k) for k in ("witness", "error", "none")) > 10, kinds
        assert axioms._TABLES
        for table in axioms._TABLES.values():
            with pytest.raises(ValueError):
                table[...] = 0

    def test_memo_retains_a_bounded_set_of_small_tables(self):
        axioms._TABLES.clear()
        crowd = SearchBounds(levels=range(1, 13), max_count=40, very_low=11, budget=10**7)
        stream = self._streams(axioms.AXIOMS[AxiomId.AVOID_REPUGNANT], crowd)["crowd"]
        assert stream.size == 88_440
        rows = stream.build()
        assert rows.shape == (88_440, 12) and rows.flags.writeable
        assert audit_swf(AverageWelfare(), AxiomId.AVOID_REPUGNANT, crowd) is None
        assert all(table.size <= axioms._BLOCK for table in axioms._TABLES.values())
        shapes = 0
        for n in range(1, 9):
            for max_count in range(1, 11):
                bounds = SearchBounds(levels=range(1, n + 1), max_count=max_count, max_groups=1)
                assert audit_swf(TotalWelfare(), AxiomId.DOMINANCE, bounds) is None
                shapes += 1
        assert shapes > axioms._TABLE_LIMIT
        assert len(axioms._TABLES) == axioms._TABLE_LIMIT
        assert all(table.size <= axioms._BLOCK for table in axioms._TABLES.values())
