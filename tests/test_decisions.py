import random
from fractions import Fraction as F

import pytest

from uncertain_objectives import (
    OrderDistribution,
    OutcomeKind,
    PartialPolicy,
    RuleConfig,
    UncertaintyPattern,
    decide_margin,
    decide_partial,
    decide_quantilized,
    partial_order_from,
    prob_best,
    rotation_mixture,
)
from uncertain_objectives.beliefs import FLOAT_TOL
from uncertain_objectives.constraints import ConstraintGraph, PartialOrder
from uncertain_objectives.errors import EmptyActionSetError, InvalidValueError

from conftest import random_distribution

def as_floats(d):
    return OrderDistribution(d.orders, [float(p) for p in d.probs])


POINT_MASS = OrderDistribution(orders=[("x3", "x2", "x1")], probs=[F(1)])
ROTATIONS = rotation_mixture(3)


class TestProbBest:
    def test_point_mass(self):
        probs = prob_best(POINT_MASS, ("x1", "x2", "x3"))
        assert probs == {"x3": F(1), "x2": F(0), "x1": F(0)}

    def test_uniform_rotations(self):
        probs = prob_best(ROTATIONS, ("x1", "x2", "x3"))
        assert probs == {"x1": F(1, 3), "x2": F(1, 3), "x3": F(1, 3)}

    def test_singleton_action(self):
        assert prob_best(POINT_MASS, ("x1",)) == {"x1": F(1)}

    def test_restricted_action_set(self):
        # Dropping the global winner promotes the runner-up.
        assert prob_best(POINT_MASS, ("x1", "x2")) == {"x2": F(1), "x1": F(0)}

    def test_sums_to_one_exactly(self):
        rng = random.Random(31)
        for _ in range(200):
            d = random_distribution(rng, rng.randint(2, 6), rng.randint(1, 10))
            acts = d.worlds[: rng.randint(1, len(d.worlds))]
            assert sum(prob_best(d, acts).values()) == F(1)

    def test_float_matches_exact_within_tolerance(self):
        rng = random.Random(32)
        for _ in range(200):
            d = random_distribution(rng, rng.randint(2, 6), rng.randint(1, 10))
            acts = d.worlds[: rng.randint(1, len(d.worlds))]
            exact = prob_best(d, acts)
            approx = prob_best(as_floats(d), acts)
            assert all(type(p) is float for p in approx.values())
            assert all(abs(approx[a] - exact[a]) <= FLOAT_TOL for a in acts)

    def test_empty_actions_rejected(self):
        with pytest.raises(EmptyActionSetError):
            prob_best(POINT_MASS, ())
        with pytest.raises(EmptyActionSetError):
            prob_best(POINT_MASS, ("nope",))


class TestDecideMargin:
    def test_point_mass_acts(self):
        outcome = decide_margin(POINT_MASS, ("x1", "x2", "x3"), F(1, 2))
        assert outcome.kind is OutcomeKind.ACT
        assert outcome.world == "x3"
        assert outcome.margin == F(1)

    def test_rotations_abstain(self):
        outcome = decide_margin(ROTATIONS, ("x1", "x2", "x3"), F(1, 10))
        assert outcome.kind is OutcomeKind.ABSTAIN
        assert outcome.margin == F(0)

    def test_zero_delta_always_acts(self):
        d = OrderDistribution(
            orders=[("a", "b"), ("b", "a")], probs=[F(2, 3), F(1, 3)]
        )
        outcome = decide_margin(d, ("a", "b"), F(0))
        assert outcome.kind is OutcomeKind.ACT and outcome.world == "a"

    def test_exact_tie_at_zero_delta_uses_id_order(self):
        outcome = decide_margin(ROTATIONS, ("x1", "x2", "x3"), F(0))
        assert outcome.kind is OutcomeKind.ACT
        assert outcome.world == "x1"

    def test_delta_one_requires_certainty(self):
        rng = random.Random(17)
        for _ in range(100):
            d = random_distribution(rng, 3, rng.randint(1, 6))
            outcome = decide_margin(d, d.worlds, F(1))
            if outcome.kind is OutcomeKind.ACT:
                assert prob_best(d, d.worlds)[outcome.world] == F(1)

    def test_equivariance_under_relabeling(self):
        # With a unique argmax, permuting world ids permutes the action.
        rng = random.Random(23)
        checked = 0
        while checked < 60:
            d = random_distribution(rng, 4, rng.randint(1, 8))
            probs = prob_best(d, d.worlds)
            ranked = sorted(probs.values(), reverse=True)
            if ranked[0] == ranked[1]:
                continue
            mapping = dict(zip(d.worlds, rng.sample(["p", "q", "r", "s"], 4)))
            relabeled = OrderDistribution(
                orders=[tuple(mapping[w] for w in o) for o in d.orders],
                probs=d.probs,
            )
            base = decide_margin(d, d.worlds, F(1, 100))
            moved = decide_margin(relabeled, relabeled.worlds, F(1, 100))
            assert moved.kind is base.kind
            if base.kind is OutcomeKind.ACT:
                assert moved.world == mapping[base.world]
            checked += 1


class TestDecideQuantilized:
    def test_high_threshold_abstains_on_rotations(self):
        outcome = decide_quantilized(ROTATIONS, ("x1", "x2", "x3"), F(9, 10), seed=1)
        assert outcome.kind is OutcomeKind.ABSTAIN

    def test_point_mass_acts_for_any_tau(self):
        for tau in (F(0), F(1, 2), F(1)):
            outcome = decide_quantilized(POINT_MASS, ("x1", "x2", "x3"), tau, seed=5)
            assert outcome.kind is OutcomeKind.ACT and outcome.world == "x3"

    def test_seeded_reproducibility(self):
        outcomes = {
            decide_quantilized(ROTATIONS, ("x1", "x2", "x3"), F(0), seed=42).world
            for _ in range(10)
        }
        assert len(outcomes) == 1

    @pytest.mark.parametrize("number_type", [F, float])
    def test_sampling_frequencies_track_prob_best(self, number_type):
        d = OrderDistribution(
            orders=[("a", "b", "c"), ("b", "a", "c"), ("c", "b", "a")],
            probs=[number_type(p) for p in (F(1, 2), F(1, 3), F(1, 6))],
        )
        probs = prob_best(d, ("a", "b", "c"))
        n = 10_000
        counts = {"a": 0, "b": 0, "c": 0}
        for seed in range(n):
            out = decide_quantilized(d, ("a", "b", "c"), F(0), seed=seed)
            counts[out.world] += 1
        for world, p in probs.items():
            p = float(p)
            sigma = (p * (1 - p) / n) ** 0.5
            assert abs(counts[world] / n - p) <= 3 * sigma


WEAKENED_CYCLE = partial_order_from(
    ConstraintGraph.from_edges(
        [("w1", "w2", "C1"), ("w2", "w3", "C2"), ("w3", "w1", "C3")]
    ),
    UncertaintyPattern((1, 2)),
)


class TestDecidePartial:
    def test_total_chain_acts_on_maximum(self):
        po = PartialOrder.from_ranking(("best", "mid", "worst"))
        outcome = decide_partial(po, ("best", "mid", "worst"), PartialPolicy.ABSTAIN)
        assert outcome.kind is OutcomeKind.ACT and outcome.world == "best"

    def test_weakened_cycle_abstains_with_maximal_set(self):
        # Kept edge w1 <= w2; w3 is incomparable to both, so w2 and w3 are
        # the maximal candidates.
        outcome = decide_partial(
            WEAKENED_CYCLE, ("w1", "w2", "w3"), PartialPolicy.ABSTAIN
        )
        assert outcome.kind is OutcomeKind.ABSTAIN
        assert outcome.candidates == ("w2", "w3")

    def test_treat_as_equal_reports_tie(self):
        outcome = decide_partial(
            WEAKENED_CYCLE, ("w1", "w2", "w3"), PartialPolicy.TREAT_AS_EQUAL
        )
        assert outcome.kind is OutcomeKind.TIE
        assert outcome.candidates == ("w2", "w3")

    def test_random_among_maximal_seeded(self):
        picks = {
            decide_partial(
                WEAKENED_CYCLE, ("w1", "w2", "w3"),
                PartialPolicy.RANDOM_AMONG_MAXIMAL, seed=s,
            ).world
            for s in range(30)
        }
        assert picks == {"w2", "w3"}
        one = decide_partial(
            WEAKENED_CYCLE, ("w1", "w2", "w3"),
            PartialPolicy.RANDOM_AMONG_MAXIMAL, seed=9,
        )
        two = decide_partial(
            WEAKENED_CYCLE, ("w1", "w2", "w3"),
            PartialPolicy.RANDOM_AMONG_MAXIMAL, seed=9,
        )
        assert one.world == two.world

    def test_maximal_elements_match_bruteforce(self):
        import random as rnd

        from uncertain_objectives import valid_uncertainty_patterns
        from conftest import random_graph

        rng = rnd.Random(63)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 6))
            patterns = valid_uncertainty_patterns(g, len(g.edges), budget=50_000)
            po = partial_order_from(g, patterns[0])
            for size in (1, 2, len(po.worlds)):
                subset = rng.sample(po.worlds, min(size, len(po.worlds)))
                got = set(po.maximal_elements(subset))
                brute = {
                    a
                    for a in subset
                    if not any(
                        po.verdict(a, b).value == "less" for b in subset if b != a
                    )
                }
                assert got == brute


class TestRuleConfig:
    @pytest.mark.parametrize(
        "kind,parameter,value",
        [("margin", "delta", F(1, 10)), ("quantilized", "tau", F(1, 2)),
         ("partial", "policy", PartialPolicy.ABSTAIN)],
    )
    def test_each_kind_needs_its_parameter(self, kind, parameter, value):
        assert getattr(RuleConfig(kind, **{parameter: value}), parameter) == value
        with pytest.raises(InvalidValueError, match=f"^{kind} rule needs {parameter}$"):
            RuleConfig(kind)

    def test_fields_convert_themselves(self):
        assert RuleConfig(kind="margin", delta="1/2").delta == F(1, 2)
        assert RuleConfig(kind="quantilized", tau=0.25).tau == F(1, 4)
        assert RuleConfig(kind="partial", policy="abstain").policy is PartialPolicy.ABSTAIN
        with pytest.raises(InvalidValueError, match="not a rational: 'x'"):
            RuleConfig(kind="quantilized", delta="x")

    @pytest.mark.parametrize("name", ["nope", ["x"], None])
    def test_unknown_policy_is_a_value_error(self, name):
        message = ("policy must be one of ['abstain', 'random_among_maximal', "
                   f"'treat_as_equal'], got {name!r}")
        with pytest.raises(InvalidValueError) as info:
            PartialPolicy(name)
        assert isinstance(info.value, ValueError) and str(info.value) == message

    @pytest.mark.parametrize("kind", ["vote", "", None, ["margin"]])
    def test_unknown_kind_is_refused(self, kind):
        with pytest.raises(InvalidValueError, match="rule kind must be margin, quantilized"):
            RuleConfig(kind, delta=F(1, 2), tau=F(1, 2), policy=PartialPolicy.ABSTAIN)
