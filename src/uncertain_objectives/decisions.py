"""Decision rules over uncertain objectives.

Given a distribution over total orders, ``prob_best`` turns pairwise beliefs
into exact best-action probabilities, and two rules consume them: the margin
rule acts only when the leader beats the runner-up by at least delta and
otherwise abstains for supervision; the quantilized rule samples an action,
weighted by its probability of being best, among those clearing a threshold
tau.  For objectives that are only partially ordered there is no probability
mass to lean on, so the partial-order rule acts when a unique maximal action
exists and otherwise applies a configured fallback: abstain, pick uniformly
among the maximal set, or declare them tied.

Sampling rules take an explicit seed and draw through their own generator,
so outcomes are reproducible bit-for-bit.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .beliefs import OrderDistribution
from .constraints import PartialOrder
from .errors import EmptyActionSetError, InvalidValueError
from .rationals import as_rational, format_rational, integer_weights


class OutcomeKind(enum.Enum):
    ACT = "act"
    ABSTAIN = "abstain"
    TIE = "tie"


class PartialPolicy(enum.Enum):
    ABSTAIN = "abstain"
    RANDOM_AMONG_MAXIMAL = "random_among_maximal"
    TREAT_AS_EQUAL = "treat_as_equal"

    @classmethod
    def _missing_(cls, value):
        raise InvalidValueError(f"policy must be one of {[p.value for p in cls]}, got {value!r}")


@dataclass(frozen=True)
class DecisionOutcome:
    kind: OutcomeKind
    world: str | None = None
    justification: str = ""
    margin: object = None  # leader-minus-runner-up probability, margin rule only
    candidates: tuple[str, ...] = ()
    probabilities: dict | None = None

    def to_json(self) -> dict:
        return {
            "outcome": self.kind.value,
            "world": self.world,
            "justification": self.justification,
            "margin": format_rational(self.margin),
            "candidates": list(self.candidates),
            "prob_best": (
                {k: format_rational(v) for k, v in sorted(self.probabilities.items())}
                if self.probabilities is not None
                else None
            ),
        }


# Each rule kind and the parameter it needs.
_RULE_PARAMETERS = {"margin": "delta", "quantilized": "tau", "partial": "policy"}


@dataclass(frozen=True)
class RuleConfig:
    kind: str  # a key of _RULE_PARAMETERS
    delta: object = None
    tau: object = None
    policy: PartialPolicy | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("delta", "tau"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, as_rational(getattr(self, name)))
        if self.policy is not None:
            object.__setattr__(self, "policy", PartialPolicy(self.policy))
        if not isinstance(self.kind, str) or self.kind not in _RULE_PARAMETERS:
            raise InvalidValueError(
                f"rule kind must be margin, quantilized, or partial, got {self.kind!r}"
            )
        needed = _RULE_PARAMETERS[self.kind]
        if getattr(self, needed) is None:
            raise InvalidValueError(f"{self.kind} rule needs {needed}")
        for name in ("delta", "tau"):
            value = getattr(self, name)
            if value is not None and not 0 <= value <= 1:
                raise InvalidValueError(f"{name} must lie in [0, 1], got {value}")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "delta": format_rational(self.delta),
            "tau": format_rational(self.tau),
            "policy": self.policy.value if self.policy else None,
            "seed": self.seed,
        }


def _checked_actions(actions, available) -> tuple[str, ...]:
    acts = tuple(sorted(set(actions)))
    if not acts:
        raise EmptyActionSetError("at least one candidate action is required")
    missing = [a for a in acts if a not in available]
    if missing:
        raise EmptyActionSetError(f"actions not in the world set: {missing}")
    return acts


def prob_best(d: OrderDistribution, actions) -> dict:
    """P(action ranks above every other candidate), for each candidate.

    Orders are strict, so each one crowns exactly one candidate and the
    returned values sum to exactly 1.
    """
    acts = _checked_actions(actions, set(d.worlds))
    out = dict.fromkeys(acts, type(d.probs[0])(0))
    act_set = set(acts)
    for order, p in zip(d.orders, d.probs):
        for w in order:  # best-first: the first candidate hit wins
            if w in act_set:
                out[w] = out[w] + p
                break
    return out


def _ranked(probs: dict) -> list[tuple[str, object]]:
    """Probability-descending, world-id ascending within exact ties."""
    return sorted(sorted(probs.items()), key=lambda kv: kv[1], reverse=True)


def decide_margin(d: OrderDistribution, actions, delta) -> DecisionOutcome:
    """Act on the most-likely-best action when it clears the margin.

    The leader must beat the runner-up probability by at least ``delta``;
    otherwise abstain and report the measured margin.  Exact ties at the top
    with delta = 0 fall to the smallest world id, a deterministic choice in
    preference to hidden nondeterminism.
    """
    probs = prob_best(d, actions)
    ranked = _ranked(probs)
    top_world, top_p = ranked[0]
    second_p = ranked[1][1] if len(ranked) > 1 else Fraction(0)
    margin = top_p - second_p
    if margin >= delta:
        return DecisionOutcome(
            kind=OutcomeKind.ACT,
            world=top_world,
            justification=f"most likely best with margin {margin} >= delta",
            margin=margin,
            candidates=tuple(probs),
            probabilities=probs,
        )
    return DecisionOutcome(
        kind=OutcomeKind.ABSTAIN,
        justification=f"margin {margin} below delta; requesting supervision",
        margin=margin,
        candidates=tuple(probs),
        probabilities=probs,
    )


def decide_quantilized(d: OrderDistribution, actions, tau, seed: int) -> DecisionOutcome:
    """Sample among actions sufficiently likely to be best.

    Candidates with prob_best >= tau are kept; if none clear the threshold
    the rule abstains, otherwise one is drawn with probability proportional
    to its prob_best, reproducibly for a given seed.
    """
    probs = prob_best(d, actions)
    pool = [(a, p) for a, p in sorted(probs.items()) if p >= tau and p > 0]
    if not pool:
        return DecisionOutcome(
            kind=OutcomeKind.ABSTAIN,
            justification=f"no action reaches likelihood threshold tau={tau}",
            candidates=tuple(probs),
            probabilities=probs,
        )
    # Float probabilities are drawn by their exact binary values.
    weights, _ = integer_weights([Fraction(p) for _, p in pool])
    draw = random.Random(seed).randrange(sum(weights))
    choice = next(a for (a, _), acc in zip(pool, itertools.accumulate(weights)) if draw < acc)
    return DecisionOutcome(
        kind=OutcomeKind.ACT,
        world=choice,
        justification=f"sampled among {len(pool)} actions with prob_best >= {tau}",
        candidates=tuple(a for a, _ in pool),
        probabilities=probs,
    )


def decide_partial(
    po: PartialOrder, actions, policy: PartialPolicy, seed: int = 0
) -> DecisionOutcome:
    """Act on the unique maximal action of a partial order, else fall back.

    With several maximal candidates the policy decides: abstain with the
    tied set attached, pick uniformly at random among them (seeded), or
    report them as an explicit tie.
    """
    acts = _checked_actions(actions, set(po.worlds))
    maximal = tuple(sorted(po.maximal_elements(acts)))
    if len(maximal) == 1:
        return DecisionOutcome(
            kind=OutcomeKind.ACT,
            world=maximal[0],
            justification="unique maximal action under the partial order",
            candidates=maximal,
        )
    if policy is PartialPolicy.ABSTAIN:
        return DecisionOutcome(
            kind=OutcomeKind.ABSTAIN,
            justification="several maximal actions are mutually incomparable",
            candidates=maximal,
        )
    if policy is PartialPolicy.RANDOM_AMONG_MAXIMAL:
        rng = random.Random(seed)
        return DecisionOutcome(
            kind=OutcomeKind.ACT,
            world=maximal[rng.randrange(len(maximal))],
            justification=f"chose uniformly among {len(maximal)} maximal actions",
            candidates=maximal,
        )
    return DecisionOutcome(
        kind=OutcomeKind.TIE,
        justification="treating all maximal actions as equally good",
        candidates=maximal,
    )
