"""Executable adequacy conditions over populations.

Ten conditions are encoded.  Four come from the equality/addition family:

* quality - some perfectly equal, very-high-welfare population is at least
  as good as any population of very-low-positive welfare.
* inequality_aversion - a perfectly equal population at an intermediate
  level, of matching size, is at least as good as a two-tier population.
* egalitarian_dominance - a perfectly equal population pointwise above an
  equally sized one is strictly better.
* dominance_addition - adding positive-welfare lives while raising everyone
  else never makes a population worse.

Six are "avoid the problematic verdict" conditions, the negations of the
classic conclusions that every total ordering must otherwise accept:

* avoid_repugnant - a huge population of barely-positive lives must not
  beat a small very-happy one.
* avoid_sadistic - adding a few horribly tortured people must not beat
  adding many people with positive welfare.
* avoid_very_anti_egalitarian - a same-size population with lower total and
  average welfare and more inequality must not win strictly.
* dominance - pointwise-happier (at equal size) must not be ranked worse.
* addition - if adding a worse-off group is bad, adding an even larger and
  even worse-off group must not be better.
* priority_compensation - for some n, creating n very-high-welfare lives
  compensates one person's drop from very-low-positive to slightly
  negative welfare.

Informal magnitudes ("very high", "very low positive", "horribly tortured")
are explicit rational thresholds carried by each instance.  Universally
quantified conditions are audited by bounded exhaustive search over a welfare
grid, so a clean audit certifies only the searched space.

Each condition is written once, as one ``AxiomRow`` of the ``AXIOMS`` table:
its strictness, its scenario fields, its premise as clauses that each name
the components (populations and thresholds) they read, and its audit's
component streams, each with a closed-form size.  A premise world built from
other components (``addition``'s b-added world, say) is a derivation clause,
whose test computes it.  One constructor, ``make_instance``, builds every
instance from its row alone: the fields in the row's order, the claim and
gate from its roles, derived worlds from its derivation clauses, and every
clause checked.  The ten ``*_instance`` names bind it to one axiom each;
``scenario`` parses a constraint by reading the row's fields and calls it,
and ``audit_swf`` walks the streams in nested lexicographic order, runs each
clause at the first depth that binds all of its components, and scores the
populations of each complete binding, deriving worlds there.  It builds one
instance, the witness, and returns it only once it replays.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import comb, prod
from typing import Callable, Iterable, Iterator, NamedTuple

from .constraints import ConstraintGraph, Edge
from .errors import (
    BoundsTooLargeError,
    ConflictingWorldIdsError,
    InvalidInstanceError,
    InvalidValueError,
)
from .ordering import Verdict
from .populations import (
    EMPTY_POPULATION,
    Population,
    SwfKind,
    World,
    pointwise_dominates,
    swf_compare,
    swf_label,
    swf_order,
    total_welfare,
)
from .rationals import as_rational, format_rational


class AxiomId(enum.Enum):
    QUALITY = "quality"
    INEQUALITY_AVERSION = "inequality_aversion"
    EGALITARIAN_DOMINANCE = "egalitarian_dominance"
    DOMINANCE_ADDITION = "dominance_addition"
    AVOID_REPUGNANT = "avoid_repugnant"
    AVOID_SADISTIC = "avoid_sadistic"
    AVOID_VERY_ANTI_EGALITARIAN = "avoid_very_anti_egalitarian"
    DOMINANCE = "dominance"
    ADDITION = "addition"
    PRIORITY_COMPENSATION = "priority_compensation"


class CheckResult(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    UNCERTAINLY_SATISFIED = "uncertainly_satisfied"


OrderFn = Callable[[World, World], Verdict]

# Scenario field kinds of literal values; a world field's kind is a ``WorldField``.
POPULATION, RATIONAL, COUNT = "population", "rational", "count"


class WorldField(NamedTuple):
    """Field kind of a premise world, the component of the same name, whose
    id in an audit witness is ``id``.  A world that ``make_instance`` derives
    from other fields has a ``keyword``, which takes its id in place of
    ``id``."""

    id: str
    keyword: str | None = None


class Clause(NamedTuple):
    """One premise condition on the components named by ``reads``:
    ``apply(env)`` runs its test on a dict of components.  A plain clause
    holds when its test does.  A derivation clause's test computes the world
    it ``derives`` from the parts it reads, and the clause holds when that
    world is the one in ``env``.  ``holds(env)`` applies either kind."""

    reads: tuple[str, ...]
    message: str
    apply: Callable[[dict], object]
    holds: Callable[[dict], bool]
    derives: str | None


def _clauses(*specs) -> tuple[Clause, ...]:
    """Clauses from (reads, test, message) triples: ``reads`` names the
    components, space-separated, after ``"world = "`` for a derivation."""
    clauses = []
    for reads, test, message in specs:
        world, _, parts = reads.rpartition(" = ")
        apply = _holds(parts.split(), test)
        holds = (lambda env, w=world, apply=apply: env[w] == apply(env)) if world else apply
        clauses.append(Clause(tuple(parts.split()), message, apply, holds, world or None))
    return tuple(clauses)


def _holds(reads: list[str], test: Callable[..., object]) -> Callable[[dict], object]:
    # ``test`` of the components ``reads`` names: a condition, or a derived
    # world.  Audits run clauses once per binding.  Reading one or two
    # components directly, not through star-arguments, keeps the
    # sub-millisecond audits as fast as the hand-written loops they replace.
    if len(reads) == 1:
        (a,) = reads
        return lambda env: test(env[a])
    if len(reads) == 2:
        a, b = reads
        return lambda env: test(env[a], env[b])
    return lambda env: test(*[env[r] for r in reads])


def _require_all(clauses: Iterable[Clause], env: dict):
    for clause in clauses:
        if not clause.holds(env):
            raise InvalidInstanceError(clause.message)


def _derive(clauses: Iterable[Clause], env: dict) -> dict:
    """``env`` with each world the derivation clauses among ``clauses``
    compute from it."""
    for clause in clauses:
        if clause.derives:
            env[clause.derives] = clause.apply(env)
    return env


class Stream(NamedTuple):
    """An audit component's candidates in enumeration order and their number
    in closed form.  ``items`` may instead be a function of the outer
    components' binding (a dict) that gives the candidates for it."""

    size: int
    items: Iterable | Callable[[dict], Iterable]


@dataclass(frozen=True)
class AxiomRow:
    """One adequacy condition, declared once.

    ``fields`` maps each scenario field, in document order, to its kind;
    every field is the component of the same name, and ``make_instance``
    takes them in that order.  ``roles`` names the world fields of the
    claim's (worse, better) worlds, then of the gate's (world, baseline) for
    a gated axiom.  ``streams(bounds, **thresholds)``, given the grid's
    effective ``thresholds``, gives the audit's components outermost first:
    a ``Stream`` is enumerated, any other value is fixed.  ``search``
    replaces the universal search for the two existential axioms.
    """

    strict: bool
    roles: tuple[str, ...]
    fields: dict
    clauses: tuple[Clause, ...]
    streams: Callable[..., dict]
    thresholds: tuple[str, ...] = ()
    search: Callable | None = None


@dataclass(frozen=True)
class AxiomInstance:
    """One concrete configuration of an axiom's premise.

    The instance requires the verdict "claim_better is at least as good as
    claim_worse" (strictly better for strict axioms).  The addition axiom is
    conditional: its claim only binds when the gate comparison (worse of the
    gate pair ranked strictly below the better) holds.
    """

    axiom: AxiomId
    worlds: tuple[World, ...]
    claim_worse: str
    claim_better: str
    strict: bool
    params: dict = field(default_factory=dict)
    gate: tuple[str, str] | None = None  # (world, baseline): gate holds when world < baseline

    def __post_init__(self):
        ids = [w.id for w in self.worlds]
        if len(set(ids)) != len(ids):
            raise InvalidInstanceError(f"duplicate world ids in instance: {ids}")
        if self.claim_worse not in ids or self.claim_better not in ids:
            raise InvalidInstanceError("claim endpoints must be premise worlds")
        row = AXIOMS[self.axiom]
        if self.strict != row.strict:
            raise InvalidInstanceError(
                f"{self.axiom.value} must be {'strict' if row.strict else 'non-strict'}"
            )
        role_ids = (self.claim_worse, self.claim_better) + (self.gate or ())
        if len(role_ids) < len(row.roles):
            raise InvalidInstanceError(f"{self.axiom.value} instances carry a gate comparison")
        env = dict(self.params)
        env.update((role, self.world(wid).population) for role, wid in zip(row.roles, role_ids))
        _require_all(row.clauses, env)

    def world(self, world_id: str) -> World:
        for w in self.worlds:
            if w.id == world_id:
                return w
        raise KeyError(world_id)

    def to_json(self) -> dict:
        def fmt(v):
            return v.to_json() if isinstance(v, Population) else format_rational(v)

        return {
            "axiom": self.axiom.value,
            "worlds": {w.id: w.population.to_json() for w in self.worlds},
            "claim": {
                "worse": self.claim_worse,
                "better": self.claim_better,
                "strict": self.strict,
            },
            "gate": list(self.gate) if self.gate else None,
            "params": {k: fmt(v) for k, v in sorted(self.params.items())},
        }


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def make_instance(axiom: AxiomId, *fields, **named) -> AxiomInstance:
    """An instance of ``axiom`` built from its row.

    Fields follow the order of ``row.fields``, positionally or by name.  A
    world field takes a ``World``, or a population, which gets the field's
    id.  A world the row's clauses derive may be left out; one with a
    ``keyword`` must be, and that keyword may give its id.  Rational fields
    go through ``as_rational``, and the fields that are not worlds are the
    params.  Clauses that read only given fields run before any world is
    derived, so a bad field fails its own clause.
    """
    row = AXIOMS[axiom]
    keywords = {
        kind.keyword: key for key, kind in row.fields.items()
        if isinstance(kind, WorldField) and kind.keyword
    }
    names = [key for key in row.fields if key not in keywords.values()]
    env, ids = dict(zip(names, fields)), {}
    for name, value in named.items():
        if name in keywords:
            ids[keywords[name]] = value
        elif name in names and name not in env:
            env[name] = value
        else:
            raise TypeError(f"{axiom.value} got an unexpected or repeated field {name!r}")
    missing = row.fields.keys() - env.keys() - {clause.derives for clause in row.clauses}
    if missing or len(fields) > len(names):
        raise TypeError(f"{axiom.value} takes the fields {names}; missing {sorted(missing)}")
    worlds, params = {}, {}
    for key, kind in row.fields.items():
        if not isinstance(kind, WorldField):
            params[key] = env[key] = as_rational(env[key]) if kind == RATIONAL else env[key]
        elif key not in env:
            worlds[key] = None  # derived below
        else:
            world = env[key] if isinstance(env[key], World) else World(kind.id, env[key])
            worlds[key], env[key] = world, world.population
    if any(world is None for world in worlds.values()):
        _require_all([c for c in row.clauses if not c.derives and env.keys() >= set(c.reads)], env)
        _derive(row.clauses, env)
        for key, world in worlds.items():
            worlds[key] = world or World(ids.get(key, row.fields[key].id), env[key])
    worse, better, *gate = (worlds[role].id for role in row.roles)
    premise = tuple(worlds.values())
    return AxiomInstance(axiom, premise, worse, better, row.strict, params, tuple(gate) or None)


quality_instance = partial(make_instance, AxiomId.QUALITY)
inequality_aversion_instance = partial(make_instance, AxiomId.INEQUALITY_AVERSION)
egalitarian_dominance_instance = partial(make_instance, AxiomId.EGALITARIAN_DOMINANCE)
dominance_addition_instance = partial(make_instance, AxiomId.DOMINANCE_ADDITION)
avoid_repugnant_instance = partial(make_instance, AxiomId.AVOID_REPUGNANT)
avoid_sadistic_instance = partial(make_instance, AxiomId.AVOID_SADISTIC)
avoid_very_anti_egalitarian_instance = partial(make_instance, AxiomId.AVOID_VERY_ANTI_EGALITARIAN)
dominance_instance = partial(make_instance, AxiomId.DOMINANCE)
addition_instance = partial(make_instance, AxiomId.ADDITION)
priority_compensation_instance = partial(make_instance, AxiomId.PRIORITY_COMPENSATION)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

def check_instance(instance: AxiomInstance, order: OrderFn) -> CheckResult:
    """Evaluate the instance's required verdict under a comparison function."""
    claim = order(instance.world(instance.claim_worse), instance.world(instance.claim_better))
    gate = instance.gate and order(*map(instance.world, instance.gate))
    return _result(instance.strict, claim, gate)


def _result(strict: bool, claim: Verdict, gate: Verdict | None) -> CheckResult:
    """The check's result from the claim's verdict (worse vs better) and, for
    a gated axiom, the gate's (world vs baseline).

    The required direction (or equality, for non-strict axioms) is SATISFIED;
    a strict reversal is VIOLATED, as is equality where the axiom demands
    strict preference; incomparability is UNCERTAINLY_SATISFIED.  The gated
    addition axiom is violated only when its gate holds and its claim is
    reversed, with incomparability propagating as uncertainty.
    """
    if gate is not None:
        # Three-valued conjunction of "gate holds" and "claim reversed".
        gate_t = {Verdict.LESS: True, Verdict.INCOMPARABLE: None}.get(gate, False)
        rev_t = {Verdict.GREATER: True, Verdict.INCOMPARABLE: None}.get(claim, False)
        if gate_t is False or rev_t is False:
            return CheckResult.SATISFIED
        if gate_t is True and rev_t is True:
            return CheckResult.VIOLATED
        return CheckResult.UNCERTAINLY_SATISFIED
    if claim is Verdict.INCOMPARABLE:
        return CheckResult.UNCERTAINLY_SATISFIED
    if claim is Verdict.GREATER:
        return CheckResult.VIOLATED
    if claim is Verdict.EQUAL and strict:
        return CheckResult.VIOLATED
    return CheckResult.SATISFIED


# ---------------------------------------------------------------------------
# Bounded audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchBounds:
    """Finite grid an audit quantifies over.

    ``levels`` is the welfare alphabet; populations draw up to ``max_groups``
    distinct levels with per-group counts 1..max_count.  Thresholds default
    to the grid extremes: very_high = max level, very_low = smallest positive
    level, torture_max = most negative level.  ``base`` pins the background
    population for the sadistic and priority-compensation audits.
    """

    levels: tuple[Fraction, ...]
    max_count: int
    max_groups: int = 2
    budget: int = 1_000_000
    very_high: Fraction | None = None
    very_low: Fraction | None = None
    torture_max: Fraction | None = None
    base: Population | None = None

    def __post_init__(self):
        levels = tuple(sorted({as_rational(x) for x in self.levels}))
        if not levels:
            raise InvalidValueError("bounds need at least one welfare level")
        if self.max_count < 1 or self.max_groups < 1:
            raise InvalidValueError("max_count and max_groups must be at least 1")
        object.__setattr__(self, "levels", levels)
        for name in ("max_count", "max_groups", "budget"):
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("very_high", "very_low", "torture_max"):
            value = getattr(self, name)
            object.__setattr__(self, name, as_rational(value) if value is not None else None)

    def eff_very_high(self) -> Fraction:
        if self.very_high is not None:
            return self.very_high
        return self.levels[-1]

    def eff_very_low(self) -> Fraction:
        if self.very_low is not None:
            return self.very_low
        positive = [l for l in self.levels if l > 0]
        if not positive:
            raise InvalidValueError("no positive level in the grid to act as very_low")
        return positive[0]

    def eff_torture_max(self) -> Fraction:
        if self.torture_max is not None:
            return self.torture_max
        if self.levels[0] >= 0:
            raise InvalidValueError("no negative level in the grid to act as torture_max")
        return self.levels[0]

    def to_json(self) -> dict:
        return {
            "levels": [format_rational(l) for l in self.levels],
            "max_count": self.max_count,
            "max_groups": self.max_groups,
            "budget": self.budget,
            "very_high": format_rational(self.eff_very_high()),
            "very_low": format_rational(self.very_low),
            "torture_max": format_rational(self.torture_max),
            "base": self.base.to_json() if self.base else None,
        }


def _kept(bounds: SearchBounds, keep) -> tuple[Fraction, ...]:
    return tuple(l for l in bounds.levels if keep is None or keep(l))


def _levels(bounds: SearchBounds, keep) -> Stream:
    levels = _kept(bounds, keep)
    return Stream(len(levels), levels)


def _populations(bounds: SearchBounds, keep=None, min_groups: int = 1) -> Stream:
    """All populations over the kept levels, lexicographic: group count,
    then level combination, then per-group counts (each ascending)."""
    levels = _kept(bounds, keep)
    groups = range(min_groups, bounds.max_groups + 1)
    counts = range(1, bounds.max_count + 1)
    return Stream(
        sum(comb(len(levels), k) * bounds.max_count**k for k in groups),
        (
            Population(zip(combo, per_group))
            for k in groups
            for combo in itertools.combinations(levels, k)
            for per_group in itertools.product(counts, repeat=k)
        ),
    )


def _uniform(bounds: SearchBounds, keep=None, least: int = 1) -> Stream:
    """Perfectly equal populations of least..max_count people, level-major."""
    levels = _kept(bounds, keep)
    counts = range(least, bounds.max_count + 1)
    return Stream(
        len(levels) * len(counts), (Population([(l, c)]) for l in levels for c in counts)
    )


def _two_tier(bounds: SearchBounds) -> dict:
    """inequality_aversion's streams: two-tier populations with the lower
    tier larger (tier levels descending, then counts), then the perfectly
    equal populations of the same size at every level."""
    levels, mc = bounds.levels, bounds.max_count
    equal_at: dict[int, list[Population]] = {}  # built once per size

    def equal(env):
        size = env["mixed"].size
        if size not in equal_at:
            equal_at[size] = [Population([(l, size)]) for l in levels]
        return equal_at[size]

    mixed = (
        Population([(c_level, c_count), (a_level, a_count)])
        for a_level, c_level in itertools.combinations(reversed(levels), 2)
        for a_count in range(1, mc + 1)
        for c_count in range(a_count + 1, mc + 1)
    )
    return {
        "mixed": Stream(comb(len(levels), 2) * comb(mc, 2), mixed),
        "equal": Stream(len(levels), equal),
    }


@dataclass(frozen=True)
class ViolationWitness:
    swf: SwfKind
    axiom: AxiomId
    instance: AxiomInstance
    observed: Verdict
    note: str = ""

    def replay(self) -> bool:
        """Re-run the comparison; True when the violation reproduces."""
        order, inst = swf_order(self.swf), self.instance
        observed = order(inst.world(inst.claim_worse), inst.world(inst.claim_better))
        return observed is self.observed and check_instance(inst, order) is CheckResult.VIOLATED

    def to_json(self) -> dict:
        return {
            "swf": swf_label(self.swf),
            "axiom": self.axiom.value,
            "instance": self.instance.to_json(),
            "observed": self.observed.value,
            "note": self.note,
        }


def audit_swf(swf: SwfKind, axiom: AxiomId, bounds: SearchBounds) -> ViolationWitness | None:
    """Exhaustively search the bounded grid for a violation of one axiom.

    Returns the first witness under a fixed deterministic enumeration order
    (nested lexicographic component streams), or None, which certifies only
    the searched space.  Premise clauses that read only fixed components
    (thresholds, a pinned base) run once, before the budget check; every
    other clause runs once per binding, at the first depth that binds all it
    reads.  Each complete binding's derived worlds are computed and its
    populations scored; only the witness is built as an instance, which
    checks every clause, and it is returned only when it replays.
    The two existentially quantified axioms (quality, priority_compensation)
    return a witness only when every candidate the grid offers fails, and
    the witness note records that the claim is bounded.  A grid that leaves
    some component without a candidate is refused after the budget check,
    since the search would check nothing and report a vacuous clean result.
    """
    row = AXIOMS[axiom]
    fixed = {name: getattr(bounds, f"eff_{name}")() for name in row.thresholds}
    streams = []
    for name, value in row.streams(bounds, **fixed).items():
        if isinstance(value, Stream):
            streams.append((name, value))
        else:
            fixed[name] = value
    reads = [(clause, set(clause.reads)) for clause in row.clauses if not clause.derives]
    _require_all([c for c, needs in reads if fixed.keys() >= needs], fixed)
    estimate = prod(stream.size for _, stream in streams)
    if estimate > bounds.budget:
        raise BoundsTooLargeError(estimate, bounds.budget)
    for name, stream in streams:
        if stream.size == 0:
            raise InvalidInstanceError(f"no grid candidate for {name}, nothing to audit")
    plan, bound = [], set(fixed)
    for depth, (name, (_, items)) in enumerate(streams):
        bound.add(name)
        checks = [c for c, needs in reads if name in needs and bound >= needs]
        if callable(items):  # candidates depend on outer components
            candidates = items
        elif depth:  # inner streams are built once and replayed
            candidates = _replay(iter(items))
        else:  # the outermost stream is walked once
            candidates = lambda env, items=items: items
        plan.append((name, candidates, checks))
    search = row.search or _search_first
    witness = search(swf, axiom, fixed, plan, _judge(row, swf), bounds)
    if witness and not witness.replay():
        raise InvalidInstanceError(f"{axiom.value} witness does not replay under {swf_label(swf)}")
    return witness


def _replay(items: Iterator) -> Callable[[dict], Iterator]:
    """Candidates built on the first pass and replayed on later ones, so an
    inner stream is built once per audit, and only as far as it is walked.
    A pass may stop early, but passes never interleave."""
    built: list = []

    def candidates(env):
        yield from built
        for item in items:
            built.append(item)
            yield item

    return candidates


def _walk(env: dict, plan: list) -> Iterator[dict]:
    """Bindings of the plan's streams on top of ``env``, in nested
    lexicographic order, in ``env`` itself; a partial binding that fails a
    clause is skipped with all of its extensions."""
    (name, candidates, checks), rest = plan[0], plan[1:]
    for item in candidates(env):
        env[name] = item
        for clause in checks:
            if not clause.holds(env):
                break
        else:
            if rest:
                yield from _walk(env, rest)
            else:
                yield env


def _judge(row: AxiomRow, swf: SwfKind) -> Callable[[dict], Verdict | None]:
    """The claim's verdict on a complete binding that violates the row's
    axiom under ``swf``, else None.  Derived worlds are computed here, for
    complete bindings only."""
    worse, better, *gate = row.roles

    def judge(binding):
        env = _derive(row.clauses, dict(binding))
        claim = swf_compare(swf, env[worse], env[better])
        gated = swf_compare(swf, env[gate[0]], env[gate[1]]) if gate else None
        return claim if _result(row.strict, claim, gated) is CheckResult.VIOLATED else None

    return judge


def _violations(env, plan, judge) -> Iterator[tuple[dict, Verdict]]:
    for binding in _walk(dict(env), plan):
        observed = judge(binding)
        if observed is not None:
            yield dict(binding), observed


def _witness(swf, axiom: AxiomId, binding: dict, observed: Verdict, note="") -> ViolationWitness:
    """The one instance an audit builds, from a violating binding."""
    inst = make_instance(axiom, **binding)
    return ViolationWitness(swf=swf, axiom=axiom, instance=inst, observed=observed, note=note)


def _search_first(swf, axiom, fixed, plan, judge, bounds):
    """The first violating binding's witness."""
    found = next(_violations(fixed, plan, judge), None)
    return found and _witness(swf, axiom, *found)


def _search_quality(swf, axiom, fixed, plan, judge, bounds):
    """Violated only when every very-high candidate is beaten by some
    very-low-positive population; the witness is the first one's first."""
    beaten = []
    for env in _walk(dict(fixed), plan[:1]):
        beaten.append(next(_violations(env, plan[1:], judge), None))
        if beaten[-1] is None:
            return None  # this candidate survives, so the axiom holds here
    note = (
        f"all {len(beaten)} perfectly equal very-high candidates in the grid are "
        "beaten by some very-low-positive population (bounded claim)"
    )
    return _witness(swf, axiom, *beaten[0], note) if beaten else None


def _search_priority(swf, axiom, fixed, plan, judge, bounds):
    """Violated when, for some drop and created level, no count up to
    max_count compensates; the largest count is the witness."""
    for env in _walk(dict(fixed), plan[:-1]):
        observed = None
        for binding in _walk(dict(env), plan[-1:]):
            observed = judge(binding)
            if observed is None:
                break
        else:  # every count fails; the walk leaves the largest bound
            if observed is not None:
                note = (
                    f"no count up to {bounds.max_count} compensates the drop "
                    f"from {env['low_level']} to {env['negative_level']} (bounded claim)"
                )
                return _witness(swf, axiom, binding, observed, note)
    return None


# ---------------------------------------------------------------------------
# The axiom table
# ---------------------------------------------------------------------------

_THRESHOLDS = (
    "very_low very_high",
    lambda very_low, very_high: Fraction(0) < very_low < very_high,
    "thresholds need 0 < very_low < very_high",
)

AXIOMS: dict[AxiomId, AxiomRow] = {}

AXIOMS[AxiomId.QUALITY] = AxiomRow(
    strict=False, roles=("low", "high"),
    fields={
        "high": WorldField("a"), "low": WorldField("z"),
        "very_high": RATIONAL, "very_low": RATIONAL,
    },
    clauses=_clauses(
        _THRESHOLDS,
        ("high", lambda high: high.size > 0, "high population must be nonempty"),
        ("high", lambda high: len(high.groups) == 1, "high population must be perfectly equal"),
        ("high very_high", lambda high, very_high: high.min_level() >= very_high,
         "high population must sit at or above very_high"),
        ("low", lambda low: low.size > 0, "low population must be nonempty"),
        ("low", lambda low: low.min_level() > 0, "low population must have positive welfare"),
        ("low very_low", lambda low, very_low: low.max_level() <= very_low,
         "low population must sit at or below very_low"),
    ),
    thresholds=("very_high", "very_low"),
    streams=lambda bounds, very_high, very_low: {
        "high": _uniform(bounds, lambda l: l >= very_high),
        "low": _populations(bounds, lambda l: 0 < l <= very_low),
    },
    search=_search_quality,
)

AXIOMS[AxiomId.INEQUALITY_AVERSION] = AxiomRow(
    strict=False, roles=("mixed", "equal"),
    fields={"mixed": WorldField("mixed"), "equal": WorldField("equal")},
    clauses=_clauses(
        ("mixed", lambda mixed: len(mixed.groups) == 2,
         "mixed population must have exactly two welfare tiers"),
        ("mixed", lambda mixed: mixed.groups[0][1] > mixed.groups[1][1],
         "lower tier must be larger than upper tier"),
        ("equal", lambda equal: len(equal.groups) == 1,
         "equal population must be perfectly equal"),
        ("mixed equal",
         lambda mixed, equal: mixed.min_level() < equal.min_level() < mixed.max_level(),
         "equal level must lie strictly between the tiers"),
        ("mixed equal", lambda mixed, equal: equal.size == mixed.size,
         "equal population must match the mixed size"),
    ),
    streams=_two_tier,
)

AXIOMS[AxiomId.EGALITARIAN_DOMINANCE] = AxiomRow(
    strict=True, roles=("worse", "better"),
    fields={"better": WorldField("a"), "worse": WorldField("b")},
    clauses=_clauses(
        ("better", lambda better: better.size > 0, "populations must be nonempty"),
        ("better worse", lambda better, worse: better.size == worse.size,
         "populations must have equal size"),
        ("better", lambda better: len(better.groups) == 1,
         "dominating population must be perfectly equal"),
        ("better worse", lambda better, worse: better.min_level() > worse.max_level(),
         "every member of the equal population must be strictly happier"),
    ),
    streams=lambda bounds: {"better": _uniform(bounds), "worse": _populations(bounds)},
)

AXIOMS[AxiomId.DOMINANCE_ADDITION] = AxiomRow(
    strict=False, roles=("base", "augmented"),
    fields={
        "base": WorldField("a"), "augmented": WorldField("a_plus"),
        "raised": POPULATION, "added": POPULATION,
    },
    clauses=_clauses(
        ("raised base", lambda raised, base: raised.size == base.size,
         "raised part must match the base population size"),
        ("raised base", lambda raised, base: pointwise_dominates(raised, base, strict=False),
         "raised part must weakly dominate the base pointwise"),
        ("added", lambda added: added.size > 0, "added part must be nonempty"),
        ("added", lambda added: added.min_level() > 0, "added lives must have positive welfare"),
        ("augmented = raised added", lambda raised, added: raised | added,
         "augmented world must equal raised part plus added lives"),
    ),
    streams=lambda bounds: {
        "base": _populations(bounds),
        "raised": _populations(bounds),
        "added": _populations(bounds, lambda l: l > 0),
    },
)

AXIOMS[AxiomId.AVOID_REPUGNANT] = AxiomRow(
    strict=False, roles=("crowd", "high"),
    fields={
        "high": WorldField("a"), "crowd": WorldField("z"),
        "very_high": RATIONAL, "very_low": RATIONAL,
    },
    clauses=_clauses(
        _THRESHOLDS,
        ("high", lambda high: high.size > 0, "high population must be nonempty"),
        ("high very_high", lambda high, very_high: high.min_level() >= very_high,
         "high population must sit at or above very_high"),
        ("crowd high", lambda crowd, high: crowd.size > high.size,
         "crowd must outnumber the high population"),
        ("crowd", lambda crowd: crowd.min_level() > 0, "crowd welfare must be positive"),
        ("crowd very_low", lambda crowd, very_low: crowd.max_level() <= very_low,
         "crowd welfare must sit at or below very_low"),
    ),
    thresholds=("very_high", "very_low"),
    streams=lambda bounds, very_high, very_low: {
        "high": _populations(bounds, lambda l: l >= very_high),
        "crowd": _populations(bounds, lambda l: 0 < l <= very_low),
    },
)

AXIOMS[AxiomId.AVOID_SADISTIC] = AxiomRow(
    strict=False, roles=("tortured_world", "positive_world"),
    fields={
        "tortured_world": WorldField("with_tortured", "tortured_id"),
        "positive_world": WorldField("with_positive", "positive_id"),
        "base": POPULATION, "tortured": POPULATION, "positive": POPULATION,
        "very_high": RATIONAL, "torture_max": RATIONAL,
    },
    clauses=_clauses(
        ("torture_max", lambda torture_max: torture_max < 0,
         "torture threshold must be negative"),
        ("base", lambda base: base.size > 0, "base population must be nonempty"),
        ("base very_high", lambda base, very_high: base.min_level() >= very_high,
         "base population must be very happy"),
        ("tortured", lambda tortured: tortured.size > 0, "tortured addition must be nonempty"),
        ("tortured torture_max", lambda tortured, torture_max: tortured.max_level() <= torture_max,
         "tortured lives must sit at or below torture_max"),
        ("positive", lambda positive: positive.size > 0, "positive addition must be nonempty"),
        ("positive", lambda positive: positive.min_level() > 0,
         "positive addition must have positive welfare"),
        ("tortured positive", lambda tortured, positive: tortured.size < positive.size,
         "tortured addition must be the smaller one"),
        ("tortured_world = base tortured", lambda base, tortured: base | tortured,
         "tortured world must equal base plus tortured addition"),
        ("positive_world = base positive", lambda base, positive: base | positive,
         "positive world must equal base plus positive addition"),
    ),
    thresholds=("very_high", "torture_max"),
    streams=lambda bounds, very_high, torture_max: {
        "base": bounds.base if bounds.base is not None else _populations(
            bounds, lambda l: l >= very_high),
        "tortured": _populations(bounds, lambda l: l <= torture_max),
        "positive": _populations(bounds, lambda l: l > 0),
    },
)

AXIOMS[AxiomId.AVOID_VERY_ANTI_EGALITARIAN] = AxiomRow(
    strict=True, roles=("worse", "better"),
    fields={"better": WorldField("a"), "worse": WorldField("b")},
    clauses=_clauses(
        ("better", lambda better: better.size >= 2, "needs at least two people"),
        ("better worse", lambda better, worse: better.size == worse.size,
         "populations must have equal size"),
        ("better", lambda better: len(better.groups) == 1,
         "reference population must have uniform happiness"),
        ("worse", lambda worse: len(worse.groups) > 1, "rival population must be unequal"),
        ("worse better", lambda worse, better: total_welfare(worse) < total_welfare(better),
         "rival population must have lower total (hence average) welfare"),
    ),
    streams=lambda bounds: {
        "better": _uniform(bounds, least=2),
        "worse": _populations(bounds, min_groups=2),
    },
)

AXIOMS[AxiomId.DOMINANCE] = AxiomRow(
    strict=False, roles=("worse", "better"),
    fields={"better": WorldField("a"), "worse": WorldField("b")},
    clauses=_clauses(
        ("better", lambda better: better.size > 0, "populations must be nonempty"),
        ("better worse", lambda better, worse: pointwise_dominates(better, worse, strict=True),
         "dominating population must be pointwise strictly happier at equal size"),
    ),
    streams=lambda bounds: {"better": _populations(bounds), "worse": _populations(bounds)},
)

AXIOMS[AxiomId.ADDITION] = AxiomRow(
    strict=False, roles=("c_added_world", "b_added_world", "b_added_world", "base_world"),
    fields={
        "base_world": WorldField("a"), "b_added_world": WorldField("with_b", "b_added_id"),
        "c_added_world": WorldField("with_c", "c_added_id"), "b": POPULATION, "c": POPULATION,
    },
    clauses=_clauses(
        ("base_world", lambda base: base.size > 0, "base population must be nonempty"),
        ("b", lambda b: b.size > 0, "group b must be nonempty"),
        ("b base_world", lambda b, base: b.max_level() < base.min_level(),
         "group b must be worse off than the base"),
        ("c b", lambda c, b: c.size > b.size, "group c must be larger than group b"),
        ("c b", lambda c, b: c.max_level() < b.min_level(),
         "group c must be worse off than group b"),
        ("b_added_world = base_world b", lambda base, b: base | b,
         "b-added world must equal base plus group b"),
        ("c_added_world = base_world c", lambda base, c: base | c,
         "c-added world must equal base plus group c"),
    ),
    streams=lambda bounds: {
        "base_world": _populations(bounds), "b": _populations(bounds), "c": _populations(bounds),
    },
)

AXIOMS[AxiomId.PRIORITY_COMPENSATION] = AxiomRow(
    strict=False, roles=("before", "after"),
    fields={
        "before": WorldField("before", "before_id"), "after": WorldField("after", "after_id"),
        "base": POPULATION, "low_level": RATIONAL, "negative_level": RATIONAL,
        "high_level": RATIONAL, "count": COUNT, "very_high": RATIONAL, "very_low": RATIONAL,
    },
    clauses=_clauses(
        ("very_low", lambda very_low: very_low > 0,
         "very_low must be positive, or no level lies in (0, very_low]"),
        ("low_level very_low", lambda low_level, very_low: Fraction(0) < low_level <= very_low,
         "lowered person must start at very low positive welfare"),
        ("negative_level", lambda negative_level: negative_level < 0,
         "lowered person must end slightly below zero"),
        ("high_level very_high", lambda high_level, very_high: high_level >= very_high,
         "created lives must have very high welfare"),
        ("count",
         lambda count: isinstance(count, int) and not isinstance(count, bool) and count >= 1,
         "must create at least one life"),
        ("before = base low_level",
         lambda base, low_level: base | Population([(low_level, 1)]),
         "before-world must equal base plus the very-low-positive person"),
        ("after = base negative_level high_level count",
         lambda base, negative_level, high_level, count:
            base | Population([(negative_level, 1), (high_level, count)]),
         "after-world must equal base plus the lowered person plus the created lives"),
    ),
    thresholds=("very_high", "very_low"),
    streams=lambda bounds, very_high, very_low: {
        "base": bounds.base if bounds.base is not None else EMPTY_POPULATION,
        "low_level": _levels(bounds, lambda l: 0 < l <= very_low),
        "negative_level": _levels(bounds, lambda l: l < 0),
        "high_level": _levels(bounds, lambda l: l >= very_high),
        "count": Stream(bounds.max_count, range(1, bounds.max_count + 1)),
    },
    search=_search_priority,
)


# ---------------------------------------------------------------------------
# Cycle building
# ---------------------------------------------------------------------------

def build_cycle(conditions: list[AxiomInstance]) -> ConstraintGraph:
    """Assemble instances sharing a world namespace into a constraint graph.

    One edge per instance, from its required-worse to its required-better
    world, labeled by axiom id.  The same id naming two different populations
    is a namespace conflict.
    """
    populations: dict[str, Population] = {}
    order: list[str] = []
    for inst in conditions:
        for w in inst.worlds:
            seen = populations.get(w.id)
            if seen is None:
                populations[w.id] = w.population
                order.append(w.id)
            elif seen != w.population:
                raise ConflictingWorldIdsError(
                    f"world id {w.id!r} names two different populations"
                )
    edges = tuple(
        Edge(worse=inst.claim_worse, better=inst.claim_better, label=inst.axiom.value)
        for inst in conditions
    )
    return ConstraintGraph(tuple(order), edges)


def second_theorem_cycle(
    very_high=90,
    very_low=1,
    base_level=100,
    base_size: int = 2,
    extra_size: int = 6,
) -> list[AxiomInstance]:
    """A concrete four-world impossibility cycle from the equality/addition
    conditions, with parameters derived from the thresholds.

    Worlds: A (equal, very high) is raised and padded with barely-positive
    extras into A+ (dominance_addition), A+ is leveled into the bigger equal
    population Z at very-low-positive welfare (inequality_aversion), Z is at
    most as good as the equal very-high A* (quality), and A beats A* pointwise
    at equal size (egalitarian_dominance), closing the cycle.
    """
    vh = as_rational(very_high)
    vl = as_rational(very_low)
    a_level = as_rational(base_level)
    if not 0 < vl < vh < a_level:
        raise ValueError("need 0 < very_low < very_high < base_level")
    if extra_size <= base_size:
        raise ValueError("the added group must outnumber the base population")
    raised_level = a_level + 1
    c_level = vl / 2
    b_level = vl
    a = World("a", Population([(a_level, base_size)]))
    raised = Population([(raised_level, base_size)])
    added = Population([(c_level, extra_size)])
    a_plus = World("a_plus", raised | added)
    z = World("z", Population([(b_level, base_size + extra_size)]))
    a_star = World("a_star", Population([(vh, base_size)]))
    return [
        dominance_addition_instance(a, a_plus, raised, added),
        inequality_aversion_instance(a_plus, z),
        quality_instance(a_star, z, vh, vl),
        egalitarian_dominance_instance(a, a_star),
    ]
