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
whose test computes it.  Clauses read names that a ``Population`` and
count views (``populations.Counts``) share, so one clause checks an
instance's populations and ``Fraction``s or masks a block of audit
candidates.  One constructor, ``make_instance``, builds every instance from
its row: the fields in the row's order, the claim and gate from its roles,
derived worlds from its derivation clauses, and every clause checked there,
once.  A derived world given by name must equal the one its clause derives.
``scenario`` parses a constraint by reading the row's fields.
``audit_swf`` runs on integer count matrices, one per stream, each copied
from a table memoised by the stream's shape.  It searches them in nested
lexicographic order and tiles of whole rows, each reduced on its own; it
builds one instance, the witness, whose derived worlds must be the rows it
scored, and returns it once it replays.
"""

from __future__ import annotations

import enum
import itertools
import threading
from collections import OrderedDict
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import partial
from math import comb, prod
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .constraints import ConstraintGraph, Edge
from .errors import (
    BoundsTooLargeError,
    ConflictingWorldIdsError,
    InvalidInstanceError,
    InvalidValueError,
)
from .grids import SearchBounds
from .ordering import Verdict
from .populations import (
    EMPTY_POPULATION,
    Counts,
    CriticalLevel,
    Population,
    SwfKind,
    World,
    count_matrix,
    count_rows,
    swf_label,
    swf_order,
    swf_signs,
)
from .rationals import as_rational, format_rational, in_units


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

    @classmethod
    def _missing_(cls, value):
        raise InvalidValueError(f"unknown axiom id {value!r}")


class CheckResult(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    UNCERTAINLY_SATISFIED = "uncertainly_satisfied"


OrderFn = Callable[[World, World], Verdict]

# Scenario field kinds of literal values; a world field's kind is a ``WorldField``.
POPULATION, RATIONAL, COUNT = "population", "rational", "count"


class WorldField(NamedTuple):
    """Field kind of a premise world, the component of the same name, whose
    id is ``id`` when it is given as a population or derived."""

    id: str


class Clause(NamedTuple):
    """One premise condition on the components named by ``reads``:
    ``apply(env)`` runs its test on a dict of components (an instance's
    populations, ``Fraction``s and ints, or an audit's count views and
    rationals in their unit).  A plain clause holds when its test does, as
    a bool or a mask.  A derivation clause's test computes the world it
    ``derives`` from the parts it reads, and the clause holds when that
    world is the one in ``env``, if ``env`` has one."""

    reads: tuple[str, ...]
    message: str
    apply: Callable[[dict], object]
    derives: str | None


def _clauses(*specs) -> tuple[Clause, ...]:
    """Clauses from (reads, test, message) triples: ``reads`` names the
    components, space-separated, after ``"world = "`` for a derivation."""
    clauses = []
    for reads, test, message in specs:
        world, _, parts = reads.rpartition(" = ")
        parts = parts.split()
        clauses.append(Clause(tuple(parts), message, _holds(parts, test), world or None))
    return tuple(clauses)


def _holds(reads: list[str], test: Callable[..., object]) -> Callable[[dict], object]:
    # ``test`` of the components ``reads`` names: a condition, or a derived world.
    return lambda env: test(*[env[r] for r in reads])


def _require_all(clauses: Iterable[Clause], env: dict):
    """Raise the message of the first of ``clauses`` that fails on ``env``.
    A derivation clause computes its world once: a world ``env`` has must
    equal it, and a missing one is set to it."""
    for clause in clauses:
        value = clause.apply(env)
        if clause.derives:
            value = env.setdefault(clause.derives, value) == value
        if not value:
            raise InvalidInstanceError(clause.message)


def _derive(clauses: Iterable[Clause], env: dict) -> dict:
    """``env`` with each world that the derivation clauses among ``clauses``
    compute and ``env`` lacks."""
    for clause in clauses:
        if clause.derives and clause.derives not in env:
            env[clause.derives] = clause.apply(env)
    return env


def _whole(count) -> bool:
    # A count component: an int that is not a bool, or an audit's count array.
    return isinstance(count, np.ndarray) or (isinstance(count, int) and not isinstance(count, bool))


class Stream(NamedTuple):
    """How many of an audit component's candidates one binding of the outer
    components can take, in closed form (the budget's factor), and
    ``build()``, which makes the candidates in enumeration order after the
    budget check: count rows over the grid's alphabet, rationals or ints."""

    size: int
    build: Callable[[], Iterable]


@dataclass(frozen=True)
class AxiomRow:
    """One adequacy condition, declared once.

    ``fields`` maps each scenario field, in document order, to its kind;
    every field is the component of the same name, and ``make_instance``
    takes them in that order.  ``roles`` names the world fields of the
    claim's (worse, better) worlds, then of the gate's (world, baseline) for
    a gated axiom.  ``streams(bounds, **thresholds)``, given the grid's
    effective ``thresholds``, gives the audit's components outermost first:
    a ``Stream`` is enumerated, any other value is fixed.  Derivation
    clauses come last.  ``every`` and ``note`` serve existential axioms'
    audits (see ``_find``).  The row's ``plain`` clauses, ``derivations``,
    field ``names`` (the fields no clause derives, which alone may be given
    positionally) and grid ``thresholds`` (rational fields with an ``eff_``
    default) are computed once.
    """

    strict: bool
    roles: tuple[str, ...]
    fields: dict
    clauses: tuple[Clause, ...]
    streams: Callable[..., dict]
    every: str | None = None
    note: str = ""

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        put("plain", tuple(c for c in self.clauses if not c.derives))
        put("derivations", tuple(c for c in self.clauses if c.derives))
        derived = {c.derives for c in self.derivations}
        put("names", [key for key in self.fields if key not in derived])
        put("thresholds", tuple(key for key, kind in self.fields.items()
                                if kind == RATIONAL and hasattr(SearchBounds, f"eff_{key}")))


@dataclass(frozen=True)
class AxiomInstance:
    """One concrete configuration of an axiom's premise.

    The instance requires the verdict "claim_better is at least as good as
    claim_worse" (strictly better for strict axioms).  The addition axiom is
    conditional: its claim only binds when the gate comparison (worse of the
    gate pair ranked strictly below the better) holds.  ``checked`` is for
    ``make_instance``, which has run every clause; an instance constructed
    directly (as ``dataclasses.replace`` does) runs them here.
    """

    axiom: AxiomId
    worlds: tuple[World, ...]
    claim_worse: str
    claim_better: str
    params: dict = field(default_factory=dict)
    gate: tuple[str, str] | None = None  # (world, baseline): gate holds when world < baseline
    checked: InitVar[bool] = False

    def __post_init__(self, checked):
        ids = [w.id for w in self.worlds]
        if len(set(ids)) != len(ids):
            raise InvalidInstanceError(f"duplicate world ids in instance: {ids}")
        if self.claim_worse not in ids or self.claim_better not in ids:
            raise InvalidInstanceError("claim endpoints must be premise worlds")
        row = AXIOMS[self.axiom]
        role_ids = (self.claim_worse, self.claim_better) + (self.gate or ())
        if len(role_ids) != len(row.roles):
            carry = "carry a" if len(row.roles) > 2 else "carry no"
            raise InvalidInstanceError(f"{self.axiom.value} instances {carry} gate comparison")
        if not checked:
            env = dict(self.params)
            env.update((role, self.world(wid).population) for role, wid in zip(row.roles, role_ids))
            _require_all(row.clauses, env)

    @property
    def strict(self) -> bool:
        """Whether the claim demands strict preference, as the axiom's row says."""
        return AXIOMS[self.axiom].strict

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

    Fields follow the order of ``row.names``, positionally or by name; a
    world the row's clauses derive is optional and given by name only.  A
    world field takes a ``World``, or a population, which gets the field's
    id, as does a derived world left out.  Rational fields go through
    ``as_rational``, and the fields that are not worlds are the params.
    Every clause runs here, once, on the fields themselves: the plain
    clauses first, so a bad field fails its own clause, then each derivation
    clause computes its world, which a given world must equal.
    """
    row = AXIOMS[axiom]
    if len(fields) > len(row.names):
        raise TypeError(
            f"{axiom.value} takes {len(row.names)} positional fields ({row.names}), "
            f"got {len(fields)}"
        )
    env = dict(zip(row.names, fields))
    for name, value in named.items():
        if name not in row.fields or name in env:
            raise TypeError(f"{axiom.value} got an unexpected or repeated field {name!r}")
        env[name] = value
    missing = [name for name in row.names if name not in env]
    if missing:
        raise TypeError(f"{axiom.value} takes the fields {row.names}; missing {missing}")
    worlds, params = {}, {}
    for key, kind in row.fields.items():
        if not isinstance(kind, WorldField):
            params[key] = env[key] = as_rational(env[key]) if kind == RATIONAL else env[key]
        elif key not in env:
            worlds[key] = None  # derived below
        else:
            world = env[key] if isinstance(env[key], World) else World(kind.id, env[key])
            worlds[key], env[key] = world, world.population
    _require_all(row.clauses, env)
    for key, world in worlds.items():
        worlds[key] = world or World(row.fields[key].id, env[key])
    worse, better, *gate = (worlds[role].id for role in row.roles)
    premise = tuple(worlds.values())
    return AxiomInstance(axiom, premise, worse, better, params, tuple(gate) or None, True)


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

    A check is violated when its gate holds and its claim is reversed, as a
    three-valued conjunction.  An ungated claim's gate always holds.  A claim
    is reversed by a strict reversal, or by equality where the axiom demands
    strict preference.  Either part false is SATISFIED, both true VIOLATED,
    and otherwise incomparability leaves it UNCERTAINLY_SATISFIED.
    """
    holds = gate is None or {Verdict.LESS: True, Verdict.INCOMPARABLE: None}.get(gate, False)
    reversal = {Verdict.GREATER: True, Verdict.EQUAL: strict,
                Verdict.INCOMPARABLE: None}.get(claim, False)
    if holds is False or reversal is False:
        return CheckResult.SATISFIED
    if holds and reversal:
        return CheckResult.VIOLATED
    return CheckResult.UNCERTAINLY_SATISFIED


# ---------------------------------------------------------------------------
# Bounded audits
# ---------------------------------------------------------------------------

def _levels(bounds: SearchBounds, keep) -> Stream:
    levels = tuple(bounds.alphabet[i] for i in bounds.positions(keep))
    return Stream(len(levels), lambda: levels)


def _populations(bounds: SearchBounds, keep=None, groups=None, least: int = 1) -> Stream:
    """Populations of ``groups`` distinct kept levels (default 1..max_groups)
    and least..max_count people per level, lexicographic: group count, then
    level combination, then per-group counts (each ascending).  The rows
    are ``_group_table``'s, a memoised function of the stream's shape."""
    kept, most = bounds.positions(keep), bounds.max_count
    groups = range(1, bounds.max_groups + 1) if groups is None else groups
    shape = (tuple(k for k in groups if k <= len(kept)), least, most)
    size = sum(comb(len(kept), k) * (most - least + 1)**k for k in shape[0])
    return _stream(bounds, kept, size, _group_table, *shape)


def _two_tier(bounds: SearchBounds) -> dict:
    """inequality_aversion's streams: two-tier populations with the lower
    tier larger (tier levels descending, then counts), then the perfectly
    equal populations at every level, of every size a two-tier one can
    have (3..2*max_count-1), level-major; the size clause leaves one per
    level for each.  The rows are ``_tier_table``'s and ``_group_table``'s,
    memoised like ``_populations``'."""
    kept, mc = bounds.positions(), bounds.max_count
    return {
        "mixed": _stream(bounds, kept, comb(len(kept), 2) * comb(mc, 2), _tier_table, mc),
        "equal": _stream(bounds, kept, len(kept), _group_table, (1,), 3, 2 * mc - 1),
    }


def _stream(bounds: SearchBounds, kept: list[int], size: int, make, *shape) -> Stream:
    """A stream of ``size`` candidates (the budget's factor) whose rows are
    the table ``make(len(kept), *shape)`` over the kept levels, copied into
    their columns of the grid's alphabet by ``build()``."""
    width = len(bounds.alphabet)

    def build():
        table = _table(make, len(kept), *shape)
        rows = np.zeros((len(table), width), np.int64)
        rows[:, kept] = table
        return rows

    return Stream(size, build)


def _group_table(n: int, groups: tuple[int, ...], least: int, most: int) -> np.ndarray:
    """Count rows over ``n`` levels: for each group count k of ``groups``,
    every k-combination of levels, then every k-tuple of least..most
    people, lexicographic."""
    counts = range(least, most + 1)
    return np.concatenate([np.zeros((0, n), np.int64)] + [
        count_matrix(list(itertools.combinations(range(n), k)),
                     list(itertools.product(counts, repeat=k)), k, n)
        for k in groups
    ])


def _tier_table(n: int, most: int) -> np.ndarray:
    """Two-tier count rows over ``n`` levels: tier levels descending, then
    count pairs ascending, the smaller count on the upper tier."""
    tiers = list(itertools.combinations(range(n - 1, -1, -1), 2))
    return count_matrix(tiers, list(itertools.combinations(range(1, most + 1), 2)), 2, n)


# Stream tables by (builder, shape), least recently used first.  A table
# depends only on its shape, never on the grid's levels, so audits of
# different grids share it.  Tables are read-only; only those of at most one
# tile (_BLOCK elements) are kept, and at most _TABLE_LIMIT of them, so the
# memo holds at most 64 * 2^14 int64s (8 MiB) whatever the budget or the
# number of grids audited.  Larger tables are built on every call.
_TABLES: OrderedDict = OrderedDict()
_TABLE_LIMIT = 64
_TABLES_LOCK = threading.Lock()


def _table(make, *shape) -> np.ndarray:
    """``make(*shape)``, read-only, from the memo when it holds it."""
    key = (make, *shape)
    with _TABLES_LOCK:
        table = _TABLES.get(key)
        if table is not None:
            _TABLES.move_to_end(key)
            return table
    table = make(*shape)
    table.flags.writeable = False
    if table.size <= _BLOCK:
        with _TABLES_LOCK:
            _TABLES[key] = table
            if len(_TABLES) > _TABLE_LIMIT:
                _TABLES.popitem(last=False)
    return table


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


# An audit tile holds at most _BLOCK elements (bindings times alphabet width):
# as many whole rows as fit in it, and always at least one.
_BLOCK = 1 << 14


def audit_swf(swf: SwfKind, axiom: AxiomId, bounds: SearchBounds) -> ViolationWitness | None:
    """Exhaustively search the bounded grid for a violation of one axiom.

    Returns the first witness in nested lexicographic order of the
    component streams, or None, which certifies only the searched space.
    The search runs on integer count rows; only the witness is built as an
    instance, which checks every clause.  Its derived worlds must be the
    rows the search scored, and it is returned once it replays.
    The existential axioms (quality, priority_compensation) give a witness
    only when every candidate the grid offers fails, noted as bounded.
    """
    row = AXIOMS[axiom]
    fixed, env, plan, one, critical = _plan(row, swf, bounds)
    found = _find(row, swf, critical, _blocks(env, plan, max(1, _BLOCK // len(bounds.alphabet))))
    if found is None:
        return None
    indices, sign, rows = found
    binding, scored = dict(fixed), dict(env)
    for name, items, values, _ in plan:
        i = int(indices[name])
        scored[name] = values[i]
        binding[name] = values[i].population(one) if isinstance(values, Counts) else items[i]
    instance = make_instance(axiom, **binding)
    _derive(row.derivations, scored)
    for clause in row.derivations:
        built = instance.world(row.fields[clause.derives].id).population
        if not (count_rows([built], bounds.alphabet)[0] == scored[clause.derives].counts).all():
            raise InvalidInstanceError(clause.message)
    witness = ViolationWitness(
        swf=swf, axiom=axiom, instance=instance,
        observed=(Verdict.LESS, Verdict.EQUAL, Verdict.GREATER)[sign + 1],
        note=row.note.format(rows=rows, max_count=bounds.max_count, **binding),
    )
    if not witness.replay():
        raise InvalidInstanceError(f"{axiom.value} witness does not replay under {swf_label(swf)}")
    return witness


def _plan(row: AxiomRow, swf: SwfKind, bounds: SearchBounds):
    """An audit's set-up: (fixed components, ``env`` of them in units, the
    plan, 1/unit, the critical level in units).  Clauses on fixed components
    run first, then the budget check on the product of the stream sizes; a
    stream left empty is refused, as its search would be vacuously clean.
    The plan lists each stream as (name, candidates, their values in units,
    the clauses first bound at its depth).  A population stream's candidates
    are its shape's table (``_table``) copied into the alphabet's columns,
    so a shape built once costs one copy per audit from then on.
    """
    fixed = {name: getattr(bounds, f"eff_{name}")() for name in row.thresholds}
    streams = {}
    for name, value in row.streams(bounds, **fixed).items():
        (streams if isinstance(value, Stream) else fixed)[name] = value
    alphabet, critical = bounds.alphabet, [swf.critical] if isinstance(swf, CriticalLevel) else []
    most = 2 * bounds.max_groups * bounds.max_count + 1 + (bounds.base.size if bounds.base else 0)
    nums, one, _ = in_units(
        [*alphabet, *(v for v in fixed.values() if isinstance(v, Fraction)), *critical], most**2
    )
    units, scaled = nums[: len(alphabet)], iter(nums[len(alphabet):].tolist())
    env = {
        name: Counts(count_rows([v], alphabet)[0], units) if isinstance(v, Population)
        else next(scaled) for name, v in fixed.items()
    }
    reads = [(clause, set(clause.reads)) for clause in row.plain]
    _require_all([c for c, needs in reads if fixed.keys() >= needs], env)
    estimate = prod(stream.size for stream in streams.values())
    if estimate > bounds.budget:
        raise BoundsTooLargeError(estimate, bounds.budget)
    plan, bound = [], set(fixed)
    for name, (size, build) in streams.items():
        if size == 0:
            raise InvalidInstanceError(f"no grid candidate for {name}, nothing to audit")
        bound.add(name)
        kind, items = row.fields[name], build()
        values = (
            np.array(items) if kind == COUNT
            else np.array([v.numerator * (one // v.denominator) for v in items], units.dtype)
            if kind == RATIONAL else Counts(items, units)
        )
        checks = [c for c, needs in reads if name in needs and bound >= needs]
        plan.append((name, items, values, checks))
    return fixed, env, plan, one, next(scaled, 0)


def _blocks(env: dict, plan: list, limit: int, depth=0, prefix=None, rows=1):
    """The plan's bindings in nested lexicographic order, in tiles of whole
    rows.  A row is one binding of the outer depths that passed their
    clauses, crossed with this depth's whole stream; a tile holds as many
    rows as fit in ``limit`` bindings, and always at least one.  Innermost
    tiles come as (components over rows by columns, mask of the plain
    clauses, the rows' outer indices, the innermost stream's name).
    """
    name, _, stream, checks = plan[depth]
    values, prefix = {s: v for s, _, v, _ in plan[:depth]}, prefix or {}
    step, columns = max(1, limit // len(stream)), stream[None]
    for r in range(0, rows, step):
        block = dict(env)
        for s, idx in prefix.items():
            block[s] = values[s][idx[r : r + step, None]]
        block[name] = columns
        mask = np.ones((min(rows, r + step) - r, len(stream)), bool)
        for clause in checks:
            mask &= clause.apply(block)
        if depth + 1 < len(plan):
            rr, cc = np.nonzero(mask)
            inner = {s: idx[r + rr] for s, idx in prefix.items()}
            inner[name] = cc
            yield from _blocks(env, plan, limit, depth + 1, inner, len(rr))
        else:
            yield block, mask, {s: idx[r : r + step] for s, idx in prefix.items()}, name


def _find(row: AxiomRow, swf: SwfKind, critical, blocks):
    """The witness among ``_blocks``' bindings as (stream indices, claim
    sign, rows seen), or None.  A binding violates when its claim is
    reversed (or tied, if strict) and its gate, if any, holds.  Universal
    axioms take the first violation.  Existential ones reduce each row of a
    tile along the innermost stream; tiles hold whole rows, so nothing is
    carried from one to the next.  ``every="outer"`` (quality) needs a
    violation in every row and takes the first row's first; ``every="inner"``
    (priority) takes the last violation of the first row that violates
    wherever its premise holds.
    """
    worse, better, *gate = row.roles
    rows, found = 0, None
    for block, mask, prefix, name in blocks:
        _derive(row.derivations, block)
        sign = swf_signs(swf, block[worse], block[better], critical)
        bad = mask & ((sign > 0) | (sign == 0) & row.strict)
        if gate:
            bad &= swf_signs(swf, block[gate[0]], block[gate[1]], critical) < 0

        def at(r, c):
            indices = {**{s: idx[r] for s, idx in prefix.items()}, name: c}
            return indices, int(np.broadcast_to(sign, mask.shape)[r, c])

        if row.every is None:
            if bad.any():
                return (*at(*divmod(int(bad.argmax()), bad.shape[1])), rows)
            continue
        some = bad.any(1)
        if row.every == "outer":
            if not some.all():
                return None  # this row's candidate survives, so the axiom holds here
            found = found or at(0, int(bad[0].argmax()))
        elif (hit := some & ~(mask & ~bad).any(1)).any():
            r = int(hit.argmax())
            return (*at(r, bad.shape[1] - 1 - int(bad[r, ::-1].argmax())), rows + r + 1)
        rows += len(mask)
    return found and (*found, rows)


# ---------------------------------------------------------------------------
# The axiom table
# ---------------------------------------------------------------------------

_THRESHOLDS = (
    "very_low very_high",
    lambda very_low, very_high: (0 < very_low) & (very_low < very_high),
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
        ("high", lambda high: high.tiers == 1, "high population must be perfectly equal"),
        ("high very_high", lambda high, very_high: high.lo >= very_high,
         "high population must sit at or above very_high"),
        ("low", lambda low: low.size > 0, "low population must be nonempty"),
        ("low", lambda low: low.lo > 0, "low population must have positive welfare"),
        ("low very_low", lambda low, very_low: low.hi <= very_low,
         "low population must sit at or below very_low"),
    ),
    streams=lambda bounds, very_high, very_low: {
        "high": _populations(bounds, lambda l: l >= very_high, groups=(1,)),
        "low": _populations(bounds, lambda l: 0 < l <= very_low),
    },
    every="outer",
    note="all {rows} perfectly equal very-high candidates in the grid are "
         "beaten by some very-low-positive population (bounded claim)",
)

AXIOMS[AxiomId.INEQUALITY_AVERSION] = AxiomRow(
    strict=False, roles=("mixed", "equal"),
    fields={"mixed": WorldField("mixed"), "equal": WorldField("equal")},
    clauses=_clauses(
        ("mixed", lambda mixed: mixed.tiers == 2,
         "mixed population must have exactly two welfare tiers"),
        ("mixed", lambda mixed: mixed.at_lo > mixed.size - mixed.at_lo,
         "lower tier must be larger than upper tier"),
        ("equal", lambda equal: equal.tiers == 1,
         "equal population must be perfectly equal"),
        ("mixed equal", lambda mixed, equal: (mixed.lo < equal.lo) & (equal.lo < mixed.hi),
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
        ("better", lambda better: better.tiers == 1,
         "dominating population must be perfectly equal"),
        ("better worse", lambda better, worse: better.lo > worse.hi,
         "every member of the equal population must be strictly happier"),
    ),
    streams=lambda bounds: {
        "better": _populations(bounds, groups=(1,)), "worse": _populations(bounds),
    },
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
        ("raised base", lambda raised, base: raised.dominates(base, strict=False),
         "raised part must weakly dominate the base pointwise"),
        ("added", lambda added: added.size > 0, "added part must be nonempty"),
        ("added", lambda added: added.lo > 0, "added lives must have positive welfare"),
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
        ("high very_high", lambda high, very_high: high.lo >= very_high,
         "high population must sit at or above very_high"),
        ("crowd high", lambda crowd, high: crowd.size > high.size,
         "crowd must outnumber the high population"),
        ("crowd", lambda crowd: crowd.lo > 0, "crowd welfare must be positive"),
        ("crowd very_low", lambda crowd, very_low: crowd.hi <= very_low,
         "crowd welfare must sit at or below very_low"),
    ),
    streams=lambda bounds, very_high, very_low: {
        "high": _populations(bounds, lambda l: l >= very_high),
        "crowd": _populations(bounds, lambda l: 0 < l <= very_low),
    },
)

AXIOMS[AxiomId.AVOID_SADISTIC] = AxiomRow(
    strict=False, roles=("tortured_world", "positive_world"),
    fields={
        "tortured_world": WorldField("with_tortured"),
        "positive_world": WorldField("with_positive"),
        "base": POPULATION, "tortured": POPULATION, "positive": POPULATION,
        "very_high": RATIONAL, "torture_max": RATIONAL,
    },
    clauses=_clauses(
        ("torture_max", lambda torture_max: torture_max < 0,
         "torture threshold must be negative"),
        ("base", lambda base: base.size > 0, "base population must be nonempty"),
        ("base very_high", lambda base, very_high: base.lo >= very_high,
         "base population must be very happy"),
        ("tortured", lambda tortured: tortured.size > 0, "tortured addition must be nonempty"),
        ("tortured torture_max", lambda tortured, torture_max: tortured.hi <= torture_max,
         "tortured lives must sit at or below torture_max"),
        ("positive", lambda positive: positive.size > 0, "positive addition must be nonempty"),
        ("positive", lambda positive: positive.lo > 0,
         "positive addition must have positive welfare"),
        ("tortured positive", lambda tortured, positive: tortured.size < positive.size,
         "tortured addition must be the smaller one"),
        ("tortured_world = base tortured", lambda base, tortured: base | tortured,
         "tortured world must equal base plus tortured addition"),
        ("positive_world = base positive", lambda base, positive: base | positive,
         "positive world must equal base plus positive addition"),
    ),
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
        ("better", lambda better: better.tiers == 1,
         "reference population must have uniform happiness"),
        ("worse", lambda worse: worse.tiers > 1, "rival population must be unequal"),
        ("worse better", lambda worse, better: worse.total < better.total,
         "rival population must have lower total (hence average) welfare"),
    ),
    streams=lambda bounds: {
        "better": _populations(bounds, groups=(1,), least=2),
        "worse": _populations(bounds, groups=range(2, bounds.max_groups + 1)),
    },
)

AXIOMS[AxiomId.DOMINANCE] = AxiomRow(
    strict=False, roles=("worse", "better"),
    fields={"better": WorldField("a"), "worse": WorldField("b")},
    clauses=_clauses(
        ("better", lambda better: better.size > 0, "populations must be nonempty"),
        ("better worse", lambda better, worse: better.dominates(worse, strict=True),
         "dominating population must be pointwise strictly happier at equal size"),
    ),
    streams=lambda bounds: {"better": _populations(bounds), "worse": _populations(bounds)},
)

AXIOMS[AxiomId.ADDITION] = AxiomRow(
    strict=False, roles=("c_added_world", "b_added_world", "b_added_world", "base_world"),
    fields={
        "base_world": WorldField("a"), "b_added_world": WorldField("with_b"),
        "c_added_world": WorldField("with_c"), "b": POPULATION, "c": POPULATION,
    },
    clauses=_clauses(
        ("base_world", lambda base: base.size > 0, "base population must be nonempty"),
        ("b", lambda b: b.size > 0, "group b must be nonempty"),
        ("b base_world", lambda b, base: b.hi < base.lo,
         "group b must be worse off than the base"),
        ("c b", lambda c, b: c.size > b.size, "group c must be larger than group b"),
        ("c b", lambda c, b: c.hi < b.lo, "group c must be worse off than group b"),
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
        "before": WorldField("before"), "after": WorldField("after"),
        "base": POPULATION, "low_level": RATIONAL, "negative_level": RATIONAL,
        "high_level": RATIONAL, "count": COUNT, "very_high": RATIONAL, "very_low": RATIONAL,
    },
    clauses=_clauses(
        ("very_low", lambda very_low: very_low > 0,
         "very_low must be positive, or no level lies in (0, very_low]"),
        ("low_level very_low",
         lambda low_level, very_low: (0 < low_level) & (low_level <= very_low),
         "lowered person must start at very low positive welfare"),
        ("negative_level", lambda negative_level: negative_level < 0,
         "lowered person must end slightly below zero"),
        ("high_level very_high", lambda high_level, very_high: high_level >= very_high,
         "created lives must have very high welfare"),
        ("count", lambda count: _whole(count) and count >= 1, "must create at least one life"),
        ("before = base low_level", lambda base, low_level: base.plus(low_level, 1),
         "before-world must equal base plus the very-low-positive person"),
        ("after = base negative_level high_level count",
         lambda base, negative_level, high_level, count:
            base.plus(negative_level, 1).plus(high_level, count),
         "after-world must equal base plus the lowered person plus the created lives"),
    ),
    streams=lambda bounds, very_high, very_low: {
        "base": bounds.base if bounds.base is not None else EMPTY_POPULATION,
        "low_level": _levels(bounds, lambda l: 0 < l <= very_low),
        "negative_level": _levels(bounds, lambda l: l < 0),
        "high_level": _levels(bounds, lambda l: l >= very_high),
        "count": Stream(bounds.max_count, lambda: range(1, bounds.max_count + 1)),
    },
    every="inner",
    note="no count up to {max_count} compensates the drop "
         "from {low_level} to {negative_level} (bounded claim)",
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


def second_theorem_cycle() -> list[AxiomInstance]:
    """A concrete four-world impossibility cycle from the equality/addition
    conditions, with very-high welfare 90 and very-low-positive welfare 1.

    Worlds: A (two people at 100) is raised to 101 and padded with six
    barely-positive extras at 1/2 into A+ (dominance_addition), A+ is leveled
    into the bigger equal population Z, eight people at 1
    (inequality_aversion), Z is at most as good as A*, two people at 90
    (quality), and A beats A* pointwise at equal size
    (egalitarian_dominance), closing the cycle.
    """
    a = World("a", Population([(100, 2)]))
    raised = Population([(101, 2)])
    added = Population([(Fraction(1, 2), 6)])
    a_plus = World("a_plus", raised | added)
    z = World("z", Population([(1, 8)]))
    a_star = World("a_star", Population([(90, 2)]))
    return [
        dominance_addition_instance(a, raised, added, augmented=a_plus),
        inequality_aversion_instance(a_plus, z),
        quality_instance(a_star, z, 90, 1),
        egalitarian_dominance_instance(a, a_star),
    ]
