"""The audit engine's count views against the Population-level reading.

Audits evaluate premise clauses as masks over count rows in integer units
and score claims by integer signs.  Here every clause is also read on the
binding's ``Population``s and ``Fraction``s, which answer the same
attribute names, and every sign is checked against ``swf_compare``, binding
by binding.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from uncertain_objectives import axioms
from uncertain_objectives.axioms import AXIOMS, AxiomId, SearchBounds, audit_swf
from uncertain_objectives.errors import (
    BoundsTooLargeError,
    InvalidInstanceError,
    InvalidValueError,
    UncertainObjectivesError,
)
from uncertain_objectives.ordering import Verdict
from uncertain_objectives.populations import (
    AverageWelfare,
    Counts,
    CriticalLevel,
    Population,
    TotalWelfare,
    count_rows,
    swf_compare,
    swf_signs,
    total_welfare,
)

from conftest import reference_audit_swf, sorted_dominates

SIGN = {Verdict.LESS: -1, Verdict.EQUAL: 0, Verdict.GREATER: 1}


_POOL = [Fraction(x) for x in (-3, -2, -1, "-1/2", "1/2", 1, 2, 3)]


def _grid(rng):
    kwargs = {
        "levels": rng.sample(_POOL, rng.randint(2, 5)),
        "max_count": rng.randint(1, 3),
        "max_groups": rng.randint(1, 3),
        "budget": 60_000,
    }
    if rng.random() < 0.3:
        kwargs["base"] = Population([(rng.choice(_POOL), rng.randint(1, 2))])
    return SearchBounds(**kwargs)


def _swf(rng):
    return rng.choice([TotalWelfare(), AverageWelfare(), CriticalLevel(rng.choice(["1/2", -1, 2]))])


@pytest.mark.parametrize("seed", range(5))
def test_masks_and_signs_match_population_level(seed):
    rng = random.Random(seed)
    checked = set()
    for axiom in AxiomId:
        row = AXIOMS[axiom]
        worse, better, *gate = row.roles
        for _ in range(4):
            bounds, swf = _grid(rng), _swf(rng)
            try:
                fixed, env, plan, one, critical = axioms._plan(row, swf, bounds)
            except (InvalidInstanceError, InvalidValueError, BoundsTooLargeError):
                continue
            # Each stream on its own axis, so each binding has one mask entry.
            full, depth = dict(env), len(plan)
            for d, (name, _, values, _) in enumerate(plan):
                full[name] = values[(None,) * d + (slice(None),) + (None,) * (depth - d - 1)]
            shape = tuple(len(values) for _, _, values, _ in plan)
            clauses = [c for c in row.plain if not fixed.keys() >= set(c.reads)]
            masks = [np.broadcast_to(c.apply(full), shape) for c in clauses]
            axioms._derive(row.derivations, full)
            pairs = [(worse, better)] + ([tuple(gate)] if gate else [])
            signs = [np.broadcast_to(swf_signs(swf, full[a], full[b], critical), shape)
                     for a, b in pairs]
            for _ in range(30):
                at = tuple(rng.randrange(n) for n in shape)
                binding = dict(fixed)
                for (name, items, values, _), i in zip(plan, at):
                    counts = isinstance(values, Counts)
                    binding[name] = values[i].population(one) if counts else items[i]
                for clause, mask in zip(clauses, masks):
                    assert bool(clause.apply(binding)) == bool(mask[at]), (axiom, clause.message)
                axioms._derive(row.derivations, binding)
                for (a, b), sign in zip(pairs, signs):
                    assert sign[at] == SIGN[swf_compare(swf, binding[a], binding[b])], axiom
            checked.add(axiom)
    assert len(checked) >= 5, checked


def _outcome(audit, swf, axiom, bounds):
    try:
        witness = audit(swf, axiom, bounds)
    except (UncertainObjectivesError, ValueError) as exc:
        return type(exc)
    return None if witness is None else witness.to_json()


def test_units_past_int64_take_object_arrays():
    big = 10**18
    bounds = SearchBounds(
        levels=(Fraction(-big, 3), Fraction(1, 3), Fraction(big + 1, 3)), max_count=3
    )
    _, _, plan, _, _ = axioms._plan(AXIOMS[AxiomId.DOMINANCE], TotalWelfare(), bounds)
    assert plan[0][2].units.dtype == object
    witnesses = 0
    for swf in (TotalWelfare(), AverageWelfare(), CriticalLevel(Fraction(big, 3))):
        for axiom in AxiomId:
            got = _outcome(audit_swf, swf, axiom, bounds)
            assert got == _outcome(reference_audit_swf, swf, axiom, bounds), (swf, axiom)
            witnesses += isinstance(got, dict)
    assert witnesses > 0


def test_small_grids_stay_in_int64():
    bounds = SearchBounds(levels=(-2, "1/3", 5), max_count=4)
    _, _, plan, _, _ = axioms._plan(AXIOMS[AxiomId.DOMINANCE], AverageWelfare(), bounds)
    assert plan[0][2].units.dtype == np.int64
    assert plan[0][2].units.tolist() == [-6, 1, 15]


def test_view_fields_match_population_methods():
    rng = random.Random(11)
    alphabet = sorted(_POOL)
    units = np.array([int(level * 2) for level in alphabet])  # every level in halves
    pops = [
        Population((level, rng.randint(1, 3)) for level in rng.sample(alphabet, rng.randint(1, 4)))
        for _ in range(60)
    ]
    rows = Counts(count_rows(pops, alphabet), units)
    for i, p in enumerate(pops):
        view = rows[i]
        assert (view.size, view.tiers, view.at_lo) == (p.size, len(p.groups), p.groups[0][1])
        assert (view.total, view.lo, view.hi) == (
            total_welfare(p) * 2, p.lo * 2, p.hi * 2
        )
        # A Population answers the same names, in Fractions rather than halves.
        assert (p.tiers, p.at_lo, p.total * 2, p.lo * 2, p.hi * 2) == (
            view.tiers, view.at_lo, view.total, view.lo, view.hi
        )
    a, b = rows[:, None], rows[None, :]
    for strict in (True, False):
        mask = a.dominates(b, strict)
        for i, j in np.ndindex(mask.shape):
            assert mask[i, j] == sorted_dominates(pops[i], pops[j], strict)
            assert pops[i].dominates(pops[j], strict) == mask[i, j]
