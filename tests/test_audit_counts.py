"""The audit engine's count views against the Population-level reading.

Audits evaluate premise clauses as masks over count rows in integer units
and score claims by integer signs.  Here every clause is also read on the
binding's ``Population``s and ``Fraction``s, which answer the same
attribute names, and every sign is checked against ``swf_compare``, binding
by binding.
"""

import itertools
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
    count_matrix,
    count_rows,
    swf_compare,
    swf_signs,
    total_welfare,
)

from conftest import _populations as reference_populations
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


def _random_pops(rng, alphabet, shape, empty=0.0):
    """An object array of ``shape`` holding random populations over
    ``alphabet``, each empty with probability ``empty``."""
    pops = np.empty(shape, object)
    for at in np.ndindex(shape):
        levels = [] if rng.random() < empty else rng.sample(alphabet, rng.randint(1, len(alphabet)))
        pops[at] = Population((level, rng.randint(1, 3)) for level in levels)
    return pops


def _view(pops, alphabet, units):
    """The count view of an object array of populations, built from rows."""
    rows = count_rows(list(pops.flat), alphabet)
    return Counts(rows.reshape(pops.shape + (len(alphabet),)), units)


def _population_of(row, alphabet) -> Population:
    return Population((alphabet[i], int(n)) for i, n in enumerate(row) if n)


def _assert_reads_as(view, pops, one):
    """Every field of ``view`` (in units of 1/``one``) against the
    populations it holds, binding by binding; ``lo`` and ``hi`` only where
    no population is empty, as clauses test size first."""
    names = ["size", "tiers", "at_lo", "total"]
    nonempty = all(p.size for p in pops.flat)
    fields = {name: np.asarray(getattr(view, name)) for name in names + ["lo", "hi"] * nonempty}
    for name, value in fields.items():
        assert value.shape == pops.shape, name
    for at in np.ndindex(pops.shape):
        p = pops[at]
        assert view[at].population(one) == p
        assert (fields["size"][at], fields["tiers"][at]) == (p.size, p.tiers)
        assert (fields["at_lo"][at], fields["total"][at]) == (p.at_lo, p.total * one)
        if nonempty:
            assert (fields["lo"][at], fields["hi"][at]) == (p.lo * one, p.hi * one)


@pytest.mark.parametrize("seed", range(6))
def test_views_of_different_candidate_rank_combine_like_populations(seed):
    """A one-population view (rank 0), a (C,) row, an (R, 1) block, a (1, C)
    block and an (R, C) tile combine as their populations do: candidate axes
    align on the right, as a pinned base meets a tile in avoid_sadistic and
    priority_compensation."""
    rng = random.Random(seed)
    alphabet = sorted(rng.sample(_POOL, rng.randint(1, 5)))
    one = 2
    units = np.array([int(level * one) for level in alphabet])
    r, c = rng.randint(1, 4), rng.randint(1, 4)
    operands = [_random_pops(rng, alphabet, shape, empty=0.2) for shape in ((), (c,), (r, 1), (1, c), (r, c))]
    views = [_view(pops, alphabet, units) for pops in operands]
    for view, pops in zip(views, operands):
        _assert_reads_as(view, pops, one)
    draws = lambda shape, draw: np.array([draw() for _ in range(int(np.prod(shape)))]).reshape(shape)
    for (a, pa), (b, pb) in itertools.product(zip(views, operands), repeat=2):
        shape = np.broadcast_shapes(pa.shape, pb.shape)
        pa_, pb_ = np.broadcast_to(pa, shape), np.broadcast_to(pb, shape)
        union = np.empty(shape, object)
        for at in np.ndindex(shape):
            union[at] = pa_[at] | pb_[at]
        _assert_reads_as(a | b, union, one)
        for strict in (True, False):
            mask = np.asarray(a.dominates(b, strict))
            assert mask.shape == shape
            for at in np.ndindex(shape):
                assert mask[at] == sorted_dominates(pa_[at], pb_[at], strict), (at, strict)
    for a, pa in zip(views, operands):
        for level_shape, count_shape in (((r, c), (r, 1)), ((c,), (r, 1)), ((r, c), ())):
            at_level = draws(level_shape, lambda: rng.randrange(len(alphabet)))
            added = draws(count_shape, lambda: rng.randint(1, 3))
            shape = np.broadcast_shapes(pa.shape, level_shape, count_shape)
            pa_ = np.broadcast_to(pa, shape)
            levels_, added_ = np.broadcast_to(at_level, shape), np.broadcast_to(added, shape)
            grown = np.empty(shape, object)
            for at in np.ndindex(shape):
                grown[at] = pa_[at].plus(alphabet[levels_[at]], int(added_[at]))
            _assert_reads_as(a.plus(units[at_level], added), grown, one)


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_counts_keep_their_row_contract(shape):
    """``Counts`` takes rows with the levels last, under 1-, 2- or 3-D
    ``rows``: ``len`` is the first candidate axis and indexing picks
    populations as it would pick rows; the row builders keep one row per
    candidate, levels last."""
    rng = random.Random(len(shape))
    alphabet = sorted(_POOL)
    units = np.array([int(level * 2) for level in alphabet])
    pops = _random_pops(rng, alphabet, shape)
    rows = count_rows(list(pops.flat), alphabet)
    assert rows.shape == (pops.size, len(alphabet))
    assert [_population_of(row, alphabet) for row in rows] == list(pops.flat)
    view = Counts(rows.reshape(shape + (len(alphabet),)), units)
    if shape:
        assert len(view) == shape[0]
        for i in range(shape[0]):
            assert np.shape(view[i].size) == shape[1:]
    for at in np.ndindex(shape):
        assert view[at].population(2) == pops[at]
        assert view[at[:1]][at[1:]].population(2) == pops[at]

    matrix = count_matrix([[0, 3], [1, 4]], [[1, 2], [3, 1], [2, 2]], 2, len(alphabet))
    assert matrix.shape == (6, len(alphabet))
    assert matrix[1].tolist() == [3, 0, 0, 1, 0, 0, 0, 0]  # index (0, 3), counts (3, 1)
    assert matrix[5].tolist() == [0, 2, 0, 0, 2, 0, 0, 0]  # index (1, 4), counts (2, 2)

    bounds = SearchBounds(levels=(-1, "1/2", 2), max_count=2, max_groups=2)
    stream = axioms._populations(bounds)
    built = stream.build()
    assert built.shape == (stream.size, len(bounds.alphabet))
    assert [_population_of(row, bounds.alphabet) for row in built] == list(
        reference_populations(bounds.alphabet, bounds)
    )
