"""Populations, welfare arithmetic, and score-based social welfare orderings.

A population is an anonymous multiset of welfare levels: who the people are
never matters, only how many sit at each exact-rational level.  Welfare 0 is
the conventional "life not worth living" threshold; the number itself carries
no further interpretation.

All arithmetic is exact (`Fraction`); there is no float path here.  Many
populations at once are ``Counts``: head counts over one sorted level
alphabet, with the levels as integers over a common denominator.  A
``Population`` has the ``Counts`` fields that premise clauses read, under
the same names, so one clause text reads either.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import EmptyPopulationError, InvalidValueError
from .ordering import Verdict
from .rationals import as_rational, format_rational


@dataclass(frozen=True)
class Population:
    """Canonical multiset of (welfare level, head count) groups.

    Groups are stored sorted by level with equal levels merged and zero or
    negative counts rejected, so structural equality is semantic equality.
    ``size``, the head count, is fixed at construction.  ``lo`` and ``hi``,
    the least and greatest level, raise ``EmptyPopulationError`` on an empty
    population; ``total`` is ``total_welfare``; ``|`` is the union.
    """

    groups: tuple[tuple[Fraction, int], ...]

    def __init__(self, groups: Iterable[tuple] = ()):
        pairs = []
        for level, count in groups:
            level = as_rational(level)
            if not isinstance(count, int) or isinstance(count, bool) or count <= 0:
                raise InvalidValueError(f"group count must be a positive int, got {count!r}")
            pairs.append((level, count))
        # Groups given strictly ascending are already canonical; only others
        # pay for hashing their levels to merge and sort them.
        if any(a[0] >= b[0] for a, b in zip(pairs, pairs[1:])):
            merged: dict[Fraction, int] = {}
            for level, count in pairs:
                merged[level] = merged.get(level, 0) + count
            pairs = sorted(merged.items())
        object.__setattr__(self, "groups", tuple(pairs))
        object.__setattr__(self, "size", sum(count for _, count in pairs))

    @property
    def levels(self) -> tuple[Fraction, ...]:
        return tuple(level for level, _ in self.groups)

    def _end(self, i: int) -> Fraction:
        if not self.groups:
            raise EmptyPopulationError("empty population has no welfare levels")
        return self.groups[i][0]

    # The fields of ``Counts`` that premise clauses read, under its names.
    lo, hi = property(lambda self: self._end(0)), property(lambda self: self._end(-1))
    tiers = property(lambda self: len(self.groups))
    total = property(lambda self: total_welfare(self))
    at_lo = property(lambda self: self.groups[0][1] if self.groups else 0)

    def dominates(self, other: "Population", strict: bool) -> bool:
        """``Counts.dominates`` over groups: one merge of both group lists,
        checked at this population's own levels, the only places where its
        count at or below x grows."""
        if self.size != other.size:
            return False
        before = operator.lt if strict else operator.le
        theirs, j, mine, below = other.groups, 0, 0, 0
        for level, count in self.groups:
            mine += count
            while j < len(theirs) and before(theirs[j][0], level):
                below += theirs[j][1]
                j += 1
            if mine > below:
                return False
        return True

    def plus(self, level, count: int) -> "Population":
        return self | Population([(level, count)])

    def __or__(self, other: "Population") -> "Population":
        return Population(self.groups + other.groups)

    def to_json(self) -> list[list]:
        return [[format_rational(level), count] for level, count in self.groups]

    def __repr__(self) -> str:
        inner = ", ".join(f"({format_rational(l)}, {c})" for l, c in self.groups)
        return f"Population([{inner}])"


EMPTY_POPULATION = Population()


def population(*groups: tuple) -> Population:
    """Shorthand constructor: population((100, 10), ('1/2', 5))."""
    return Population(groups)


def total_welfare(p: Population) -> Fraction:
    return sum((level * count for level, count in p.groups), Fraction(0))


def average_welfare(p: Population) -> Fraction:
    if p.size == 0:
        raise EmptyPopulationError("average welfare undefined for an empty population")
    return total_welfare(p) / p.size


@dataclass(frozen=True)
class World:
    """A named state of the world: an opaque id plus its population."""

    id: str
    population: Population


@dataclass(frozen=True)
class TotalWelfare:
    name = "total"

    def score(self, p: Population) -> Fraction:
        return total_welfare(p)


@dataclass(frozen=True)
class AverageWelfare:
    name = "average"

    def score(self, p: Population) -> Fraction:
        return average_welfare(p)


@dataclass(frozen=True)
class CriticalLevel:
    """Total welfare measured against a critical level: sum of (w - c)."""

    critical: Fraction

    name = "critical"

    def __init__(self, critical):
        object.__setattr__(self, "critical", as_rational(critical))

    def score(self, p: Population) -> Fraction:
        return total_welfare(p) - self.critical * p.size


SwfKind = TotalWelfare | AverageWelfare | CriticalLevel


def swf_compare(swf: SwfKind, a: Population, b: Population) -> Verdict:
    """Exact score comparison; a total preorder over populations.

    Never returns INCOMPARABLE.  Average welfare raises EmptyPopulationError
    on an empty input rather than silently ranking empty worlds.
    """
    sa = swf.score(a)
    sb = swf.score(b)
    if sa < sb:
        return Verdict.LESS
    if sa > sb:
        return Verdict.GREATER
    return Verdict.EQUAL


def swf_order(swf: SwfKind):
    """A world-level comparison function built from a score-based SWF."""

    def order(u: World, v: World) -> Verdict:
        return swf_compare(swf, u.population, v.population)

    return order


def swf_label(swf: SwfKind) -> str:
    if isinstance(swf, CriticalLevel):
        return f"critical:{format_rational(swf.critical)}"
    return swf.name


def parse_swf(text: str) -> SwfKind:
    """Parse "total", "average", or "critical:<level>"."""
    if text == "total":
        return TotalWelfare()
    if text == "average":
        return AverageWelfare()
    if text.startswith("critical:"):
        return CriticalLevel(as_rational(text.split(":", 1)[1]))
    raise InvalidValueError(f"unknown social welfare function {text!r}")


# ---------------------------------------------------------------------------
# Count views
# ---------------------------------------------------------------------------

def count_rows(populations, alphabet) -> np.ndarray:
    """Each population's head counts over the sorted ``alphabet``, one row
    each."""
    rows = np.zeros((len(populations), len(alphabet)), np.int64)
    for r, p in enumerate(populations):
        for level, count in p.groups:
            rows[r, bisect_left(alphabet, level)] = count
    return rows


def count_matrix(index, counts, k: int, width: int) -> np.ndarray:
    """Count rows over an alphabet of ``width`` levels, ``index``-major: row
    (p, q) puts counts[q][t] people at alphabet position index[p][t] for
    each t < k (plain ints where k is 1)."""
    index = np.asarray(index, np.intp).reshape(-1, k)
    counts = np.asarray(counts, np.int64).reshape(-1, k)
    rows = np.zeros((len(index) * len(counts), width), np.int64)
    cells = np.arange(len(rows)).reshape(len(index), len(counts), 1) * width + index[:, None]
    rows.ravel()[cells] = counts
    return rows


class _field:
    """A field computed on a view's first read and stored in its
    ``__dict__``, which shadows this (non-data) descriptor from then on: a
    ``cached_property`` without the lock it takes on every first read."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, view, owner=None):
        if view is None:
            return self
        value = view.__dict__[self.name] = self.compute(view)
        return value


def _aligned(a, b):
    """Two level-first arrays whose candidate axes broadcast as numpy aligns
    shapes, on the right: the one with fewer candidate axes gets unit axes
    just after its levels.  Arrays of equal rank come back untouched."""
    if a.ndim < b.ndim:
        a = a.reshape(a.shape[:1] + (1,) * (b.ndim - a.ndim) + a.shape[1:])
    elif b.ndim < a.ndim:
        b = b.reshape(b.shape[:1] + (1,) * (a.ndim - b.ndim) + b.shape[1:])
    return a, b


class Counts:
    """Populations as head counts over one sorted level alphabet.

    ``Counts(rows, units)`` takes ``rows`` with the alphabet on the last
    axis, under any leading shape of candidates: one row for an instance, a
    block of candidates in an audit.  It stores them with the alphabet on
    the leading axis instead (``counts`` is ``(levels, *candidates)``,
    contiguous), so each field reduces over levels in numpy loops that run
    across candidates.  ``units`` holds the alphabet's levels as integers in
    one unit (``in_units``), so every field is exact and has the candidates'
    shape: ``size``; ``total`` welfare in units; ``lo`` and ``hi``, the
    least and greatest level present in units; ``tiers``, the number of
    levels present; ``at_lo``, the head count at ``lo``; and ``cum``,
    cumulative head counts along the alphabet (levels first, like
    ``counts``).  An empty population has no ``lo`` or ``hi``; clauses test
    size first.  Fields are computed on first use and kept; ``view[key]``
    indexes the candidate axes as numpy indexes ``rows[key]``, and
    ``len(view)`` is the length of the first of them.  Views of different
    numbers of candidate axes combine as their rows would, aligned on the
    right.
    """

    def __init__(self, rows, units):
        self.counts = np.ascontiguousarray(rows.transpose(rows.ndim - 1, *range(rows.ndim - 1)))
        self.units = units

    def _view(self, counts) -> "Counts":
        """A view of ``counts`` already held levels first."""
        view = Counts.__new__(Counts)
        view.counts, view.units = counts, self.units
        return view

    def __getitem__(self, key) -> "Counts":
        return self._view(self.counts[(slice(None),) + (key if isinstance(key, tuple) else (key,))])

    def __len__(self) -> int:
        return self.counts.shape[1]

    @_field
    def size(self):
        return self.counts.sum(0)

    @_field
    def cum(self):
        return self.counts.cumsum(0)

    @_field
    def total(self):
        c = self.counts
        return (self.units @ c.reshape(len(c), -1)).reshape(c.shape[1:])

    @_field
    def tiers(self):
        return (self.counts > 0).sum(0)

    @_field
    def lo(self):
        return self.units[(self.cum == 0).sum(0)]

    @_field
    def hi(self):
        return self.units[(self.cum < self.size).sum(0)]

    @_field
    def at_lo(self):
        return np.where(self.cum > 0, self.cum, self.size).min(0)

    def dominates(self, other: "Counts", strict: bool):
        """Sorted pointwise dominance from cumulative counts: at equal size,
        the i-th worst here beats the i-th worst of ``other`` for every i
        exactly when, at every level x, no more people here sit at or below
        x than there sit below x (at or below x, when not ``strict``)."""
        mine, below = _aligned(self.cum, other.cum - other.counts if strict else other.cum)
        return (self.size == other.size) & (mine <= below).all(0)

    def __or__(self, other: "Counts") -> "Counts":
        return self._view(np.add(*_aligned(self.counts, other.counts)))

    def plus(self, level, count) -> "Counts":
        """These populations with ``count`` more people at ``level`` (units,
        on the alphabet)."""
        level, count = np.asarray(level), np.asarray(count)
        at = self.units.reshape((-1,) + (1,) * max(level.ndim, count.ndim)) == level
        return self._view(np.add(*_aligned(self.counts, at * count)))

    def population(self, one: int) -> Population:
        """The population of a one-population view whose unit is 1/``one``."""
        return Population(
            (Fraction(int(u), one), int(c)) for u, c in zip(self.units, self.counts) if c
        )


def swf_signs(swf: SwfKind, a: Counts, b: Counts, critical=0):
    """``swf_compare`` of count views as signs: -1 LESS, 0 EQUAL, 1 GREATER.
    Total and critical-level scores are totals less ``critical`` (the
    critical level in the views' units) per head; average welfare compares
    totals cross-multiplied by sizes, so no score is ever divided."""
    if isinstance(swf, AverageWelfare):
        x, y = a.total * b.size, b.total * a.size
    else:
        x, y = a.total - critical * a.size, b.total - critical * b.size
    return (x > y).astype(np.int8) - (x < y)
