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

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
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
    ``size``, the head count, is fixed at construction.  ``lo``, ``hi`` and
    ``total`` are ``min_level``, ``max_level`` and ``total_welfare``.
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

    def min_level(self) -> Fraction:
        if not self.groups:
            raise EmptyPopulationError("empty population has no welfare levels")
        return self.groups[0][0]

    def max_level(self) -> Fraction:
        if not self.groups:
            raise EmptyPopulationError("empty population has no welfare levels")
        return self.groups[-1][0]

    # The fields of ``Counts`` that premise clauses read, under its names.
    lo, hi = property(min_level), property(max_level)
    tiers = property(lambda self: len(self.groups))
    total = property(lambda self: total_welfare(self))
    at_lo = property(lambda self: self.groups[0][1] if self.groups else 0)

    def dominates(self, other: "Population", strict: bool) -> bool:
        return pointwise_dominates(self, other, strict)

    def plus(self, level, count: int) -> "Population":
        return self | Population([(level, count)])

    def union(self, other: "Population") -> "Population":
        return Population(self.groups + other.groups)

    def __or__(self, other: "Population") -> "Population":
        return self.union(other)

    def to_json(self) -> list[list]:
        return [[format_rational(level), count] for level, count in self.groups]

    def __repr__(self) -> str:
        inner = ", ".join(f"({format_rational(l)}, {c})" for l, c in self.groups)
        return f"Population([{inner}])"


EMPTY_POPULATION = Population()


def population(*groups: tuple) -> Population:
    """Shorthand constructor: population((100, 10), ('1/2', 5))."""
    return Population(groups)


def population_union(a: Population, b: Population) -> Population:
    return a.union(b)


def total_welfare(p: Population) -> Fraction:
    return sum((level * count for level, count in p.groups), Fraction(0))


def average_welfare(p: Population) -> Fraction:
    if p.size == 0:
        raise EmptyPopulationError("average welfare undefined for an empty population")
    return total_welfare(p) / p.size


def is_perfectly_equal(p: Population) -> bool:
    """At most one distinct welfare level; vacuously true when empty."""
    return len(p.groups) <= 1


def pointwise_dominates(a: Population, b: Population, strict: bool = True) -> bool:
    """Sorted-position dominance at equal sizes.

    True when, pairing the i-th worst of ``a`` with the i-th worst of ``b``,
    every pair satisfies a_i > b_i (or >= when ``strict`` is False).  Runs
    over group runs, so large head counts cost nothing.
    """
    if a.size != b.size:
        return False
    ia = ib = 0
    rem_a = rem_b = 0
    while True:
        if rem_a == 0:
            if ia == len(a.groups):
                return True
            level_a, rem_a = a.groups[ia]
            ia += 1
        if rem_b == 0:
            level_b, rem_b = b.groups[ib]
            ib += 1
        if strict and not level_a > level_b:
            return False
        if not strict and not level_a >= level_b:
            return False
        step = min(rem_a, rem_b)
        rem_a -= step
        rem_b -= step


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


class Counts:
    """Populations as head counts over one sorted level alphabet.

    ``counts`` holds the alphabet on its last axis, under any leading shape:
    one row for an instance, a block of candidates in an audit.  ``units``
    holds the alphabet's levels as integers in one unit (``in_units``), so
    every field is exact and has the leading shape: ``size``; ``total``
    welfare in units; ``lo`` and ``hi``, the least and greatest level present
    in units; ``tiers``, the number of levels present; ``at_lo``, the head
    count at ``lo``; and ``cum``, cumulative head counts along the alphabet.
    An empty population has no ``lo`` or ``hi``; clauses test size first.
    Fields are computed on first use and kept; ``view[key]`` is the view of
    ``counts[key]`` (numpy indexing of the leading axes).
    """

    def __init__(self, counts, units):
        self.counts, self.units = counts, units

    def __getitem__(self, key) -> "Counts":
        return Counts(self.counts[key], self.units)

    def __len__(self) -> int:
        return len(self.counts)

    @cached_property
    def size(self):
        return self.counts.sum(-1)

    @cached_property
    def cum(self):
        return self.counts.cumsum(-1)

    @cached_property
    def total(self):
        return self.counts @ self.units

    @cached_property
    def tiers(self):
        return (self.counts > 0).sum(-1)

    @cached_property
    def lo(self):
        return self.units[(self.cum == 0).sum(-1)]

    @cached_property
    def hi(self):
        return self.units[(self.cum < self.size[..., None]).sum(-1)]

    @cached_property
    def at_lo(self):
        return np.where(self.cum > 0, self.cum, self.size[..., None]).min(-1)

    def dominates(self, other: "Counts", strict: bool):
        """``pointwise_dominates`` from cumulative counts: at equal size, the
        i-th worst here beats the i-th worst of ``other`` for every i exactly
        when, at every level x, no more people here sit at or below x than
        there sit below x (at or below x, when not ``strict``)."""
        below = other.cum - other.counts if strict else other.cum
        return (self.size == other.size) & (self.cum <= below).all(-1)

    def __or__(self, other: "Counts") -> "Counts":
        return Counts(self.counts + other.counts, self.units)

    def plus(self, level, count) -> "Counts":
        """These populations with ``count`` more people at ``level`` (units,
        on the alphabet)."""
        at = self.units == np.asarray(level)[..., None]
        return Counts(self.counts + at * np.asarray(count)[..., None], self.units)

    def population(self, one: int) -> Population:
        """The population of a one-row view whose unit is 1/``one``."""
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
