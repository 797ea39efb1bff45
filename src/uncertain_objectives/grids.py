"""The finite welfare grid a bounded audit searches.

A grid is a sorted welfare alphabet, a cap on distinct levels per
population and on each level's head count, default thresholds at its
extremes, an optional pinned background population, and the audit's
instance budget.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InvalidValueError
from .populations import Population
from .rationals import as_rational, format_rational


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

    @cached_property
    def alphabet(self) -> tuple[Fraction, ...]:
        """The grid's levels and the pinned base's, sorted: the last axis of
        every count row an audit enumerates."""
        return tuple(sorted({*self.levels, *(self.base.levels if self.base else ())}))

    @cached_property
    def _grid(self) -> tuple[int, ...]:
        """The alphabet position of each grid level; the base may add
        levels off the grid."""
        return tuple(bisect_left(self.alphabet, level) for level in self.levels)

    def positions(self, keep=None) -> list[int]:
        """The alphabet positions of the grid levels that ``keep`` accepts."""
        alphabet = self.alphabet
        return [i for i in self._grid if keep is None or keep(alphabet[i])]
