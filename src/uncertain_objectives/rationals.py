"""Exact rational parsing and formatting, and the number types of probabilities.

Welfare levels and probabilities are `fractions.Fraction` throughout the
exact code paths.  Scenario files carry them as JSON integers, "p/q"
strings, or decimal strings; floats are converted through their decimal
repr so `0.5` means one half, not the nearest binary float.

Probabilities may also be floats ("float mode").  The two number types share
one code path: array work runs on ``in_units``, which gives exact values as
integer numerators over their common denominator and floats as float64, and
reports pass either type through ``format_rational``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

from .errors import InvalidValueError


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, "p/q" / decimal string, or float to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InvalidValueError(f"not a rational: {value!r}")
        return Fraction(repr(value))
    if isinstance(value, str):
        # Fraction builds 10**exponent, so an exponent past the interpreter's
        # integer-string digit limit (the one json.loads enforces; none
        # before Python 3.10.7) is refused before it runs for minutes.
        text = value.strip()
        _, e, exponent = text.lower().partition("e")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() if e else 0
        try:
            if not limit or abs(int(exponent)) <= limit:
                return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidValueError(f"not a rational: {value!r}") from exc
        raise InvalidValueError(f"exponent of {value!r} is past the {limit}-digit limit")
    raise InvalidValueError(f"not a rational: {value!r}")


def format_rational(value):
    """Render a Fraction as "p" or "p/q", which round-trips through
    as_rational; any other value (a float, None) is returned unchanged.
    A numerator or denominator past the interpreter's integer-string digit
    limit raises ``InvalidValueError``."""
    if not isinstance(value, Fraction):
        return value
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise InvalidValueError(f"number too long to report: {exc}") from exc


def integer_weights(values: list[Fraction]) -> tuple[list[int], int]:
    """The values times their common denominator, and that denominator."""
    den = math.lcm(*(v.denominator for v in values)) if values else 1
    return [v.numerator * (den // v.denominator) for v in values], den


def in_units(values, terms: int = 1):
    """``values`` as one numpy array in units of ``one``: (array, one, value).

    Exact values become integer numerators over their common denominator
    ``one``: int64 while a sum of ``terms`` entries, each no larger in
    magnitude than ``one`` or the largest numerator, stays below 2^62, object
    arrays of Python ints past that.  Any float
    makes them float64 with ``one = 1.0``.  ``value`` takes an array entry
    back to the values' own number type.
    """
    if any(isinstance(v, float) for v in values):
        return np.array(values, dtype=np.float64), 1.0, float
    nums, one = integer_weights(values)
    dtype = np.int64 if terms * max([one, *map(abs, nums)]) < 1 << 62 else object
    return np.array(nums, dtype=dtype), one, lambda x: Fraction(x, one)
