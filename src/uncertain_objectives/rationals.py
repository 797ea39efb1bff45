"""Exact rational parsing and formatting.

Welfare levels and probabilities are `fractions.Fraction` throughout the
exact code paths.  Scenario files carry them as JSON integers, "p/q"
strings, or decimal strings; floats are converted through their decimal
repr so `0.5` means one half, not the nearest binary float.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidValueError

Rational = Fraction


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, "p/q" / decimal string, or float to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        text = value.strip()
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidValueError(f"not a rational: {value!r}") from exc
    raise InvalidValueError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p" or "p/q"; round-trips through as_rational."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
