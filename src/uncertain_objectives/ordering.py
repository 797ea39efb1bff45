"""Four-valued comparison verdicts.

Total preorders (social welfare comparisons) use LESS / EQUAL / GREATER;
partial orders additionally return INCOMPARABLE.  Verdicts are always
stated for an ordered pair: ``verdict(a, b) == LESS`` means "a is worse
than b".
"""

from __future__ import annotations

import enum


class Verdict(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"

    def flipped(self) -> "Verdict":
        """The verdict of the reversed pair."""
        if self is Verdict.LESS:
            return Verdict.GREATER
        if self is Verdict.GREATER:
            return Verdict.LESS
        return self
