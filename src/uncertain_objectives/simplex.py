"""Exact two-phase revised simplex.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0  with exact
rational arithmetic.  Only the m x m basis inverse (integer numerators over
one common denominator) and the basic values and duals (Fractions) are
stored; a column is built when it is priced or enters the basis.  Besides
the explicit columns of ``c``/``a_ub``/``a_eq``, a caller may pass an
*implicit* family of zero-cost columns too large to list (one per total
order, say) as a ``ColumnSource``: its pricing is a maximisation the source
solves in integers, against the duals scaled to their common denominator.

Column ids fix every choice: implicit columns take ids 0..size-1, explicit
columns follow, then one slack per ub row, then one artificial per eq or
negative-rhs row.  One pivot rule: Dantzig's (most negative reduced cost,
smallest id on ties) picks the entering column, and the lexicographic ratio
test of Dantzig, Orden and Wolfe (1955) the leaving row: of the rows with a
positive entry d_i in the entering column, the one whose row of
[b | B^-1 S] / d_i is lexicographically smallest, B being the basis and S
the basis the phase started from.  On infeasibility the phase-1 duals are
returned as a Farkas certificate: y_ub <= 0, y.A <= 0 componentwise, and
y.b > 0.

Termination: at a phase's start B = S, so every row of [b | B^-1 S] is
lexicographically positive (b >= 0, then a row of I).  A pivot divides the
leaving row by its d_i > 0 and subtracts d_k / d_i times it from each other
row k: for d_k <= 0 that adds a nonnegative multiple of a positive row, and
for d_k > 0 the leaving row's minimality keeps the difference positive
(rows of the nonsingular B^-1 S are never proportional, so the minimum is
unique).  Then c_B B^-1 [b | S] changes by the entering reduced cost (< 0)
times the new leaving row (> 0): it strictly decreases, and since it is a
function of the basis, no basis recurs and the phase ends.  Phase 1 starts
from the identity basis of slacks and artificials, so B^-1 S is the stored
inverse.  Phase 2 starts from the basis left after the artificials are
driven out; those pivots may divide a zero row by a negative entry and so
make it lexicographically negative against the identity, but not against
S.  The membership LP of ``beliefs`` has c = [], so phase 2 never pivots.
``_MAX_PIVOTS`` stays as a backstop.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Protocol

from .errors import InvalidValueError, PivotCapError, SolverError
from .rationals import integer_weights

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MAX_PIVOTS = 200_000


class ColumnSource(Protocol):
    """Zero-cost columns with ids 0..size-1, identified by hashable keys."""

    size: int

    def column(self, key) -> list[int]:
        """Integer entries of the column on every row, ub rows then eq rows."""

    def rank(self, key) -> int:
        """The column's id."""

    def best(self, weights: list[int]) -> tuple[int, Any]:
        """Largest weights.column, and the smallest-id key attaining it."""

    def first_above(self, weights: list[int], threshold: int):
        """Smallest-id key with weights.column > threshold, or None."""


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None = None  # explicit columns
    objective: Fraction | None = None
    certificate: list[Fraction] | None = None  # Farkas y, ub rows then eq rows
    pivots: int = 0
    support: list[tuple[Any, Fraction]] | None = None  # positive implicit columns, by id


def solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), implicit: ColumnSource | None = None) -> LpResult:
    c = [Fraction(v) for v in c]
    n = len(c)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    n_ub = 0
    for row, b in zip(a_ub, b_ub):
        rows.append([Fraction(v) for v in row])
        rhs.append(Fraction(b))
        n_ub += 1
    for row, b in zip(a_eq, b_eq):
        rows.append([Fraction(v) for v in row])
        rhs.append(Fraction(b))
    m = len(rows)
    for row in rows:
        if len(row) != n:
            raise InvalidValueError("constraint row length does not match objective")

    sign = [1] * m
    for i in range(m):
        if rhs[i] < 0:
            sign[i] = -1
            rhs[i] = -rhs[i]

    # Explicit columns of the sign-flipped system, by id minus ``base`` (x
    # columns, slacks, then artificials): each is its nonzero (row, integer)
    # entries and a denominator q, the column being those entries / q.
    base = implicit.size if implicit is not None else 0
    cols = []
    for j in range(n):
        nz = [(i, sign[i] * row[j]) for i, row in enumerate(rows) if row[j]]
        ints, q = integer_weights([v for _, v in nz])
        cols.append(([(i, v) for (i, _), v in zip(nz, ints)], q))
    basis: list[int] = [0] * m
    for i in range(n_ub):
        if sign[i] > 0:
            basis[i] = base + len(cols)
        cols.append(([(i, sign[i])], 1))
    artificial: set[int] = set()
    for i in range(m):
        if i >= n_ub or sign[i] < 0:
            basis[i] = base + len(cols)
            artificial.add(basis[i])
            cols.append(([(i, 1)], 1))
    keys: dict[int, Any] = {}  # key of every implicit column that entered

    # The basis inverse is inv / den: integer numerators over one positive
    # denominator, in lowest terms.  b holds the basic values.
    inv = [[int(r == i) for r in range(m)] for i in range(m)]
    den = 1
    b = rhs[:]
    pivots = 0

    def int_column(j):
        if j >= base:
            return cols[j - base]
        col = implicit.column(keys[j])
        return [(r, s * v) for r, (s, v) in enumerate(zip(sign, col)) if v], 1

    def ftran(col):
        """Numerators of B^-1 times a column: its image is these / (den * q)."""
        return [sum(row[r] * v for r, v in col) for row in inv]

    def pivot(leave, d, q):
        """Make basic, in row ``leave``, the column whose image is d / (den * q)."""
        nonlocal den
        p = d[leave]
        t = b[leave] / p
        for i in range(m):
            if d[i] and i != leave:
                b[i] -= d[i] * t
        b[leave] = t * (den * q)
        prow = inv[leave]
        new = []
        for i, row in enumerate(inv):
            f = d[i]
            if i == leave:
                new.append([v * q * den for v in prow])
            elif f:
                new.append([v * p - f * w for v, w in zip(row, prow)])
            else:
                new.append([v * p for v in row])
        den *= p
        g = math.gcd(den, *itertools.chain.from_iterable(new))
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            new = [[v // g for v in row] for row in new]
        inv[:] = new

    def add_row(u, f, row):
        return [x + f * v if v else x for x, v in zip(u, row)]

    def price(u, cost, blocked):
        """Entering column id and its reduced cost, or None at optimality."""
        enter = None
        best = _ZERO
        if implicit is not None:
            weights, wden = integer_weights([x if s > 0 else -x for x, s in zip(u, sign)])
            top, key = implicit.best(weights)
            if top > 0:
                j = implicit.rank(key)
                keys[j] = key
                best = Fraction(-top, wden)
                enter = j, best
        for j in range(base, base + len(cols)):
            if j not in blocked:
                col, q = cols[j - base]
                red = cost(j) - sum((u[r] * v for r, v in col), _ZERO) / q
                if red < best:
                    best = red
                    enter = j, red
        return enter

    def lex_less(i, k, d, start):
        """Whether row i of B^-1 S over d[i] precedes row k's over d[k]
        lexicographically (S = ``start``; d[i], d[k] > 0).  Rows of a
        nonsingular matrix are never proportional, so some column decides."""
        for j in start:
            col, _ = int_column(j)
            x = sum(inv[i][r] * v for r, v in col) * d[k]
            y = sum(inv[k][r] * v for r, v in col) * d[i]
            if x != y:
                return x < y

    def run_phase(cost, blocked):
        nonlocal pivots
        start = basis[:]
        # Invariant: u = c_B B^-1 (the duals), so column j's reduced cost is
        # cost(j) - u.column(j); z is the negated objective of the basis.
        u = [_ZERO] * m
        z = _ZERO
        for i, bc in enumerate(basis):
            cb = cost(bc)
            if cb:
                z -= cb * b[i]
                u = add_row(u, cb / den, inv[i])
        while True:
            chosen = price(u, cost, blocked)
            if chosen is None:
                return "optimal", u, -z
            enter, red = chosen
            col, q = int_column(enter)
            d = ftran(col)
            # Every image entry shares the positive divisor den * q, so
            # b[i] / d[i] orders the true ratios; lex_less breaks ties.
            leave = -1
            best_ratio = None
            for i in range(m):
                if d[i] > 0:
                    ratio = b[i] / d[i]
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and lex_less(i, leave, d, start))
                    ):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                return "unbounded", u, -z
            pivots += 1
            if pivots > _MAX_PIVOTS:
                raise PivotCapError(_MAX_PIVOTS)
            pivot(leave, d, q)
            u = add_row(u, red / den, inv[leave])
            z -= red * b[leave]
            basis[leave] = enter

    # Phase 1: drive the artificials to zero.
    if artificial:

        def cost1(j):
            return _ONE if j in artificial else _ZERO

        status, u1, obj1 = run_phase(cost1, blocked=frozenset())
        if status != "optimal":  # phase-1 objective is bounded below by 0
            raise SolverError("phase 1 cannot be unbounded")
        if obj1 > 0:
            cert = [y if s > 0 else -y for s, y in zip(sign, u1)]
            return LpResult(status="infeasible", certificate=cert, pivots=pivots)
        # Pivot surviving artificials out of the basis on the first
        # non-artificial column with a nonzero entry in their row.  A row
        # with none is redundant: its artificial stays basic at zero, and
        # since every column that can still enter has a zero entry there,
        # the row never takes part in a pivot again.
        for i in range(m):
            if basis[i] not in artificial:
                continue
            row = inv[i]
            enter = None
            if implicit is not None:
                weights = [s * v for s, v in zip(sign, row)]
                found = [
                    key
                    for key in (
                        implicit.first_above(weights, 0),
                        implicit.first_above([-w for w in weights], 0),
                    )
                    if key is not None
                ]
                if found:
                    key = min(found, key=implicit.rank)
                    enter = implicit.rank(key)
                    keys[enter] = key
            if enter is None:
                for j in range(base, base + len(cols)):
                    if j not in artificial and sum(row[r] * v for r, v in cols[j - base][0]):
                        enter = j
                        break
            if enter is None:
                continue
            col, q = int_column(enter)
            pivot(i, ftran(col), q)
            basis[i] = enter

    def cost2(j):
        return c[j - base] if base <= j < base + n else _ZERO

    status, _, obj2 = run_phase(cost2, blocked=frozenset(artificial))
    if status == "unbounded":
        return LpResult(status="unbounded", pivots=pivots)
    x = [_ZERO] * n
    support = []
    for i, bc in enumerate(basis):
        if base <= bc < base + n:
            x[bc - base] = b[i]
        elif bc < base and b[i] > 0:
            support.append((bc, keys[bc], b[i]))
    support.sort(key=lambda s: s[0])
    return LpResult(
        status="optimal",
        x=x,
        objective=obj2,
        pivots=pivots,
        support=[(key, v) for _, key, v in support] if implicit is not None else None,
    )
