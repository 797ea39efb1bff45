"""Exact two-phase revised simplex in integer arithmetic.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0  exactly.
The inputs are scaled to integers once.  From there on every number is an
integer (fraction-free elimination: Edmonds 1967, Bareiss 1968), and
Fractions are built again only for the result.

- The m x m basis inverse is ``T / den``, stored by columns: T[c][i] is
  the integer numerator of entry (i, c), over one positive denominator,
  kept in lowest terms.
- The right-hand side, scaled to integers over the lcm ``rden`` of its
  denominators, is column m of ``T``: row i's basic value is
  T[m][i] / (den * rden).
- During a phase, whose costs are scaled to integers over their lcm
  ``cden``, each column has one more entry, the cost row c_B . T: the
  duals times den * cden, then the objective times den * rden * cden.
- An explicit column is integer entries over a denominator q, so its
  reduced cost is an integer over den * cden * q; columns compare by
  cross-multiplying.

A pivot updates the inverse, the basic values and the duals column by
column, with one gcd; a column that is 0 in the leaving row is only scaled.
Only these are stored; a column is built when it is priced or enters the
basis, and its image under the inverse sums the stored columns its nonzero
entries pick (an order column's are all 1 or -1).  Besides the explicit
columns of ``c``, ``a_ub`` and ``a_eq``, a caller may pass an *implicit*
family of zero-cost columns too large to list (one per total order, say)
as a ``ColumnSource``: its pricing is a maximisation the source solves in
integers, against the duals' numerators.

An implicit column's id is the key its source names it by, and the
result lists the positive ones sorted by key.  Explicit columns are
numbered from 0: the columns of ``c``, one slack per ub row, then one
artificial per eq or negative-rhs row.  One pivot rule: Dantzig's (most
negative reduced cost) picks the entering column; on a tie the implicit
column ``best`` returns wins, then the smallest explicit id.  Phase 2
continues from the basis phase 1 ends with, and its artificials never
enter; one still basic there sits at zero and leaves at the first pivot
whose entering column is nonzero in its row (the first such row if
several).  Otherwise the lexicographic ratio test of Dantzig, Orden and
Wolfe (1955) picks the leaving row: of the rows with a positive entry d_i
in the entering column, the one whose row of [b | B^-1 S] / d_i is
lexicographically smallest, B being the basis and S the basis the current
segment started from.  On infeasibility the phase-1 duals are returned as
a Farkas certificate: y_ub <= 0, y.A <= 0 componentwise, and y.b > 0.

Termination: a phase is split into segments by the pivots on which an
artificial leaves, and each segment starts with B = S.  There every row of
[b | B^-1 S] is lexicographically positive (b >= 0, then a row of I).  A
pivot divides the leaving row by its d_i > 0 and subtracts d_k / d_i times
it from each other row k: for d_k <= 0 that adds a nonnegative multiple of a
positive row, and for d_k > 0 the leaving row's minimality keeps the
difference positive (rows of the nonsingular B^-1 S are never proportional,
so the minimum is unique).  Then c_B B^-1 [b | S] changes by the entering
reduced cost (< 0) times the new leaving row (> 0): it strictly decreases,
and since it is a function of the basis, no basis recurs within a segment.
An artificial-leaving pivot is degenerate (its row's basic value is 0), so
it keeps b >= 0, but it may divide by a negative entry; hence the next
segment starts S afresh from the new basis.  Each such pivot removes an
artificial from the basis for good, so a phase has at most m + 1 segments
and ends.  Phase 1 bars no column and is one segment from the identity
basis of slacks and artificials, so its B^-1 S is the stored inverse.  When
every cost in ``c`` is 0, as in the membership LP of ``beliefs`` (c = []),
no column can price in, so phase 2 is skipped and the objective is 0.
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

_MAX_PIVOTS = 200_000


class ColumnSource(Protocol):
    """Zero-cost columns, each named by a key: hashable, not an int (ints
    name the explicit columns), and ordered, as the support is listed."""

    def column(self, key) -> list[int]:
        """Integer entries of the column on every row, ub rows then eq rows."""

    def best(self, weights: list[int]) -> tuple[int, Any]:
        """Largest weights.column, and the key of a column attaining it."""


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None = None  # explicit columns
    objective: Fraction | None = None
    certificate: list[Fraction] | None = None  # Farkas y, ub rows then eq rows
    pivots: int = 0
    support: list[tuple[Any, Fraction]] | None = None  # positive implicit columns, by key


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

    # Explicit columns of the sign-flipped system, by id (x columns, slacks,
    # then artificials): each is its nonzero (row, integer) entries and a
    # denominator q, the column being those entries / q.
    cols = []
    for j in range(n):
        nz = [(i, sign[i] * row[j]) for i, row in enumerate(rows) if row[j]]
        ints, q = integer_weights([v for _, v in nz])
        cols.append(([(i, v) for (i, _), v in zip(nz, ints)], q))
    basis: list = [0] * m  # explicit ids and implicit keys
    for i in range(n_ub):
        if sign[i] > 0:
            basis[i] = len(cols)
        cols.append(([(i, sign[i])], 1))
    artificial: set[int] = set()
    for i in range(m):
        if i >= n_ub or sign[i] < 0:
            basis[i] = len(cols)
            artificial.add(basis[i])
            cols.append(([(i, 1)], 1))

    # T[c][i] / den is entry (i, c) of the basis inverse, stored by columns;
    # column m holds the basic values' numerators, over den * rden.
    bnum, rden = integer_weights(rhs)
    T = [[int(r == c) for r in range(m)] for c in range(m)] + [bnum]
    den = 1
    pivots = 0

    def int_column(j):
        if isinstance(j, int):
            return cols[j]
        col = implicit.column(j)
        return [(r, s * v) for r, (s, v) in enumerate(zip(sign, col)) if v], 1

    def ftran(col):
        """Numerators of B^-1 times a column: its image is these / (den * q).
        It sums the stored columns its entries pick, scaled unless 1."""
        picked = [T[r] if v == 1 else [v * x for x in T[r]] for r, v in col]
        return list(map(sum, zip(*picked))) or [0] * len(T[m])

    def pivot(leave, d, q):
        """Make basic, in row ``leave``, the column whose image is d / (den * q).
        Column by column: entry i of a column with w in the leaving row
        becomes v * p - d[i] * w, its leaving entry w * q * den."""
        nonlocal den
        p = d[leave]
        new = []
        for col in T:
            w = col[leave]
            if not w:
                new.append(col if p == 1 else [v * p for v in col])
                continue
            col = [v * p - f * w for v, f in zip(col, d)]
            col[leave] = w * q * den
            new.append(col)
        den *= p
        g = math.gcd(den, *itertools.chain.from_iterable(new))
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            new = [[v // g for v in col] for col in new]
        T[:] = new

    def price(explicit):
        """Entering column id, or None at optimality, among the implicit
        columns and the (j, entries, q, cost(j)) in ``explicit``.  With u the
        cost row, column j's reduced cost is cost(j) * den * q - u.column over
        den * cden * q."""
        u = [col[m] for col in T]
        enter = None
        best, best_q = 0, 1
        if implicit is not None:
            top, key = implicit.best([x if s > 0 else -x for x, s in zip(u, sign)])
            if top > 0:
                enter = key
                best = -top
        for j, col, q, cost_j in explicit:
            if len(col) == 1:
                (r, v), = col
                red = cost_j * den * q - u[r] * v
            else:
                red = cost_j * den * q - sum(u[r] * v for r, v in col)
            if red * best_q < best * q:
                best, best_q = red, q
                enter = j
        return enter

    def lex_less(i, k, d, start):
        """Whether row i of [b | B^-1 S] over d[i] precedes row k's over d[k]
        lexicographically (S = ``start``; d[i], d[k] > 0).  An entry of a
        column shares its positive divisor across rows, so cross-multiplied
        numerators order them.  Rows of the nonsingular B^-1 S are never
        proportional, so some entry decides."""
        x, y = T[m][i] * d[k], T[m][k] * d[i]
        for j in start:
            if x != y:
                break
            col, _ = int_column(j)
            x = sum(T[r][i] * v for r, v in col) * d[k]
            y = sum(T[r][k] * v for r, v in col) * d[i]
        return x < y

    def run_phase(cost, blocked):
        """The phase's status and its cost row c_B . B^-1 [I | b] (the
        duals' and then the objective's numerators).  Columns in ``blocked``
        never enter, and one that is basic leaves at the first pivot whose
        entering image is nonzero in its row."""
        nonlocal pivots
        start = basis[:]
        cb = [cost(j) for j in basis]
        for col in T:
            col.append(sum(a * v for a, v in zip(cb, col)))
        explicit = [(j, col, q, cost(j)) for j, (col, q) in enumerate(cols) if j not in blocked]
        while True:
            enter = price(explicit)
            if enter is None:
                return "optimal", [col.pop() for col in T]
            col, q = int_column(enter)
            d = ftran(col)
            # d[m] becomes minus the reduced cost's numerator, so pivot's
            # row operation adds the reduced cost times the new leaving row
            # to the cost row: the duals of the new basis.
            d[m] -= cost(enter) * den * q
            # A blocked column is basic only at zero, so the first row holding
            # one with a nonzero entry leaves: a degenerate pivot, even on a
            # negative entry, that keeps every basic value.  Otherwise the
            # row with a positive entry whose [b | B^-1 S] row over it is
            # lexicographically least leaves.
            leave = -1
            for i in range(m):
                if d[i] and basis[i] in blocked:
                    leave = i
                    break
                if d[i] > 0 and (leave < 0 or lex_less(i, leave, d, start)):
                    leave = i
            if leave < 0:
                return "unbounded", [col.pop() for col in T]
            pivots += 1
            if pivots > _MAX_PIVOTS:
                raise PivotCapError(_MAX_PIVOTS)
            pivot(leave, d, q)
            left, basis[leave] = basis[leave], enter
            if left in blocked:
                start = basis[:]

    # Phase 1: drive the artificials to zero.
    if artificial:
        status, u = run_phase(lambda j: int(j in artificial), frozenset())
        if status != "optimal":  # phase-1 objective is bounded below by 0
            raise SolverError("phase 1 cannot be unbounded")
        if u[m] > 0:
            cert = [Fraction(s * y, den) for s, y in zip(sign, u)]
            return LpResult(status="infeasible", certificate=cert, pivots=pivots)

    objective = Fraction(0)
    if any(c):  # with every cost 0, no column prices in and phase 2 is skipped
        ints, cden = integer_weights(c)
        cost2 = dict(enumerate(ints))  # every other column costs 0
        status, u = run_phase(lambda j: cost2.get(j, 0), frozenset(artificial))
        if status == "unbounded":
            return LpResult(status="unbounded", pivots=pivots)
        objective = Fraction(u[m], den * rden * cden)
    x = [Fraction(0)] * n
    support = []
    for i, bc in enumerate(basis):
        value = T[m][i]
        if not isinstance(bc, int):
            if value > 0:
                support.append((bc, Fraction(value, den * rden)))
        elif bc < n:
            x[bc] = Fraction(value, den * rden)
    support.sort(key=lambda s: s[0])
    return LpResult(
        status="optimal",
        x=x,
        objective=objective,
        pivots=pivots,
        support=support if implicit is not None else None,
    )
