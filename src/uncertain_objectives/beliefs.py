"""Pairwise belief matrices and distributions over total orders.

A belief matrix Z stores, for every ordered world pair (a, b), the
probability that a is better than b given the available evidence; the
diagonal is pinned at 1/2 and Z(a,b) + Z(b,a) = 1 (exact equality is seen
as probability zero, so ties carry no mass).  Such a matrix is *coherent*
when some probability distribution over strict total orders has exactly
these pairwise marginals, i.e. when Z lies in the linear ordering polytope.

Two checkers are provided.  ``check_path_coherence`` applies the chained
necessary condition along every simple path: the span probability must lie
within [1 - sum(1 - z_i), sum(z_i)].  It grows paths a world at a time and
drops the prefixes no extension of which can break its bound.
``exact_feasibility`` decides polytope membership exactly by solving an LP
with one variable per total order, priced without listing the orders.
``minimax_cycle_bound`` minimizes, over all distributions, the worst
violation probability among the constraints of an n-step cycle; the optimum
is exactly 1/n, achieved by the uniform mixture of cyclic rotations.

Default arithmetic is exact rationals.  Matrices and distributions may also
carry floats ("float mode") for larger randomized work, with a 1e-9
tolerance on their validation and path scans; the LP-based operations
require exact inputs.  The path scan is one code path for both: exact
matrices run on integer numerators over a common denominator, float ones on
float64, and results carry ``Fraction``s or floats to match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .errors import DimensionCapError
from .rationals import as_rational
from .simplex import integer_weights, solve_lp

FLOAT_TOL = 1e-9
DEFAULT_DIMENSION_CAP = 7

HALF = Fraction(1, 2)
ONE = Fraction(1)
ZERO = Fraction(0)


def _coerce_prob(value):
    """Fractions/ints/strings stay exact; floats mark the float path."""
    if isinstance(value, float):
        return value
    return as_rational(value)


def _check_unit(value, where: str):
    if isinstance(value, float):
        if not -FLOAT_TOL <= value <= 1 + FLOAT_TOL:
            raise ValueError(f"{where} outside [0, 1]: {value!r}")
    elif not ZERO <= value <= ONE:
        raise ValueError(f"{where} outside [0, 1]: {value!r}")


@dataclass(frozen=True)
class BeliefMatrix:
    """Pairwise comparison probabilities Z over an ordered world list."""

    worlds: tuple[str, ...]
    z: tuple[tuple, ...]
    evidence_tag: str = ""

    def __init__(self, worlds, z, evidence_tag: str = ""):
        worlds = tuple(worlds)
        if len(set(worlds)) != len(worlds):
            raise ValueError("duplicate world ids")
        n = len(worlds)
        grid = tuple(tuple(_coerce_prob(v) for v in row) for row in z)
        if len(grid) != n or any(len(row) != n for row in grid):
            raise ValueError("z must be an n x n grid")
        exact = all(isinstance(v, Fraction) for row in grid for v in row)
        for i in range(n):
            for j in range(n):
                _check_unit(grid[i][j], f"z[{i}][{j}]")
        for i in range(n):
            d = grid[i][i]
            if exact:
                if d != HALF:
                    raise ValueError(f"diagonal z[{i}][{i}] must be 1/2, got {d}")
            elif abs(float(d) - 0.5) > FLOAT_TOL:
                raise ValueError(f"diagonal z[{i}][{i}] must be 1/2, got {d}")
        for i in range(n):
            for j in range(i + 1, n):
                s = grid[i][j] + grid[j][i]
                if exact:
                    if s != ONE:
                        raise ValueError(
                            f"complement symmetry fails at ({worlds[i]}, {worlds[j]}): "
                            f"{grid[i][j]} + {grid[j][i]} != 1"
                        )
                elif abs(float(s) - 1.0) > FLOAT_TOL:
                    raise ValueError(
                        f"complement symmetry fails at ({worlds[i]}, {worlds[j]})"
                    )
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "z", grid)
        object.__setattr__(self, "evidence_tag", evidence_tag)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for row in self.z for v in row)

    def index(self, world_id: str) -> int:
        return self.worlds.index(world_id)

    def prob(self, a: str, b: str):
        """P(a is better than b)."""
        return self.z[self.index(a)][self.index(b)]

    def as_float_array(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.z], dtype=np.float64)

    def exactified(self, max_denominator: int = 10**9) -> "BeliefMatrix":
        """Rational approximation of a float-mode matrix (lossy bridge).

        Upper-triangle entries are rounded to at most ``max_denominator``;
        the lower triangle is rebuilt as the exact complement.
        """
        n = len(self.worlds)
        grid = [[HALF] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = self.z[i][j]
                v = v if isinstance(v, Fraction) else Fraction(v).limit_denominator(max_denominator)
                grid[i][j] = v
                grid[j][i] = ONE - v
        return BeliefMatrix(self.worlds, grid, self.evidence_tag)


@dataclass(frozen=True)
class OrderDistribution:
    """Explicit distribution over strict total orders.

    Each order lists world ids best-first; probabilities are nonnegative and
    sum to one (exactly in rational mode, within 1e-9 in float mode).
    """

    orders: tuple[tuple[str, ...], ...]
    probs: tuple

    def __init__(self, orders, probs):
        orders = tuple(tuple(o) for o in orders)
        probs = tuple(_coerce_prob(p) for p in probs)
        if len(orders) != len(probs):
            raise ValueError("orders and probabilities differ in length")
        if not orders:
            raise ValueError("a distribution needs at least one order")
        base = frozenset(orders[0])
        if len(base) != len(orders[0]):
            raise ValueError("orders must not repeat worlds")
        for o in orders:
            if frozenset(o) != base or len(o) != len(orders[0]):
                raise ValueError("all orders must rank the same world set")
        exact = all(isinstance(p, Fraction) for p in probs)
        for p in probs:
            _check_unit(p, "probability")
        total = sum(probs)
        if exact:
            if total != ONE:
                raise ValueError(f"probabilities sum to {total}, expected 1")
        elif abs(float(total) - 1.0) > FLOAT_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "probs", probs)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(p, Fraction) for p in self.probs)

    @property
    def worlds(self) -> tuple[str, ...]:
        return tuple(sorted(self.orders[0]))

    def support(self):
        return [(o, p) for o, p in zip(self.orders, self.probs) if p > 0]

    def to_json(self) -> dict:
        from .rationals import format_rational

        return {
            "orders": [list(o) for o in self.orders],
            "p": [
                format_rational(p) if isinstance(p, Fraction) else p
                for p in self.probs
            ],
        }


@dataclass(frozen=True)
class CycleSpec:
    """Cyclic constraints over x_1..x_n: constraint i demands that x_i is
    almost surely better than x_{i+1 mod n}."""

    worlds: tuple[str, ...]

    def __init__(self, worlds):
        worlds = tuple(worlds)
        if len(worlds) < 3:
            raise ValueError("a cycle needs at least 3 worlds")
        if len(set(worlds)) != len(worlds):
            raise ValueError("cycle worlds must be distinct")
        object.__setattr__(self, "worlds", worlds)

    @property
    def n(self) -> int:
        return len(self.worlds)

    def constraint_pairs(self) -> list[tuple[str, str]]:
        """(required-better, required-worse) per constraint, in order."""
        n = len(self.worlds)
        return [(self.worlds[i], self.worlds[(i + 1) % n]) for i in range(n)]


def matrix_from_distribution(
    d: OrderDistribution, worlds=None, evidence_tag: str = ""
) -> BeliefMatrix:
    """Pairwise marginals of a distribution: Z(a,b) = P(a ranked above b)."""
    worlds = tuple(worlds) if worlds is not None else d.worlds
    if set(worlds) != set(d.orders[0]):
        raise ValueError("world list does not match the distribution's worlds")
    n = len(worlds)
    idx = {w: i for i, w in enumerate(worlds)}
    if d.is_exact:
        grid = [[HALF if i == j else ZERO for j in range(n)] for i in range(n)]
        for order, p in zip(d.orders, d.probs):
            if p == 0:
                continue
            ranks = [idx[w] for w in order]
            for a_pos in range(n):
                for b_pos in range(a_pos + 1, n):
                    grid[ranks[a_pos]][ranks[b_pos]] += p
        return BeliefMatrix(worlds, grid, evidence_tag)
    order_idx = np.array(
        [[idx[w] for w in order] for order in d.orders], dtype=np.int64
    )
    probs = np.array([float(p) for p in d.probs], dtype=np.float64)
    z = _kernels.pairwise_matrix(order_idx, probs, n)
    np.fill_diagonal(z, 0.5)
    return BeliefMatrix(worlds, z.tolist(), evidence_tag)


def path_bounds(chain) -> tuple:
    """Bounds the span probability implied by a chain of step probabilities.

    For steps z_1..z_{k-1} along a path, the first-to-last comparison must
    lie in [max(0, 1 - sum(1 - z_i)), min(1, sum(z_i))].
    """
    chain = [_coerce_prob(z) for z in chain]
    if not chain:
        raise ValueError("path_bounds needs at least one step")
    for z in chain:
        _check_unit(z, "chain entry")
    total = sum(chain)
    one = ONE if all(isinstance(z, Fraction) for z in chain) else 1.0
    zero = ZERO if isinstance(one, Fraction) else 0.0
    upper = min(one, total)
    lower = max(zero, one - sum(one - z for z in chain))
    return lower, upper


@dataclass(frozen=True)
class PathViolation:
    path: tuple[str, ...]
    span: object
    lower: object
    upper: object
    slack: object

    def to_json(self) -> dict:
        from .rationals import format_rational

        def fmt(v):
            return format_rational(v) if isinstance(v, Fraction) else v

        return {
            "path": list(self.path),
            "span": fmt(self.span),
            "lower": fmt(self.lower),
            "upper": fmt(self.upper),
            "slack": fmt(self.slack),
        }


def _scan_numbers(m: BeliefMatrix):
    """The matrix in the scan's number type: (z, one, value).

    Exact matrices become integer numerators over the LCM ``one`` of their
    denominators, int64 while no sum along a path can overflow and Python
    ints past that; float matrices stay float64 with ``one = 1.0``.
    ``value`` turns a scan number back into the matrix's own type.
    """
    if not m.is_exact:
        return m.as_float_array(), 1.0, float
    n = len(m.worlds)
    d = math.lcm(*(v.denominator for row in m.z for v in row))
    dtype = np.int64 if n * d < 1 << 62 else object
    z = np.array([[v.numerator * (d // v.denominator) for v in row] for row in m.z], dtype=dtype)
    return z, d, lambda x: Fraction(x, d)


# Prefixes grown at once are capped near this many rows, which bounds the
# scan's memory; larger frontiers are grown a block at a time.
_SCAN_BLOCK_ROWS = 1 << 16


def check_path_coherence(m: BeliefMatrix, max_path_len: int | None = None) -> list[PathViolation]:
    """Report every simple path whose span probability breaks its chained bound.

    Paths of up to ``max_path_len`` worlds (default: all of them) are scanned;
    two-world paths cannot violate and are skipped.  Violations come by path
    length, then in ``itertools.permutations`` order.  An empty list on every
    matrix derived from an actual order distribution is a theorem, so a
    non-empty result certifies that no distribution realizes the matrix.

    The scan grows simple paths one world at a time and drops a prefix once
    both its step sum S and its complement sum C reach one: every extension
    then has upper bound 1 and lower bound 0, which no span breaks.  Float
    matrices prune only with a margin of (n + 1) * FLOAT_TOL, and never below
    a first world whose row leaves [0, 1] by more than FLOAT_TOL, so every
    path with slack above FLOAT_TOL is still visited.
    """
    n = len(m.worlds)
    limit = n if max_path_len is None else min(max_path_len, n)
    if limit < 3:
        return []
    z, one, value = _scan_numbers(m)
    zl = z.tolist()
    zero = one - one
    tol = zero if m.is_exact else FLOAT_TOL
    reach = one + (n + 1) * tol
    unprunable = np.maximum(z - one, -z).max(axis=1) > tol
    found: list[list[PathViolation]] = [[] for _ in range(limit + 1)]
    # Blocks of j-world prefixes, next block last.  A block's extensions are
    # reported and then grown further before the next block's, so every
    # length's violations stay in lexicographic order.
    stack = [(np.arange(n).reshape(n, 1), np.eye(n, dtype=bool), np.zeros(n, dtype=z.dtype))]
    while stack:
        paths, used, sums = stack.pop()
        j = paths.shape[1]
        rows, nxt = np.nonzero(~used)
        sums = sums[rows] + z[paths[rows, -1], nxt]
        paths = np.column_stack((paths[rows], nxt))
        used = used[rows]
        used[np.arange(len(rows)), nxt] = True
        live = (sums < reach) | (j * one - sums < reach) | unprunable[paths[:, 0]]
        paths, used, sums = paths[live], used[live], sums[live]
        k = j + 1
        if k >= 3 and len(paths):
            slacks = _kernels.path_slacks(z, paths, one)
            flagged = slacks > tol
            for path, slack in zip(paths[flagged].tolist(), slacks[flagged].tolist()):
                chain = [zl[a][b] for a, b in zip(path, path[1:])]
                found[k].append(
                    PathViolation(
                        tuple(m.worlds[i] for i in path),
                        value(zl[path[0]][path[-1]]),
                        value(max(zero, one - sum(one - s for s in chain))),
                        value(min(one, sum(chain))),
                        value(slack),
                    )
                )
        if k < limit:
            block = max(1, _SCAN_BLOCK_ROWS // (n - k))
            starts = range(0, len(paths), block)
            stack.extend(
                (paths[lo : lo + block], used[lo : lo + block], sums[lo : lo + block])
                for lo in reversed(starts)
            )
    return [pv for level in found for pv in level]


# ---------------------------------------------------------------------------
# Exact polytope feasibility and the minimax bound
# ---------------------------------------------------------------------------

class OrderColumns:
    """The LP columns of all n! strict total orders of 0..n-1, never listed.

    Each LP row is either a pair (a, b), whose entry is 1 in the columns of
    orders ranking a above b and 0 elsewhere, or None, an entry of 1 in
    every column.  Orders are best-first index tuples; a column's id is its
    order's lexicographic rank, the position ``itertools.permutations``
    gives it.  Pricing (the best-scoring order under integer row weights)
    is a maximum-weight linear ordering, solved exactly by a DP over subsets
    in O(2^n * n) integer steps.
    """

    def __init__(self, n: int, rows):
        self.n = n
        self.rows = list(rows)
        self.size = math.factorial(n)

    def column(self, order) -> list[int]:
        pos = [0] * self.n
        for r, w in enumerate(order):
            pos[w] = r
        return [1 if row is None or pos[row[0]] < pos[row[1]] else 0 for row in self.rows]

    def rank(self, order) -> int:
        left = list(range(self.n))
        out = 0
        for r, w in enumerate(order):
            k = left.index(w)
            out += k * math.factorial(self.n - 1 - r)
            del left[k]
        return out

    def _dp(self, weights):
        pair = [[0] * self.n for _ in range(self.n)]
        const = 0
        for row, w in zip(self.rows, weights):
            if row is None:
                const += w
            else:
                pair[row[0]][row[1]] += w
        return _OrderDP(pair, const)

    def best(self, weights) -> tuple[int, tuple[int, ...]]:
        return self._dp(weights).best()

    def first_above(self, weights, threshold: int):
        return self._dp(weights).first_above(threshold)


class _OrderDP:
    """Best scores of strict total orders, where ranking a above b earns
    pair[a][b] and every order earns ``const``.

    top[s] is the best score of an order of the item set s (bit i = item i);
    gain[w][s] is what ranking w above every item of s earns.  An order of s
    that starts with w scores at most gain[w][s - w] + top[s - w], so
    choosing, best-first, the smallest item that can still reach a target
    builds the lexicographically smallest order reaching it.
    """

    def __init__(self, pair, const: int):
        n = len(pair)
        size = 1 << n
        gain = []
        for w in range(n):
            row = pair[w]
            g = [0] * size
            for s in range(1, size):
                low = s & -s
                g[s] = g[s ^ low] + row[low.bit_length() - 1]
            gain.append(g)
        top = [0] * size
        bits = [(w, 1 << w, gain[w]) for w in range(n)]
        for s in range(1, size):
            best = None
            for w, bit, g in bits:
                if s & bit:
                    rest = s ^ bit
                    v = g[rest] + top[rest]
                    if best is None or v > best:
                        best = v
            top[s] = best
        self.n = n
        self.const = const
        self.gain = gain
        self.top = top

    def _build(self, reaches) -> tuple[int, ...]:
        gain, top = self.gain, self.top
        s = (1 << self.n) - 1
        acc = self.const
        order = []
        while s:
            for w in range(self.n):
                bit = 1 << w
                if s & bit:
                    rest = s ^ bit
                    if reaches(acc + gain[w][rest] + top[rest]):
                        order.append(w)
                        acc += gain[w][rest]
                        s = rest
                        break
        return tuple(order)

    def best(self) -> tuple[int, tuple[int, ...]]:
        """The best score and the lexicographically smallest order with it."""
        value = self.const + self.top[-1]
        return value, self._build(lambda v: v == value)

    def first_above(self, threshold: int):
        """The lexicographically smallest order scoring above ``threshold``."""
        if self.const + self.top[-1] <= threshold:
            return None
        return self._build(lambda v: v > threshold)


def _membership_rows(m: BeliefMatrix):
    """Labels, order-column rows and right-hand sides of the membership LP."""
    n = len(m.worlds)
    labels, rows, rhs = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            labels.append(f"above({m.worlds[i]},{m.worlds[j]})")
            rows.append((i, j))
            rhs.append(m.z[i][j])
    labels.append("total")
    rows.append(None)
    rhs.append(ONE)
    return labels, rows, rhs


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    distribution: OrderDistribution | None
    certificate: dict | None
    note: str

    def __bool__(self) -> bool:
        return self.feasible

    def verify(self, m: BeliefMatrix) -> bool:
        """Check this answer against ``m`` in exact arithmetic.

        A witness must reproduce every entry of Z.  Farkas multipliers y
        over the membership rows must have y.b > 0 while y.A <= 0 on every
        order's column, which one maximisation over all orders decides.
        """
        if self.feasible:
            d = self.distribution
            return (
                d is not None
                and d.is_exact
                and set(d.orders[0]) == set(m.worlds)
                and matrix_from_distribution(d, worlds=m.worlds).z == m.z
            )
        labels, rows, rhs = _membership_rows(m)
        cert = self.certificate or {}
        if not set(cert) <= set(labels):
            return False
        y = [Fraction(cert.get(label, 0)) for label in labels]
        if sum(yi * bi for yi, bi in zip(y, rhs)) <= 0:
            return False
        weights, _ = integer_weights(y)
        return OrderColumns(len(m.worlds), rows).best(weights)[0] <= 0


def _distribution(worlds, support) -> OrderDistribution:
    return OrderDistribution(
        orders=[tuple(worlds[i] for i in o) for o, _ in support],
        probs=[p for _, p in support],
    )


def exact_feasibility(
    m: BeliefMatrix, cap: int = DEFAULT_DIMENSION_CAP
) -> FeasibilityResult:
    """Decide whether some order distribution realizes the matrix exactly.

    Solves the linear-ordering-polytope membership LP with one variable per
    total order: for every pair a != b the mass of orders ranking a above b
    must equal Z(a, b).  The order columns are priced implicitly
    (``OrderColumns``), so the n! orders are never listed.  Feasible
    results carry one realizing distribution (generically not unique);
    infeasible results carry Farkas multipliers over the constraint rows
    certifying that no distribution exists.
    """
    n = len(m.worlds)
    if n > cap:
        raise DimensionCapError(n, cap)
    if not m.is_exact:
        raise ValueError(
            "exact_feasibility needs an exact matrix; use exactified() first"
        )
    labels, rows, b_eq = _membership_rows(m)
    res = solve_lp(
        c=[], a_eq=[[] for _ in rows], b_eq=b_eq, implicit=OrderColumns(n, rows)
    )
    if res.status == "infeasible":
        cert = {
            label: y for label, y in zip(labels, res.certificate) if y != 0
        }
        return FeasibilityResult(
            feasible=False,
            distribution=None,
            certificate=cert,
            note="Farkas multipliers over pairwise-marginal rows",
        )
    return FeasibilityResult(
        feasible=True,
        distribution=_distribution(m.worlds, res.support),
        certificate=None,
        note="witness distribution is one of possibly many realizing the matrix",
    )


@dataclass(frozen=True)
class MinimaxBound:
    bound: Fraction
    witness: OrderDistribution
    spec: CycleSpec

    def verify(self) -> bool:
        """Check that the witness attains the bound in exact arithmetic.

        The witness must be an exact distribution over orders of the cycle's
        worlds, summing to 1, whose worst constraint-violation probability
        equals ``bound``.  Optimality (no distribution does better) is the
        LP's claim and is not re-derived here.
        """
        d = self.witness
        return (
            isinstance(self.bound, Fraction)
            and d.is_exact
            and sum(d.probs) == ONE
            and set(d.orders[0]) == set(self.spec.worlds)
            and max(violation_probabilities(d, self.spec)) == self.bound
        )


def violation_probabilities(d: OrderDistribution, spec: CycleSpec) -> list:
    """Per-constraint violation mass: P(order ranks x_{i+1} above x_i)."""
    out = []
    for better, worse in spec.constraint_pairs():
        mass = sum(
            (p for o, p in zip(d.orders, d.probs) if o.index(worse) < o.index(better)),
            ZERO if d.is_exact else 0.0,
        )
        out.append(mass)
    return out


def minimax_cycle_bound(
    spec: CycleSpec, cap: int = DEFAULT_DIMENSION_CAP
) -> MinimaxBound:
    """The smallest achievable worst-case constraint-violation probability.

    min over distributions p of max_i P_p(violate C_i), solved exactly as an
    LP over all n! orders (priced implicitly) with an auxiliary level
    variable t.  The optimum for an n-cycle is exactly 1/n.
    """
    n = spec.n
    if n > cap:
        raise DimensionCapError(n, cap)
    idx = {w: i for i, w in enumerate(spec.worlds)}
    # Constraint i's row counts the orders ranking its worse world above its
    # better one, minus t; the last row is the total mass.
    rows = [(idx[worse], idx[better]) for better, worse in spec.constraint_pairs()]
    res = solve_lp(
        c=[ONE],
        a_ub=[[-ONE] for _ in rows],
        b_ub=[ZERO] * n,
        a_eq=[[ZERO]],
        b_eq=[ONE],
        implicit=OrderColumns(n, rows + [None]),
    )
    if res.status != "optimal":
        raise RuntimeError(f"minimax LP unexpectedly {res.status}")
    witness = _distribution(spec.worlds, res.support)
    return MinimaxBound(bound=res.objective, witness=witness, spec=spec)


def rotation_mixture(spec_or_n) -> OrderDistribution:
    """Uniform mixture of the n cyclic rotations of the chain x_1 > ... > x_n.

    Rotation r ranks x_r best and x_{r-1} worst.  Each cycle constraint is
    violated by exactly one rotation, so every violation probability is 1/n
    and every cycle-edge belief Z(x_i, x_{i+1}) equals (n-1)/n.
    """
    if isinstance(spec_or_n, CycleSpec):
        worlds = spec_or_n.worlds
    else:
        n = int(spec_or_n)
        if n < 3:
            raise ValueError("rotation mixture needs n >= 3")
        worlds = tuple(f"x{i+1}" for i in range(n))
    n = len(worlds)
    orders = [
        tuple(worlds[(r + t) % n] for t in range(n)) for r in range(n)
    ]
    share = Fraction(1, n)
    return OrderDistribution(orders=orders, probs=[share] * n)
