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
drops the prefixes no extension of which can break its bound.  An O(n^3)
triangle pass comes first and answers ``[]`` without growing paths for an
exact matrix with no violated 3-cycle inequality, and for a float matrix
whose largest triangle slack eps meets (limit - 2) * eps + 4 * n^2 * 2^-53
<= FLOAT_TOL, which bounds every path's float slack.
``exact_feasibility`` decides polytope membership exactly.  It first looks
for a violated 3-cycle inequality (every distribution keeps
z_ab + z_bc + z_ca within [1, 2]), whose three rows are a Farkas
certificate found in O(n^3); only a matrix that satisfies all of them goes
to an LP with one variable per total order, priced without listing the
orders.  From n = 6 on, some of those are still infeasible.
``minimax_cycle_bound`` gives the least, over all distributions, of the worst
violation probability among the constraints of an n-step cycle.  No LP is
needed: the optimum is exactly 1/n, attained by the uniform mixture of
cyclic rotations and proved optimal by the uniform dual 1/n, since every
total order violates some edge of the cycle.

Default arithmetic is exact rationals.  Matrices and distributions may also
carry floats ("float mode") for larger randomized work; the LP-based
operations require exact inputs.  The number type is the only difference
between the two, with one tolerance rule: the tolerance is 0 for exact
values and FLOAT_TOL (1e-9) for floats; raw values are validated against
it and stored clamped into [0, 1]; the diagonal, complement and sum checks
allow it, and the path scan flags a slack only when it exceeds it.  Array
work (marginals, the path scan) runs on integer numerators over a common
denominator for exact values and on float64 for floats, and results carry
``Fraction``s or floats to match.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .errors import DimensionCapError, InvalidValueError
from .rationals import as_rational, format_rational, in_units, integer_weights
from .simplex import solve_lp

FLOAT_TOL = 1e-9
DEFAULT_DIMENSION_CAP = 7

HALF = Fraction(1, 2)
ONE = Fraction(1)


def _tolerance(exact: bool):
    """How far a probability may stray: 0 when exact, FLOAT_TOL in float mode."""
    return 0 if exact else FLOAT_TOL


def _check_unit(value, where: str):
    """``value`` as a probability: floats stay floats, anything else becomes
    an exact Fraction.  The raw value must lie within its tolerance of
    [0, 1]; it is returned clamped into [0, 1], which moves only floats."""
    exact = not isinstance(value, float)
    if exact:
        value = as_rational(value)
    tol = _tolerance(exact)
    if not -tol <= value <= 1 + tol:
        raise InvalidValueError(f"{where} outside [0, 1]: {value!r}")
    return value if exact else min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class BeliefMatrix:
    """Pairwise comparison probabilities Z over an ordered world list."""

    worlds: tuple[str, ...]
    z: tuple[tuple, ...]
    evidence_tag: str = ""
    is_exact: bool = field(init=False, repr=False, compare=False)

    def __init__(self, worlds, z, evidence_tag: str = ""):
        worlds = tuple(worlds)
        if len(set(worlds)) != len(worlds):
            raise InvalidValueError("duplicate world ids")
        n = len(worlds)
        grid = tuple(
            tuple(_check_unit(v, f"z[{i}][{j}]") for j, v in enumerate(row))
            for i, row in enumerate(z)
        )
        if len(grid) != n or any(len(row) != n for row in grid):
            raise InvalidValueError("z must be an n x n grid")
        exact = not any(isinstance(v, float) for row in grid for v in row)
        tol = _tolerance(exact)
        for i in range(n):
            if abs(grid[i][i] - HALF) > tol:
                raise InvalidValueError(f"diagonal z[{i}][{i}] must be 1/2, got {grid[i][i]}")
        for i in range(n):
            for j in range(i + 1, n):
                if abs(grid[i][j] + grid[j][i] - 1) > tol:
                    raise InvalidValueError(
                        f"complement symmetry fails at ({worlds[i]}, {worlds[j]}): "
                        f"{grid[i][j]} + {grid[j][i]} != 1"
                    )
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "z", grid)
        object.__setattr__(self, "evidence_tag", evidence_tag)
        object.__setattr__(self, "is_exact", exact)

    def index(self, world_id: str) -> int:
        return self.worlds.index(world_id)

    def prob(self, a: str, b: str):
        """P(a is better than b)."""
        return self.z[self.index(a)][self.index(b)]

    def exactified(self) -> "BeliefMatrix":
        """Rational approximation of a float-mode matrix (lossy bridge).

        Upper-triangle entries are rounded to denominators of at most 10^9
        (exact entries within it stay as they are); the lower triangle is
        rebuilt as the exact complement.
        """
        n = len(self.worlds)
        grid = [[HALF] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = Fraction(self.z[i][j]).limit_denominator(10**9)
                grid[i][j] = v
                grid[j][i] = ONE - v
        return BeliefMatrix(self.worlds, grid, self.evidence_tag)


@dataclass(frozen=True)
class OrderDistribution:
    """Explicit distribution over strict total orders.

    Each order lists world ids best-first; probabilities are nonnegative and
    sum to one (exactly in rational mode, within FLOAT_TOL in float mode).
    """

    orders: tuple[tuple[str, ...], ...]
    probs: tuple
    is_exact: bool = field(init=False, repr=False, compare=False)

    def __init__(self, orders, probs):
        orders = tuple(tuple(o) for o in orders)
        probs = tuple(_check_unit(p, "probability") for p in probs)
        if len(orders) != len(probs):
            raise InvalidValueError("orders and probabilities differ in length")
        if not orders:
            raise InvalidValueError("a distribution needs at least one order")
        base = frozenset(orders[0])
        if len(base) != len(orders[0]):
            raise InvalidValueError("orders must not repeat worlds")
        for o in orders:
            if frozenset(o) != base or len(o) != len(orders[0]):
                raise InvalidValueError("all orders must rank the same world set")
        exact = not any(isinstance(p, float) for p in probs)
        total = sum(probs)
        if abs(total - 1) > _tolerance(exact):
            raise InvalidValueError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "is_exact", exact)

    @property
    def worlds(self) -> tuple[str, ...]:
        return tuple(sorted(self.orders[0]))

    def to_json(self) -> dict:
        return {
            "orders": [list(o) for o in self.orders],
            "p": [format_rational(p) for p in self.probs],
        }


@dataclass(frozen=True)
class CycleSpec:
    """Cyclic constraints over x_1..x_n: constraint i demands that x_i is
    almost surely better than x_{i+1 mod n}."""

    worlds: tuple[str, ...]

    def __init__(self, worlds):
        worlds = tuple(worlds)
        if len(worlds) < 2:
            raise InvalidValueError("a cycle needs at least 2 worlds")
        if len(set(worlds)) != len(worlds):
            raise InvalidValueError("cycle worlds must be distinct")
        object.__setattr__(self, "worlds", worlds)

    @property
    def n(self) -> int:
        return len(self.worlds)

    def constraint_pairs(self) -> list[tuple[str, str]]:
        """(required-better, required-worse) per constraint, in order."""
        n = len(self.worlds)
        return [(self.worlds[i], self.worlds[(i + 1) % n]) for i in range(n)]


def matrix_from_distribution(d: OrderDistribution, worlds=None) -> BeliefMatrix:
    """Pairwise marginals of a distribution: Z(a,b) = P(a ranked above b)."""
    worlds = tuple(worlds) if worlds is not None else d.worlds
    if len(worlds) != len(d.orders[0]) or set(worlds) != set(d.orders[0]):
        raise InvalidValueError("world list does not match the distribution's worlds")
    n = len(worlds)
    idx = {w: i for i, w in enumerate(worlds)}
    order_idx = np.array([[idx[w] for w in order] for order in d.orders], dtype=np.int64)
    probs, one, value = in_units(d.probs)
    z = _kernels.pairwise_matrix(order_idx, probs, n).tolist()
    half = value(one) / 2
    grid = [[half if i == j else value(v) for j, v in enumerate(row)] for i, row in enumerate(z)]
    return BeliefMatrix(worlds, grid)


def path_bounds(chain) -> tuple:
    """Bounds the span probability implied by a chain of step probabilities.

    For steps z_1..z_{k-1} along a path, the first-to-last comparison must
    lie in [max(0, 1 - sum(1 - z_i)), min(1, sum(z_i))].
    """
    chain = [_check_unit(z, "chain entry") for z in chain]
    if not chain:
        raise InvalidValueError("path_bounds needs at least one step")
    one = type(sum(chain))(1)
    return max(one - one, one - sum(one - z for z in chain)), min(one, sum(chain))


@dataclass(frozen=True)
class PathViolation:
    path: tuple[str, ...]
    span: object
    lower: object
    upper: object
    slack: object

    def to_json(self) -> dict:
        return {
            "path": list(self.path),
            "span": format_rational(self.span),
            "lower": format_rational(self.lower),
            "upper": format_rational(self.upper),
            "slack": format_rational(self.slack),
        }


def _scan_numbers(m: BeliefMatrix):
    """The matrix in the scan's number type, (z, one, value) as ``in_units``
    gives them, with int64 kept only while no sum along a path can overflow."""
    n = len(m.worlds)
    z, one, value = in_units([v for row in m.z for v in row], n)
    return z.reshape(n, n), one, value


# Prefixes grown at once are capped near this many rows, which bounds the
# scan's memory; larger frontiers are grown a block at a time.
_SCAN_BLOCK_ROWS = 1 << 16


def _triangle_slack(z) -> float:
    """The largest triangle slack of a float64 matrix ``z``, clipped at 0.

    Over ordered triples (x, y, w), the max of z[x,w] - z[x,y] - z[y,w] and
    z[x,y] + z[y,w] - 1 - z[x,w].  Middle worlds y are taken a block at a
    time, so no more than about ``_SCAN_BLOCK_ROWS`` + n^2 floats are held.
    A triple that repeats a world has slack about -1/2 and never sets it.
    """
    n = len(z)
    block = max(1, _SCAN_BLOCK_ROWS // (n * n))
    eps = 0.0
    for lo in range(0, n, block):
        # two[y, x, w] = z[x, y] + z[y, w] for the block's middle worlds y.
        two = z[:, lo : lo + block].T[:, :, None] + z[lo : lo + block, None, :]
        eps = max(eps, (z - two).max(), (two - 1 - z).max())
    return float(eps)


def check_path_coherence(m: BeliefMatrix, max_path_len: int | None = None) -> list[PathViolation]:
    """Report every simple path whose span probability breaks its chained bound.

    Paths of up to ``max_path_len`` worlds (at least 2; default: all of
    them) are scanned; two-world paths cannot violate and are skipped.
    Violations come by path length, then in ``itertools.permutations``
    order.  An empty list on every
    matrix derived from an actual order distribution is a theorem, so a
    non-empty result certifies that no distribution realizes the matrix.

    The scan grows simple paths one world at a time, adding each step to
    the path's step sum S and its complement to the complement sum C, left
    to right as ``path_bounds`` adds them.  Each path's bounds, min(1, S)
    and max(0, 1 - C), come from these sums, so a path is reported exactly
    when ``path_bounds``' slack exceeds the tolerance.  A prefix is dropped
    once both S and C reach one: every extension then has upper bound 1 and
    lower bound 0, which no span breaks, since every stored entry lies in
    [0, 1].  Exact and float matrices differ only in the tolerance a slack
    must exceed to be reported.

    On an exact matrix the scan reports a path exactly when some 3-cycle
    inequality is violated (``_violated_triangle``): each violated triangle
    is a flagged 3-world path, and along a path a1..ak the triangle
    (a1, aj, aj+1) keeps z(a1,aj+1) within [z(a1,aj) + z(aj,aj+1) - 1,
    z(a1,aj) + z(aj,aj+1)], so by induction a triangle-clean matrix meets
    every chained bound.  Longer paths add no refutation there, so an exact
    matrix with no violated triangle returns ``[]`` without growing paths.

    A float matrix returns ``[]`` without growing paths when
    (limit - 2) * eps + 4 * n^2 * u <= FLOAT_TOL, where u = 2^-53 is the
    unit roundoff and eps is ``_triangle_slack``: the largest amount by
    which an ordered triple (x, y, w) breaks z(x,w) <= z(x,y) + z(y,w) or
    z(x,w) >= z(x,y) + z(y,w) - 1, clipped at 0.  This is sound:

    - Rounding in eps hides at most 5u of a triple's true slack, so by the
      same induction on the triangles (a1, aj, aj+1) a path of k worlds
      breaks its true chained bound by at most (k - 2)(eps + 5u).
    - The scan adds at most n - 1 terms, each in [0, 1], left to right, so
      each running sum is off by at most (n - 1)(n - 2)u to first order
      (recursive summation; Higham 2002, *Accuracy and Stability of
      Numerical Algorithms*, section 4.2).  Rounding the complements and
      the few subtractions after the sums adds under 3n * u.
    - So a path's float slack is below (limit - 2) * eps + (n^2 + 5n)u,
      and 4 * n^2 * u covers that with room for the higher-order terms and
      the rounding of the test: no path can be reported.

    Otherwise the paths are grown as above: tolerance can add up along a
    path, so a matrix whose triangles all meet the tolerance may still
    break a longer path's bound by more.
    """
    if max_path_len is not None and max_path_len < 2:
        raise InvalidValueError(f"max_path_len must be at least 2, got {max_path_len}")
    n = len(m.worlds)
    limit = n if max_path_len is None else min(max_path_len, n)
    if limit < 3:
        return []
    z, one, value = _scan_numbers(m)
    if m.is_exact:
        if _violated_triangle(m, z.tolist(), one) is None:
            return []
    elif (limit - 2) * _triangle_slack(z) + 4 * n * n * 2.0**-53 <= FLOAT_TOL:
        return []
    tol = _tolerance(m.is_exact)
    numbers = {}  # numerator -> value(numerator), converted once per scan
    found: list[list[PathViolation]] = [[] for _ in range(limit + 1)]
    # Blocks of j-world prefixes, next block last.  A block's extensions are
    # reported and then grown further before the next block's, so every
    # length's violations stay in lexicographic order.
    zero = np.zeros(n, dtype=z.dtype)
    stack = [(np.arange(n).reshape(n, 1), np.eye(n, dtype=bool), zero, zero)]
    while stack:
        paths, used, sums, comps = stack.pop()
        rows, nxt = np.nonzero(~used)
        step = z[paths[rows, -1], nxt]
        sums, comps = sums[rows] + step, comps[rows] + (one - step)
        paths = np.column_stack((paths[rows], nxt))
        used = used[rows]
        used[np.arange(len(rows)), nxt] = True
        live = (sums < one) | (comps < one)
        paths, used, sums, comps = paths[live], used[live], sums[live], comps[live]
        k = paths.shape[1]
        if k >= 3:
            upper = np.minimum(one, sums)
            lower = np.maximum(one - one, one - comps)
            span = z[paths[:, 0], paths[:, -1]]
            slack = np.maximum(lower - span, span - upper)
            hit = slack > tol
            if hit.any():
                report = [a[hit].tolist() for a in (lower, upper, slack)]
                numbers.update((x, value(x)) for x in set().union(*report) if x not in numbers)
                for path, *bounds in zip(paths[hit].tolist(), *report):
                    found[k].append(
                        PathViolation(
                            tuple(map(m.worlds.__getitem__, path)),
                            m.z[path[0]][path[-1]],
                            *map(numbers.__getitem__, bounds),
                        )
                    )
        if k < limit:
            block = max(1, _SCAN_BLOCK_ROWS // (n - k))
            starts = range(0, len(paths), block)
            stack.extend(
                tuple(a[lo : lo + block] for a in (paths, used, sums, comps))
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
    every column.  A column's key is its order, a best-first index tuple, so
    keys sort in ``itertools.permutations`` order.  Pricing (the
    best-scoring order under integer row weights) is a maximum-weight linear
    ordering, solved exactly by a DP over subsets in O(2^n * n) integer
    steps.
    """

    def __init__(self, n: int, rows):
        self.n = n
        self.rows = list(rows)

    def column(self, order) -> list[int]:
        pos = [0] * self.n
        for r, w in enumerate(order):
            pos[w] = r
        return [1 if row is None or pos[row[0]] < pos[row[1]] else 0 for row in self.rows]

    def best(self, weights) -> tuple[int, tuple[int, ...]]:
        """The best score and the lexicographically smallest order with it.

        Ranking a above b earns pair[a][b], the summed weights of row (a, b),
        and every order earns the None rows' weights.  top[s] is the best
        score of an order of the item set s (bit i = item i); gain[w][s], for
        s without w, is what ranking w above every item of s earns (the
        entries of s with w are never read and stay 0).  An order of s that
        starts with w scores at most gain[w][s - w] + top[s - w], so
        choosing, best-first, the smallest item that can still reach the best
        score builds the lexicographically smallest order reaching it.
        """
        n = self.n
        pair = [[0] * n for _ in range(n)]
        const = 0
        for row, w in zip(self.rows, weights):
            if row is None:
                const += w
            else:
                pair[row[0]][row[1]] += w
        size = 1 << n
        low, members = _subset_tables(n)
        gain = []
        for row, low_w in zip(pair, low):
            g = [0] * size
            for s, rest, b in low_w:
                g[s] = g[rest] + row[b]
            gain.append(g)
        top = [0] * size
        for s in range(1, size):
            best = None
            for w, rest in members[s]:
                v = gain[w][rest] + top[rest]
                if best is None or v > best:
                    best = v
            top[s] = best
        s = size - 1
        value = const + top[s]
        acc = const
        order = []
        while s:
            for w, rest in members[s]:
                if acc + gain[w][rest] + top[rest] == value:
                    order.append(w)
                    acc += gain[w][rest]
                    s = rest
                    break
        return value, tuple(order)


@functools.cache
def _subset_tables(n: int):
    """Index tables over the subsets of n items, a pure function of n.

    ``low[w]`` lists (s, s minus its lowest item, that item) for every
    nonempty s without w, in ascending s; ``members[s]`` lists (w, s minus w)
    for every item w of s, in ascending w.  Each holds at most n * 2^(n-1)
    entries, half as many as one DP's ``gain`` lists.
    """
    size = 1 << n
    low = [(s, s & (s - 1), (s & -s).bit_length() - 1) for s in range(1, size)]
    low = [[t for t in low if not t[0] >> w & 1] for w in range(n)]
    members = [[(w, s ^ 1 << w) for w in range(n) if s >> w & 1] for s in range(size)]
    return low, members


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


def _refuted(cert: dict) -> FeasibilityResult:
    return FeasibilityResult(
        feasible=False, distribution=None, certificate=cert,
        note="Farkas multipliers over pairwise-marginal rows",
    )


def _violated_triangle(m: BeliefMatrix, z: list | None = None, one=None) -> dict | None:
    """Farkas multipliers from the first violated 3-cycle inequality, or None.

    No total order ranks a > b > c > a, so every distribution keeps
    s = z_ij + z_jk + z_ki within [1, 2] for i < j < k: the 3-cycle
    inequalities, facets of the linear ordering polytope.  Triples are
    scanned in ``itertools.combinations`` order on integer numerators: ``z``
    in units of ``one`` as a scan already has them, else ``_scan_numbers``'.
    For s > 2 the multipliers are the cycle's own rows less the total row,
    for s < 1 those of the reverse cycle (whose total multiplier is 0).
    """
    n = len(m.worlds)
    if z is None:
        z, one, _ = _scan_numbers(m)
        z = z.tolist()
    for i, j, k in itertools.combinations(range(n), 3):
        s = z[i][j] + z[j][k] + z[k][i]
        if one <= s <= 2 * one:
            continue
        ij, ik, jk = (f"above({m.worlds[a]},{m.worlds[b]})" for a, b in ((i, j), (i, k), (j, k)))
        if s > 2 * one:
            return {ij: ONE, ik: -ONE, jk: ONE, "total": -ONE}
        return {ij: -ONE, ik: ONE, jk: -ONE}
    return None


def _membership_lp(m: BeliefMatrix) -> FeasibilityResult:
    """Solve the membership LP, with the order columns priced implicitly."""
    labels, rows, b_eq = _membership_rows(m)
    res = solve_lp(
        c=[], a_eq=[[] for _ in rows], b_eq=b_eq, implicit=OrderColumns(len(m.worlds), rows)
    )
    if res.status == "infeasible":
        return _refuted({label: y for label, y in zip(labels, res.certificate) if y != 0})
    return FeasibilityResult(
        feasible=True,
        distribution=_distribution(m.worlds, res.support),
        certificate=None,
        note="witness distribution is one of possibly many realizing the matrix",
    )


def exact_feasibility(
    m: BeliefMatrix, cap: int = DEFAULT_DIMENSION_CAP
) -> FeasibilityResult:
    """Decide whether some order distribution realizes the matrix exactly.

    A violated 3-cycle inequality (z_ij + z_jk + z_ki outside [1, 2]) is
    looked for first, in O(n^3): the first one found is returned as the
    Farkas certificate.  Only a matrix satisfying every 3-cycle inequality
    goes to the linear-ordering-polytope membership LP, with one variable
    per total order: for every pair a != b the mass of orders ranking a
    above b must equal Z(a, b).  The order columns are priced implicitly
    (``OrderColumns``), so the n! orders are never listed.  Up to n = 5
    the 3-cycle inequalities describe the polytope; from n = 6 on some
    matrices satisfying all of them are still infeasible, and the LP finds
    those.  Feasible results carry one realizing distribution (generically
    not unique); infeasible results carry Farkas multipliers over the
    constraint rows certifying that no distribution exists.
    """
    n = len(m.worlds)
    if n > cap:
        raise DimensionCapError(n, cap)
    if not m.is_exact:
        raise InvalidValueError(
            "exact_feasibility needs an exact matrix; use exactified() first"
        )
    cert = _violated_triangle(m)
    return _membership_lp(m) if cert is None else _refuted(cert)


@dataclass(frozen=True)
class MinimaxBound:
    bound: Fraction
    witness: OrderDistribution
    spec: CycleSpec

    def verify(self) -> bool:
        """Check, in exact arithmetic, that the bound is optimal and attained.

        The witness must be an exact distribution over orders of the cycle's
        worlds, summing to 1, whose worst constraint-violation probability
        equals ``bound``.  Optimality is the uniform dual y = 1/n: every
        total order violates at least one edge of a directed cycle, so the
        n violation probabilities of any distribution sum to at least 1 and
        their maximum is at least 1/n, which ``bound`` must equal.
        """
        d = self.witness
        return (
            isinstance(self.bound, Fraction)
            and self.bound == Fraction(1, self.spec.n)
            and d.is_exact
            and sum(d.probs) == ONE
            and set(d.orders[0]) == set(self.spec.worlds)
            and max(violation_probabilities(d, self.spec)) == self.bound
        )


def violation_probabilities(d: OrderDistribution, spec: CycleSpec) -> list:
    """Per-constraint violation mass: P(order ranks x_{i+1} above x_i)."""
    if not set(spec.worlds) <= set(d.orders[0]):
        raise InvalidValueError("distribution does not rank every world of the cycle")
    out = []
    for better, worse in spec.constraint_pairs():
        mass = sum(
            (p for o, p in zip(d.orders, d.probs) if o.index(worse) < o.index(better)),
            type(d.probs[0])(0),
        )
        out.append(mass)
    return out


def minimax_cycle_bound(spec: CycleSpec) -> MinimaxBound:
    """The smallest achievable worst-case constraint-violation probability.

    min over distributions p of max_i P_p(violate C_i), over all n! orders.
    For an n-cycle the optimum is exactly 1/n, in closed form: the uniform
    mixture of the n rotations attains it, and the uniform dual y = 1/n
    shows no distribution does better (see ``MinimaxBound.verify``).  The
    witness, n orders of n worlds, takes O(n^2) steps to build.
    """
    return MinimaxBound(bound=Fraction(1, spec.n), witness=rotation_mixture(spec), spec=spec)


def rotation_mixture(spec_or_n) -> OrderDistribution:
    """Uniform mixture of the n cyclic rotations of the chain x_1 > ... > x_n.

    Rotation r ranks x_r best and x_{r-1} worst.  Each cycle constraint is
    violated by exactly one rotation, so every violation probability is 1/n
    and every cycle-edge belief Z(x_i, x_{i+1}) equals (n-1)/n.
    """
    spec = spec_or_n if isinstance(spec_or_n, CycleSpec) else CycleSpec(
        f"x{i+1}" for i in range(int(spec_or_n))
    )
    worlds, n = spec.worlds, spec.n
    orders = [
        tuple(worlds[(r + t) % n] for t in range(n)) for r in range(n)
    ]
    share = Fraction(1, n)
    return OrderDistribution(orders=orders, probs=[share] * n)
