import itertools
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import pytest

import conftest
from uncertain_objectives import (
    BeliefMatrix,
    CycleSpec,
    OrderDistribution,
    check_path_coherence,
    exact_feasibility,
    matrix_from_distribution,
    minimax_cycle_bound,
    path_bounds,
    rotation_mixture,
    violation_probabilities,
)
from uncertain_objectives import beliefs, simplex
from uncertain_objectives.beliefs import OrderColumns
from uncertain_objectives.errors import DimensionCapError

from conftest import dense_solve_lp, random_distribution, reference_pairwise


def matrix3(z12, z13, z23, **kw):
    return BeliefMatrix(
        ("x1", "x2", "x3"),
        [
            [F(1, 2), z12, z13],
            [1 - z12, F(1, 2), z23],
            [1 - z13, 1 - z23, F(1, 2)],
        ],
        **kw,
    )


FORCED_VIOLATION = matrix3(F(1), F(0), F(1))  # certain steps, reversed span


class TestBeliefMatrix:
    def test_complement_symmetry_enforced(self):
        with pytest.raises(ValueError):
            BeliefMatrix(("a", "b"), [[F(1, 2), F(1, 3)], [F(1, 3), F(1, 2)]])

    def test_diagonal_enforced(self):
        with pytest.raises(ValueError):
            BeliefMatrix(("a", "b"), [[F(0), F(1)], [F(0), F(1, 2)]])

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            matrix3(F(3, 2), F(0), F(1))

    def test_float_mode_tolerance(self):
        m = BeliefMatrix(("a", "b"), [[0.5, 0.7 + 1e-12], [0.3, 0.5]])
        assert not m.is_exact
        assert m.exactified().is_exact


class TestMatrixFromDistribution:
    def test_point_mass(self):
        d = OrderDistribution(orders=[("x3", "x2", "x1")], probs=[F(1)])
        m = matrix_from_distribution(d, worlds=("x1", "x2", "x3"))
        assert m.prob("x2", "x1") == 1
        assert m.prob("x3", "x1") == 1
        assert m.prob("x3", "x2") == 1
        assert m.prob("x1", "x1") == F(1, 2)

    def test_fifty_fifty(self):
        d = OrderDistribution(
            orders=[("x1", "x2"), ("x2", "x1")], probs=[F(1, 2), F(1, 2)]
        )
        m = matrix_from_distribution(d)
        assert m.prob("x1", "x2") == F(1, 2)

    def test_rotation_mixture_pairwise(self):
        # Enumerating the three rotations directly: each cycle edge carries
        # probability 2/3.
        d = rotation_mixture(3)
        ref = reference_pairwise(d)
        assert ref[("x1", "x2")] == F(2, 3)
        assert ref[("x2", "x3")] == F(2, 3)
        assert ref[("x3", "x1")] == F(2, 3)
        m = matrix_from_distribution(d, worlds=("x1", "x2", "x3"))
        for a in m.worlds:
            for b in m.worlds:
                assert m.prob(a, b) == ref[(a, b)]

    def test_matches_reference_on_random_distributions(self):
        rng = random.Random(5)
        for _ in range(50):
            d = random_distribution(rng, rng.randint(2, 5), rng.randint(1, 6))
            m = matrix_from_distribution(d)
            ref = reference_pairwise(d)
            for a in m.worlds:
                for b in m.worlds:
                    assert m.prob(a, b) == ref[(a, b)]

    def test_float_mode_matches_exact_within_tolerance(self):
        rng = random.Random(6)
        for _ in range(20):
            d = random_distribution(rng, 4, 5)
            fd = OrderDistribution(d.orders, [float(p) for p in d.probs])
            exact = matrix_from_distribution(d)
            approx = matrix_from_distribution(fd)
            for a in exact.worlds:
                for b in exact.worlds:
                    assert abs(float(exact.prob(a, b)) - approx.prob(a, b)) < 1e-9


class TestPathBounds:
    def test_certain_chain(self):
        assert path_bounds([F(1), F(1)]) == (F(1), F(1))

    def test_coin_flips_constrain_nothing(self):
        assert path_bounds([F(1, 2), F(1, 2)]) == (F(0), F(1))

    def test_mixed_chain(self):
        assert path_bounds([F(9, 10), F(8, 10)]) == (F(7, 10), F(1))


class TestPathCoherence:
    def test_derived_matrices_are_coherent(self):
        rng = random.Random(11)
        for _ in range(100):
            d = random_distribution(rng, rng.randint(3, 6), rng.randint(1, 8))
            m = matrix_from_distribution(d)
            assert check_path_coherence(m) == []

    def test_forced_violation_reported(self):
        violations = check_path_coherence(FORCED_VIOLATION)
        v = next(pv for pv in violations if pv.path == ("x1", "x2", "x3"))
        assert v.lower == 1 and v.span == 0 and v.slack == 1

    def test_rotation_matrix_clean_on_all_two_step_paths(self):
        m = matrix_from_distribution(rotation_mixture(3), worlds=("x1", "x2", "x3"))
        assert check_path_coherence(m, 3) == []
        # All six ordered two-step paths sit inside their bounds.
        for path in itertools.permutations(("x1", "x2", "x3")):
            lo, hi = path_bounds([m.prob(path[0], path[1]), m.prob(path[1], path[2])])
            assert lo <= m.prob(path[0], path[2]) <= hi

    def test_float_mode_scan_matches_exact(self):
        z = [
            [0.5, 1.0, 0.0],
            [0.0, 0.5, 1.0],
            [1.0, 0.0, 0.5],
        ]
        m = BeliefMatrix(("x1", "x2", "x3"), z)
        violations = check_path_coherence(m)
        assert {pv.path for pv in violations} == {
            pv.path for pv in check_path_coherence(FORCED_VIOLATION)
        }


def random_entry_matrix(rng, n, den, as_float=False):
    worlds = tuple(f"w{i}" for i in range(n))
    z = [[F(1, 2)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = F(rng.randint(0, den), den)
            z[i][j], z[j][i] = v, 1 - v
    if as_float:
        z = [[float(v) for v in row] for row in z]
    return BeliefMatrix(worlds, z)


def float_matrix(n, entries):
    """Float matrix with z[i][j] = v and z[j][i] = 1 - v for each (i, j): v
    in ``entries``, and 1/2 elsewhere."""
    z = [[0.5] * n for _ in range(n)]
    for (i, j), v in entries.items():
        z[i][j], z[j][i] = v, 1.0 - v
    return BeliefMatrix(tuple(f"w{i}" for i in range(n)), z)


class TestPathScanMatchesReference:
    """The pruned scan against the full scan it replaced, element for element
    (exact values are ``Fraction``s, float values are the old floats)."""

    @staticmethod
    def assert_same(m):
        # The reference scans lengths 3, 4, ... in turn, so a limit only
        # truncates its full list.
        n = len(m.worlds)
        full = conftest.reference_path_violations(m)
        for limit in [None, *range(n + 2)]:
            got = check_path_coherence(m, limit)
            assert got == [pv for pv in full if len(pv.path) <= (n if limit is None else limit)]
            if m.is_exact:
                assert all(
                    type(v) is F for pv in got for v in (pv.span, pv.lower, pv.upper, pv.slack)
                )

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_exact_feasible_class(self, n):
        rng = random.Random(500 + n)
        for _ in range(1 if n == 7 else 4):
            self.assert_same(matrix_from_distribution(random_distribution(rng, n, rng.randint(1, 8))))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_exact_random_entries(self, n):
        rng = random.Random(600 + n)
        for _ in range(1 if n == 7 else 4):
            self.assert_same(random_entry_matrix(rng, n, rng.choice((2, 3, 4, 6, 10))))

    def test_float_random_entries(self):
        rng = random.Random(700)
        for n in (3, 4, 5, 6):
            self.assert_same(random_entry_matrix(rng, n, 12, as_float=True))

    def test_float_entries_at_the_tolerance_edges(self):
        # An entry of -FLOAT_TOL puts 1 + FLOAT_TOL (as rounded) at its
        # complement, whose excess over 1 is itself a slack above FLOAT_TOL.
        tol = beliefs.FLOAT_TOL
        m = float_matrix(5, {(1, 0): -tol, (1, 2): -tol, (3, 2): -tol, (3, 4): -tol, (0, 4): -tol})
        self.assert_same(m)
        for seed in range(5):
            rng = random.Random(seed)
            entries = {
                rng.choice(((i, j), (j, i))): rng.choice((-tol, 0.0, 0.25, 0.5, 1.0))
                for i in range(6) for j in range(i + 1, 6)
            }
            self.assert_same(float_matrix(6, entries))

    def test_float_slack_just_above_and_below_tolerance(self):
        tol = beliefs.FLOAT_TOL
        for delta, flagged in ((1e-12, True), (-1e-12, False)):
            m = float_matrix(4, {(0, 1): 0.3, (1, 2): 0.3, (0, 2): 0.6 + tol + delta})
            self.assert_same(m)
            paths = {pv.path for pv in check_path_coherence(m)}
            assert (("w0", "w1", "w2") in paths) is flagged

    def test_float_prefix_past_one_still_extends(self):
        # The steps along w0..w3 sum to 1 + FLOAT_TOL (the complements to
        # 2 - FLOAT_TOL), so a prune without its margin would drop that
        # prefix; three steps at -FLOAT_TOL then bring the seven-world path
        # 2e-9 below its span of 1.
        tol = beliefs.FLOAT_TOL
        steps = [0.5, 0.5 + tol, 0.0, -tol, -tol, -tol]
        entries = {(i, i + 1): v for i, v in enumerate(steps)}
        m = float_matrix(7, {**entries, (0, 6): 1.0})
        self.assert_same(m)
        path = tuple(f"w{i}" for i in range(7))
        assert any(pv.path == path for pv in check_path_coherence(m))

    def test_python_int_fallback(self):
        # Denominators whose LCM times n passes 2^62 leave int64.
        dens = (10**9 + 7, 10**9 + 9, 998_244_353, 754_974_721, 167_772_161, 469_762_049)
        rng = random.Random(800)
        z = [[F(1, 2)] * 4 for _ in range(4)]
        for (i, j), d in zip(itertools.combinations(range(4), 2), dens):
            v = F(rng.randint(0, d), d)
            z[i][j], z[j][i] = v, 1 - v
        m = BeliefMatrix(("a", "b", "c", "d"), z)
        assert beliefs._scan_numbers(m)[0].dtype == object
        self.assert_same(m)
        assert check_path_coherence(m)

    def test_seventy_float_worlds_at_three(self):
        rng = random.Random(900)
        n = 70
        entries = {(i, j): rng.uniform(0.25, 0.75) for i in range(n) for j in range(i + 1, n)}
        m = float_matrix(n, entries)
        got = check_path_coherence(m, 3)
        assert got == conftest.reference_path_violations(m, 3)
        assert got


class TestExactFeasibility:
    def test_point_mass_matrix_feasible_and_roundtrips(self):
        d = OrderDistribution(orders=[("x3", "x2", "x1")], probs=[F(1)])
        m = matrix_from_distribution(d, worlds=("x1", "x2", "x3"))
        res = exact_feasibility(m)
        assert res.feasible
        again = matrix_from_distribution(res.distribution, worlds=m.worlds)
        assert again.z == m.z

    def test_forced_violation_infeasible(self):
        res = exact_feasibility(FORCED_VIOLATION)
        assert not res.feasible
        assert res.certificate

    def test_rotation_matrix_feasible_with_uniform_witness(self):
        m = matrix_from_distribution(rotation_mixture(3), worlds=("x1", "x2", "x3"))
        res = exact_feasibility(m)
        assert res.feasible
        again = matrix_from_distribution(res.distribution, worlds=m.worlds)
        assert again.z == m.z

    def test_roundtrip_on_random_distributions(self):
        rng = random.Random(13)
        for _ in range(25):
            d = random_distribution(rng, rng.randint(2, 5), rng.randint(1, 6))
            m = matrix_from_distribution(d)
            res = exact_feasibility(m)
            assert res.feasible
            assert res.verify(m)
            again = matrix_from_distribution(res.distribution, worlds=m.worlds)
            assert again.z == m.z

    def test_certificate_algebra(self):
        # The Farkas multipliers really do refute the constraint system:
        # sum_i y_i * (orders ranking a above b) <= 0 for every order column
        # while sum_i y_i * z_i > 0.
        res = exact_feasibility(FORCED_VIOLATION)
        assert res.verify(FORCED_VIOLATION)
        cert = res.certificate
        worlds = FORCED_VIOLATION.worlds
        pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
        rhs = {
            f"above({worlds[i]},{worlds[j]})": FORCED_VIOLATION.z[i][j] for i, j in pairs
        }
        rhs["total"] = F(1)
        value = sum(cert.get(k, F(0)) * v for k, v in rhs.items())
        assert value > 0
        for order in itertools.permutations(range(3)):
            pos = {w: r for r, w in enumerate(order)}
            col = sum(
                cert.get(f"above({worlds[i]},{worlds[j]})", F(0))
                * (1 if pos[i] < pos[j] else 0)
                for i, j in pairs
            ) + cert.get("total", F(0))
            assert col <= 0

    def test_dimension_cap(self):
        worlds = tuple(f"w{i}" for i in range(8))
        grid = [
            [F(1, 2) if i == j else (F(1) if i < j else F(0)) for j in range(8)]
            for i in range(8)
        ]
        m = BeliefMatrix(worlds, grid)
        with pytest.raises(DimensionCapError):
            exact_feasibility(m, cap=7)

    def test_verify_rejects_wrong_answers(self):
        m = matrix_from_distribution(rotation_mixture(3), worlds=("x1", "x2", "x3"))
        res = exact_feasibility(m)
        assert res.verify(m)
        assert not res.verify(FORCED_VIOLATION)
        orders = res.distribution.orders
        moved = OrderDistribution(orders, [F(1)] + [F(0)] * (len(orders) - 1))
        assert not replace(res, distribution=moved).verify(m)
        assert not replace(res, distribution=None).verify(m)

        bad = exact_feasibility(FORCED_VIOLATION)
        cert = bad.certificate
        assert not bad.verify(m)  # no multipliers refute a realizable matrix
        assert not replace(bad, certificate={k: -v for k, v in cert.items()}).verify(FORCED_VIOLATION)
        assert not replace(bad, certificate={}).verify(FORCED_VIOLATION)
        assert not replace(bad, certificate={**cert, "above(x1,x9)": F(1)}).verify(FORCED_VIOLATION)
        # Raising the total row lifts y.A above zero on some order.
        lifted = {**cert, "total": cert.get("total", F(0)) + 1}
        assert not replace(bad, certificate=lifted).verify(FORCED_VIOLATION)

    def test_feasibility_at_eight_worlds(self):
        # 8! = 40320 orders: the order columns are priced, never listed.
        d = random_distribution(random.Random(8), 8, 12)
        m = matrix_from_distribution(d)
        res = exact_feasibility(m, cap=8)
        assert res.feasible
        assert res.verify(m)

    def test_float_matrix_rejected(self):
        m = BeliefMatrix(("a", "b"), [[0.5, 0.7], [0.3, 0.5]])
        with pytest.raises(ValueError):
            exact_feasibility(m)


class TestMinimax:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_bound_is_exactly_one_over_n(self, n):
        spec = CycleSpec(tuple(f"x{i + 1}" for i in range(n)))
        res = minimax_cycle_bound(spec)
        assert res.bound == F(1, n)
        assert max(violation_probabilities(res.witness, spec)) == F(1, n)

    def test_bound_at_nine_worlds_without_listing_orders(self):
        spec = CycleSpec(tuple(f"x{i + 1}" for i in range(9)))
        tracemalloc.start()
        try:
            res = minimax_cycle_bound(spec, cap=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.bound == F(1, 9)
        assert max(violation_probabilities(res.witness, spec)) == F(1, 9)
        # A bare list with one pointer per order would already take more.
        assert peak < math.factorial(9) * 8

    @pytest.mark.parametrize("n", range(3, 10))
    def test_result_verifies(self, n):
        spec = CycleSpec(tuple(f"x{i + 1}" for i in range(n)))
        res = minimax_cycle_bound(spec, cap=9)
        assert res.bound == F(1, n)
        assert res.verify()

    def test_verify_rejects_a_witness_off_the_bound(self):
        spec = CycleSpec(("x1", "x2", "x3", "x4"))
        res = minimax_cycle_bound(spec)
        assert not replace(res, bound=F(1, 5)).verify()
        point = OrderDistribution(orders=[spec.worlds], probs=[F(1)])
        assert not replace(res, witness=point).verify()
        floats = OrderDistribution(res.witness.orders, [float(p) for p in res.witness.probs])
        assert not replace(res, witness=floats).verify()
        other = CycleSpec(("x1", "x2", "x3", "y4"))
        assert not replace(res, spec=other).verify()

    def test_random_search_never_beats_the_bound(self):
        # Oracle cross-check: 10^4 random distributions over the 4-cycle all
        # have some constraint violated with probability >= 1/4.
        spec = CycleSpec(("x1", "x2", "x3", "x4"))
        rng = random.Random(424242)
        worlds = list(spec.worlds)
        perms = list(itertools.permutations(worlds))
        for _ in range(10_000):
            support = rng.sample(perms, rng.randint(1, 6))
            weights = [rng.randint(0, 9) for _ in support]
            if sum(weights) == 0:
                weights[0] = 1
            total = sum(weights)
            d = OrderDistribution(
                orders=support, probs=[F(w, total) for w in weights]
            )
            assert max(violation_probabilities(d, spec)) >= F(1, 4)

    def test_rotation_mixture_is_optimal(self):
        for n in range(3, 6):
            spec = CycleSpec(tuple(f"x{i + 1}" for i in range(n)))
            d = rotation_mixture(spec)
            violations = violation_probabilities(d, spec)
            assert violations == [F(1, n)] * n


class TestRotationMixture:
    def test_three_rotations(self):
        d = rotation_mixture(3)
        assert len(d.orders) == 3
        assert all(p == F(1, 3) for p in d.probs)
        spec = CycleSpec(("x1", "x2", "x3"))
        # Each constraint is violated by exactly one rotation.
        for better, worse in spec.constraint_pairs():
            violators = [
                o for o in d.orders if o.index(worse) < o.index(better)
            ]
            assert len(violators) == 1

    @pytest.mark.parametrize("n", range(3, 8))
    def test_cycle_edges_carry_n_minus_one_over_n(self, n):
        d = rotation_mixture(n)
        m = matrix_from_distribution(d, worlds=tuple(f"x{i + 1}" for i in range(n)))
        for i in range(n):
            a, b = f"x{i + 1}", f"x{(i + 1) % n + 1}"
            assert m.prob(a, b) == F(n - 1, n)

    def test_max_violation_quarter_for_four(self):
        spec = CycleSpec(("a", "b", "c", "d"))
        d = rotation_mixture(spec)
        assert max(violation_probabilities(d, spec)) == F(1, 4)


class TestMonotoneNecessity:
    def test_all_violations_below_one_over_n_is_infeasible(self):
        # Any matrix whose cycle-edge beliefs all exceed (n-1)/n cannot be
        # realized by a distribution over total orders.
        rng = random.Random(777)
        for _ in range(40):
            n = rng.randint(3, 5)
            worlds = tuple(f"x{i + 1}" for i in range(n))
            grid = [[F(1, 2)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = F(rng.randint(1, 9), 10)
                    grid[i][j] = v
                    grid[j][i] = 1 - v
            eps = F(1, rng.randint(20 * n, 40 * n))
            for i in range(n):
                a, b = i, (i + 1) % n
                v = F(n - 1, n) + eps
                grid[a][b] = v
                grid[b][a] = 1 - v
            m = BeliefMatrix(worlds, grid)
            assert not exact_feasibility(m).feasible


class TestOrderColumns:
    """The subset DP that prices order columns, against all n! orders."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dp_matches_brute_force(self, n):
        rng = random.Random(100 + n)
        orders = list(itertools.permutations(range(n)))
        choices = [(a, b) for a in range(n) for b in range(n) if a != b] + [None]
        for _ in range(20 if n == 6 else 40):
            rows = [rng.choice(choices) for _ in range(rng.randint(1, n * n))]
            # Small weights, so that many orders tie.
            weights = [rng.randint(-2, 2) for _ in rows]
            src = OrderColumns(n, rows)
            cols = [
                [1 if r is None or o.index(r[0]) < o.index(r[1]) else 0 for r in rows]
                for o in orders
            ]
            scores = [sum(w * v for w, v in zip(weights, col)) for col in cols]
            top = max(scores)
            assert src.best(weights) == (top, orders[scores.index(top)])
            for t in sorted(set(scores)) + [min(scores) - 1]:
                want = next((o for o, s in zip(orders, scores) if s > t), None)
                assert src.first_above(weights, t) == want
            for k in rng.sample(range(len(orders)), min(12, len(orders))):
                assert src.rank(orders[k]) == k
                assert src.column(orders[k]) == cols[k]
        assert src.size == len(orders)


@pytest.fixture
def dense_checked(monkeypatch):
    """Solve every LP of ``beliefs`` twice, by the library and by the dense
    reference simplex with all n! order columns written out, and require
    the same status, x, objective, certificate and pivot count."""
    solve = beliefs.solve_lp
    pivots = []

    def checked(*args, **kwargs):
        res = solve(*args, **kwargs)
        ref = dense_solve_lp(*args, **kwargs)
        assert (res.status, res.x, res.objective, res.certificate, res.pivots, res.support) == (
            ref.status, ref.x, ref.objective, ref.certificate, ref.pivots, ref.support
        )
        pivots.append(res.pivots)
        return res

    monkeypatch.setattr(beliefs, "solve_lp", checked)
    return pivots


def _random_matrix(rng, n):
    den = rng.choice((2, 3, 4, 6))
    grid = [[F(1, 2)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = F(rng.randint(0, den), den)
            grid[i][j] = v
            grid[j][i] = 1 - v
    return BeliefMatrix(tuple(f"w{i}" for i in range(n)), grid)


def _seeded_matrices(seed, count, sizes):
    rng = random.Random(seed)
    for k in range(count):
        n = sizes[k % len(sizes)]
        if k % 2:
            yield matrix_from_distribution(random_distribution(rng, n, rng.randint(1, 8)))
        else:
            yield _random_matrix(rng, n)


class TestDenseReference:
    def test_membership_matches_dense_simplex(self, dense_checked):
        # 300 matrices, half marginals and half random entries; six at
        # n = 6, where the dense reference takes about a second per LP.
        sizes = [3, 4, 5] * 16 + [6]
        verdicts = set()
        for m in _seeded_matrices(2024, 300, sizes):
            res = exact_feasibility(m)
            assert res.verify(m)
            verdicts.add(res.feasible)
        assert verdicts == {True, False}
        assert len(dense_checked) == 300

    def test_minimax_matches_dense_simplex(self, dense_checked):
        for n in range(3, 7):
            spec = CycleSpec(tuple(f"x{i + 1}" for i in range(n)))
            assert minimax_cycle_bound(spec).bound == F(1, n)
        assert len(dense_checked) == 4

    def test_blands_rule_matches_dense_simplex(self, dense_checked, monkeypatch):
        # With no stall allowance both solvers switch to Bland's rule at the
        # first degenerate pivot, so its order pricing is compared too.
        monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
        monkeypatch.setattr(conftest, "_STALL_LIMIT", 0)
        for m in _seeded_matrices(7, 60, [3, 4, 5]):
            assert exact_feasibility(m).verify(m)
        for n in range(3, 6):
            spec = CycleSpec(tuple(f"x{i + 1}" for i in range(n)))
            assert minimax_cycle_bound(spec).bound == F(1, n)
