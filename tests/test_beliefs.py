import itertools
import math
import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from uncertain_objectives.beliefs import MinimaxBound, OrderColumns
from uncertain_objectives.errors import DimensionCapError, InvalidValueError

from conftest import dense_solve_lp, minimax_lp, random_distribution, reference_pairwise


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

    def test_exactified_rounds_to_denominators_of_at_most_a_billion(self):
        tiny = 1 / (10**9 + 7)
        m = BeliefMatrix(
            ("a", "b", "c"), [[0.5, 1 / 3, tiny], [2 / 3, 0.5, 0.5], [1 - tiny, 0.5, 0.5]]
        )
        assert m.exactified().z[0] == (F(1, 2), F(1, 3), F(1, 10**9))

    def test_duplicate_world_ids_are_refused(self):
        with pytest.raises(InvalidValueError, match="duplicate world ids"):
            BeliefMatrix(("a", "a"), [[F(1, 2)] * 2] * 2)

    def test_repeated_cycle_world_is_refused(self):
        with pytest.raises(InvalidValueError, match="cycle worlds must be distinct"):
            CycleSpec(("x1", "x2", "x1"))


class TestToleranceRule:
    """Float entries within FLOAT_TOL of [0, 1] are accepted and stored
    clamped into it; the scan then flags only slacks above FLOAT_TOL."""

    def test_entries_just_outside_unit_are_stored_clamped(self):
        tol = beliefs.FLOAT_TOL
        m = BeliefMatrix(
            ("a", "b", "c"), [[0.5, 1 - (-tol), 0.5], [-tol, 0.5, 0.5], [0.5, 0.5, 0.5]]
        )
        assert (m.z[0][1], m.z[1][0]) == (1.0, 0.0)
        assert check_path_coherence(m) == []

    @pytest.mark.parametrize("bad", [-2 * beliefs.FLOAT_TOL, 1 + 2 * beliefs.FLOAT_TOL])
    def test_entries_beyond_the_tolerance_are_rejected(self, bad):
        with pytest.raises(ValueError, match="outside"):
            BeliefMatrix(("a", "b"), [[0.5, bad], [1 - bad, 0.5]])
        with pytest.raises(ValueError, match="outside"):
            OrderDistribution([("a", "b"), ("b", "a")], [bad, 1 - bad])
        with pytest.raises(ValueError, match="outside"):
            path_bounds([0.5, bad])

    def test_distribution_probabilities_are_stored_clamped(self):
        tol = beliefs.FLOAT_TOL
        d = OrderDistribution([("a", "b"), ("b", "a")], [1 + tol / 2, -tol / 2])
        assert d.probs == (1.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(3, 6), st.integers(1, 8))
    def test_perturbed_float_marginals_stay_coherent(self, rng, n, support):
        # Every path's slack moves by at most n perturbations of at most
        # FLOAT_TOL / (n + 1) each, which stays below FLOAT_TOL.
        m = matrix_from_distribution(random_distribution(rng, n, support))
        step = beliefs.FLOAT_TOL / (n + 1)
        z = [
            [float(v) if i == j else float(v) + rng.uniform(-step, step) for j, v in enumerate(row)]
            for i, row in enumerate(m.z)
        ]
        perturbed = BeliefMatrix(m.worlds, z)
        assert all(0.0 <= v <= 1.0 for row in perturbed.z for v in row)
        assert check_path_coherence(perturbed) == []


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

    def test_repeated_world_is_refused(self):
        d = OrderDistribution([("a", "b"), ("b", "a")], [F(1, 2), F(1, 2)])
        with pytest.raises(InvalidValueError, match="world list does not match"):
            matrix_from_distribution(d, worlds=("a", "a", "b"))

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
        dists = [random_distribution(rng, rng.randint(2, 5), rng.randint(1, 6)) for _ in range(50)]
        # Denominators whose LCM passes 2^62 leave int64 for object arrays.
        dens = (10**9 + 7, 10**9 + 9, 998_244_353)
        probs = [F(1, dens[0]), F(1, dens[1]), F(1, dens[2])]
        dists.append(
            OrderDistribution(
                [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b"), ("a", "c", "b")],
                probs + [1 - sum(probs)],
            )
        )
        assert math.lcm(*dens) >= 1 << 62
        for d in dists:
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

    def test_empty_chain_is_refused(self):
        with pytest.raises(InvalidValueError, match="at least one step"):
            path_bounds([])


# w0 -> ... -> w8 paths: eight steps and a span, and whether the path's own
# slack is above FLOAT_TOL.
NINE_WORLD_PATHS = [
    (
        [0.03962074251855634, 0.07027959404128738, 0.11528279096062495,
         0.010628004239543222, 0.09620207558769288, 0.10025345031180301,
         0.1074797538908609, 0.0914553753016516],
        0.6312017878520203,
        True,
    ),
    (
        [0.013797841316647574, 0.03670139708973744, 0.09771446723097331,
         0.05557453992308517, 0.0290308141736956, 0.07036786375269682,
         0.08733448382721946, 0.084193441355256],
        0.47471484966931143,
        False,
    ),
]


def nine_world_matrix(steps, span):
    return float_matrix(9, {**{(i, i + 1): v for i, v in enumerate(steps)}, (0, 8): span})


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

    def test_path_lengths_below_two_are_refused(self):
        m = FORCED_VIOLATION  # z_12 = z_23 = z_31 = 1
        assert len(check_path_coherence(m)) == 6
        assert check_path_coherence(m, 2) == []
        for bad in (1, 0, -4):
            with pytest.raises(InvalidValueError, match="at least 2"):
                check_path_coherence(m, bad)

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

    def test_float_slack_is_the_distance_from_the_reported_bounds(self):
        # Entries near 0, near 1 and uniform, so that many paths of 9 and 10
        # worlds, whose 8 or more steps numpy sums pairwise, are flagged.
        # The report adds steps left to right, so its bounds are
        # path_bounds' to the last bit.
        rng = random.Random(0)
        n = 10
        entries = {
            (i, j): rng.choice([rng.random() * 0.05, 1 - rng.random() * 0.05, rng.random()])
            for i in range(n) for j in range(i + 1, n)
        }
        m = float_matrix(n, entries)
        violations = check_path_coherence(m)
        assert len(violations) == 53146
        assert {len(pv.path) for pv in violations} >= {9, 10}
        for pv in violations:
            assert pv.slack == max(pv.lower - pv.span, pv.span - pv.upper)
            path = [m.index(w) for w in pv.path]
            assert (pv.lower, pv.upper) == path_bounds([m.z[a][b] for a, b in zip(path, path[1:])])

    @pytest.mark.parametrize("steps, span, flagged", NINE_WORLD_PATHS)
    def test_nine_world_float_path_is_flagged_by_its_own_slack(self, steps, span, flagged):
        # Eight steps, which numpy's ``sum`` adds pairwise, while path_bounds
        # adds them left to right; the two orders put these slacks on
        # opposite sides of FLOAT_TOL.
        m = nine_world_matrix(steps, span)
        lower, upper = path_bounds(steps)
        slack = max(lower - span, span - upper)
        assert (slack > beliefs.FLOAT_TOL) is flagged
        path = tuple(f"w{i}" for i in range(9))
        got = [pv for pv in check_path_coherence(m) if pv.path == path]
        assert got == ([beliefs.PathViolation(path, span, lower, upper, slack)] if flagged else [])


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


# Steps of 0.1 along w0..w3, with z(w0,w2) and z(w1,w3) 0.9e-9 above their
# chained sums and z(w0,w3) 1.8e-9 above: every triangle meets the
# tolerance, while the four-world paths break their bounds by twice as much.
ACCUMULATING = float_matrix(
    4,
    {(0, 1): 0.1, (1, 2): 0.1, (2, 3): 0.1,
     (0, 2): 0.2 + 0.9e-9, (1, 3): 0.2 + 0.9e-9, (0, 3): 0.3 + 1.8e-9},
)


class TestPathScanMatchesReference:
    """The pruned scan against the full scan it replaced, element for element
    (exact values are ``Fraction``s, float values are the old floats)."""

    @staticmethod
    def assert_same(m):
        # The reference scans lengths 3, 4, ... in turn, so a limit only
        # truncates its full list.  Limits below 2 are refused.
        n = len(m.worlds)
        full = conftest.reference_path_violations(m)
        for limit in [None, *range(2, n + 2)]:
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
        # Entries of -FLOAT_TOL and their complements 1 + FLOAT_TOL (as
        # rounded) are stored as 0.0 and 1.0.
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
        # The steps along w0..w3 sum to 1 + FLOAT_TOL, but their complements
        # to 1 - FLOAT_TOL, so that prefix is kept and extended.  The three
        # steps at -FLOAT_TOL are stored as 0.0, which puts the seven-world
        # path's span of 1 at its upper bound of 1, not above it.
        tol = beliefs.FLOAT_TOL
        steps = [0.5, 0.5 + tol, 0.0, -tol, -tol, -tol]
        entries = {(i, i + 1): v for i, v in enumerate(steps)}
        m = float_matrix(7, {**entries, (0, 6): 1.0})
        assert [m.z[i][i + 1] for i in range(3, 6)] == [0.0, 0.0, 0.0]
        self.assert_same(m)
        path = tuple(f"w{i}" for i in range(7))
        assert not any(pv.path == path for pv in check_path_coherence(m))
        # Steps summing past one, with complements below one, must extend
        # too: the five-world path breaks its lower bound of 1 - 2 FLOAT_TOL.
        steps = [1 - tol, 1 - tol, 1.0, 1.0]
        entries = {(i, i + 1): v for i, v in enumerate(steps)}
        m = float_matrix(5, {**entries, (0, 4): 0.0})
        self.assert_same(m)
        assert ("w0", "w1", "w2", "w3", "w4") in {pv.path for pv in check_path_coherence(m)}

    def test_nine_float_worlds_summed_left_to_right(self):
        # The flagged nine-world matrix, whose eight-step sums a pairwise
        # summation would round differently.
        steps, span, _ = NINE_WORLD_PATHS[0]
        m = nine_world_matrix(steps, span)
        got = check_path_coherence(m)
        assert len(got) == 237
        assert got == conftest.reference_path_violations(m)

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

    @pytest.mark.parametrize("n", range(3, 10))
    def test_float_marginals_perturbed(self, n, monkeypatch):
        # Marginals as floats, with one to three entries moved by each
        # perturbation (clamped into [0, 1]): the certificate answers the
        # small ones and the scan the rest, at the limits None, 3 and 4.
        stack, scans = beliefs.np.column_stack, []
        monkeypatch.setattr(
            beliefs.np, "column_stack", lambda *a: scans.append(1) or stack(*a)
        )
        rng = random.Random(1000 + n)
        perturbations = (0, 1e-10, -1e-10, 3e-10, -3e-10, 1e-9, -1e-9, 2e-9, 0.2, -0.2)
        certified = flagged = 0
        for delta in perturbations * (2 if n < 9 else 1):
            d = random_distribution(rng, n, rng.randint(1, 8))
            d = OrderDistribution(d.orders, [float(p) for p in d.probs])
            z = [list(row) for row in matrix_from_distribution(d).z]
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(n), 2)
                z[i][j] = min(1.0, max(0.0, z[i][j] + delta))
                z[j][i] = 1.0 - z[i][j]
            m = BeliefMatrix(tuple(f"w{i}" for i in range(n)), z)
            # A reference scan of all nine-world paths takes about 0.7 s.
            top = n if n < 9 or delta in (0, 2e-9) else 4
            full = conftest.reference_path_violations(m, top)
            for limit in (None, 3, 4)[n > top:]:
                scans.clear()
                got = check_path_coherence(m, limit)
                assert got == [pv for pv in full if len(pv.path) <= (limit or n)]
                certified += not scans
                flagged += bool(got)
        assert certified and flagged

    def test_float_violations_from_accumulated_tolerance(self):
        # No triangle, so no three-world path, passes the tolerance: eight
        # four-world paths, w0..w3 and its reversal among them, are flagged.
        got = check_path_coherence(ACCUMULATING)
        assert got == conftest.reference_path_violations(ACCUMULATING)
        assert len(got) == 8 and {len(pv.path) for pv in got} == {4}
        assert {("w0", "w1", "w2", "w3"), ("w3", "w2", "w1", "w0")} <= {pv.path for pv in got}

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

    @pytest.mark.parametrize("n, draw", [(8, 2), (9, 0)])
    def test_feasible_marginals_do_not_stall(self, monkeypatch, n, draw):
        # Marginals of four random orders at weight 1/4: degenerate feasible
        # LPs on which a ratio test that breaks ties by basic id stalls for
        # thousands of pivots.  The exact counts pin the pivot path.
        rng = random.Random(n)
        worlds = [f"w{i}" for i in range(n)]
        for _ in range(draw + 1):
            orders = [rng.sample(worlds, n) for _ in range(4)]
        m = matrix_from_distribution(OrderDistribution(orders, [F(1, 4)] * 4))
        solve = beliefs.solve_lp
        pivots = []

        def counted(*args, **kwargs):
            res = solve(*args, **kwargs)
            pivots.append(res.pivots)
            return res

        monkeypatch.setattr(beliefs, "solve_lp", counted)
        res = exact_feasibility(m, cap=10)
        assert res.feasible
        assert res.verify(m)
        assert pivots == [{(8, 2): 189, (9, 0): 326}[n, draw]]

    def test_membership_lp_prices_once_per_pivot_and_once_more(self, monkeypatch):
        # Phase 1 prices before each pivot and once more to find it has
        # none; the membership LP's costs are all 0, so phase 2 is skipped.
        best, priced = OrderColumns.best, []

        def counted(self, weights):
            priced.append(1)
            return best(self, weights)

        solve, results = beliefs.solve_lp, []
        monkeypatch.setattr(OrderColumns, "best", counted)
        monkeypatch.setattr(
            beliefs, "solve_lp", lambda *a, **kw: results.append(solve(*a, **kw)) or results[-1]
        )
        h = F(1, 2)
        infeasible = upper_matrix([[0, 0, 0, h, h], [h, 1, 1, 1], [h, h, 1], [h, h], [1]])
        rng = random.Random(71)
        marginals = [matrix_from_distribution(random_distribution(rng, n, rng.randint(1, 6)))
                     for n in (3, 4, 5, 6)]
        for m in [infeasible, *marginals]:
            priced.clear()
            assert beliefs._membership_lp(m).feasible is (m is not infeasible)
            assert results[-1].pivots > 0
            assert len(priced) == results[-1].pivots + 1

    def test_float_matrix_rejected(self):
        m = BeliefMatrix(("a", "b"), [[0.5, 0.7], [0.3, 0.5]])
        with pytest.raises(ValueError):
            exact_feasibility(m)


def upper_matrix(rows):
    """Exact matrix from its upper triangle, given row by row: rows[i]
    lists z[i][i+1], ..., z[i][n-1]."""
    n = len(rows) + 1
    z = [[F(1, 2)] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row, start=i + 1):
            z[i][j], z[j][i] = F(v), 1 - F(v)
    return BeliefMatrix(tuple(f"w{i}" for i in range(n)), z)


def first_triangle(m):
    """Reference: the closed-form certificate of the first triple i < j < k
    with z_ij + z_jk + z_ki outside [1, 2], in Fractions, or None."""
    z, w = m.z, m.worlds
    for i, j, k in itertools.combinations(range(len(w)), 3):
        s = z[i][j] + z[j][k] + z[k][i]
        ij, ik, jk = f"above({w[i]},{w[j]})", f"above({w[i]},{w[k]})", f"above({w[j]},{w[k]})"
        if s > 2:
            return {ij: F(1), jk: F(1), ik: F(-1), "total": F(-1)}
        if s < 1:
            return {ik: F(1), ij: F(-1), jk: F(-1)}
    return None


@pytest.fixture
def lp_calls(monkeypatch):
    """Count the LPs ``beliefs`` solves."""
    solve = beliefs.solve_lp
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["implicit"].n)
        return solve(*args, **kwargs)

    monkeypatch.setattr(beliefs, "solve_lp", counted)
    return calls


class TestTriangleCertificate:
    """A violated 3-cycle inequality refutes a matrix before any LP."""

    def test_both_orientations_give_the_closed_form(self, lp_calls):
        # z12 + z23 + z31 = 3 > 2: the cycle x1 > x2 > x3 > x1 is over-believed.
        res = exact_feasibility(FORCED_VIOLATION)
        assert not res.feasible and res.verify(FORCED_VIOLATION)
        assert res.certificate == {
            "above(x1,x2)": 1, "above(x1,x3)": -1, "above(x2,x3)": 1, "total": -1
        }
        assert res.note == "Farkas multipliers over pairwise-marginal rows"
        # z12 + z23 + z31 = 0 < 1: the reverse cycle is; its total multiplier is 0.
        reverse = matrix3(F(0), F(1), F(0))
        res = exact_feasibility(reverse)
        assert not res.feasible and res.verify(reverse)
        assert res.certificate == {"above(x1,x2)": -1, "above(x1,x3)": 1, "above(x2,x3)": -1}
        assert all(isinstance(v, F) for v in res.certificate.values())
        assert lp_calls == []

    def test_sums_on_the_bounds_are_not_violations(self, lp_calls):
        # z12 + z23 + z31 = 2, 1 and 1: point masses and a two-order mixture.
        for z in ((1, 1, 1), (0, 0, 0), (F(1, 2), 1, F(1, 2))):
            m = matrix3(*map(F, z))
            assert exact_feasibility(m).feasible
        assert len(lp_calls) == 3

    def test_first_violated_triple_is_chosen(self):
        # (w0, w1, w2) and (w0, w1, w3) hold; (w0, w2, w3) and (w1, w2, w3)
        # both break: the earlier one in combinations order is reported.
        m = upper_matrix([[F(1, 2), 1, 0], [1, 0], [1]])
        res = exact_feasibility(m)
        assert res.certificate == {
            "above(w0,w2)": 1, "above(w0,w3)": -1, "above(w2,w3)": 1, "total": -1
        }
        rng = random.Random(31)
        caught = 0
        for _ in range(200):
            m = random_entry_matrix(rng, rng.randint(3, 7), rng.choice((2, 3, 4, 6)))
            want = first_triangle(m)
            if want is not None:
                caught += 1
                assert exact_feasibility(m).certificate == want
        assert caught > 100

    def test_every_certificate_verifies(self, lp_calls):
        checked = 0
        for m in _seeded_matrices(12, 200, [3, 4, 5, 6, 7]):
            if first_triangle(m) is not None:
                res = exact_feasibility(m)
                assert not res.feasible and res.verify(m)
                checked += 1
        assert checked > 50
        assert lp_calls == []

    def test_marginals_never_get_one(self):
        rng = random.Random(41)
        for _ in range(300):
            d = random_distribution(rng, rng.randint(3, 8), rng.randint(1, 10))
            assert beliefs._violated_triangle(matrix_from_distribution(d)) is None

    def test_lp_never_refutes_a_triangle_clean_matrix_up_to_five_worlds(self):
        # Trivial and 3-cycle inequalities describe the polytope for n <= 5
        # (Groetschel, Juenger & Reinelt 1985).
        rng = random.Random(55)
        clean = 0
        while clean < 150:
            m = random_entry_matrix(rng, rng.randint(3, 5), rng.choice((2, 3, 4, 6)))
            if beliefs._violated_triangle(m) is None:
                clean += 1
                res = beliefs._membership_lp(m)
                assert res.feasible and res.verify(m)

    def test_exact_path_scan_flags_exactly_the_triangle_violators(self):
        # Along a path a1..ak, each triangle (a1, aj, aj+1) bounds z(a1,aj+1)
        # by z(a1,aj) and z(aj,aj+1), so a triangle-clean exact matrix meets
        # every chained bound; a violated triangle is a flagged 3-world path.
        # Exact matrices only: float tolerance can accumulate along a path.
        flagged = 0
        for m in _seeded_matrices(17, 300, [3, 4, 5, 6, 7]):
            found = bool(check_path_coherence(m))
            assert found == (beliefs._violated_triangle(m) is not None)
            flagged += found
        assert flagged > 100
        rng, clean = random.Random(23), 0
        while clean < 50:
            m = random_entry_matrix(rng, rng.randint(5, 6), rng.choice((2, 3, 4, 6)))
            if beliefs._violated_triangle(m) is None:
                clean += 1
                assert check_path_coherence(m) == []

    def test_exact_path_scan_skips_paths_on_triangle_clean_matrices(self, monkeypatch):
        # The scan stacks each block's grown paths once; nothing else on
        # these calls does.
        real, scanned = beliefs.np.column_stack, []

        def refuse(*args):
            raise AssertionError("path scan ran on a triangle-clean matrix")

        monkeypatch.setattr(beliefs.np, "column_stack", refuse)
        rng = random.Random(61)
        dists = [random_distribution(rng, rng.randint(3, 7), rng.randint(1, 10))
                 for _ in range(100)]
        for d in dists:
            assert check_path_coherence(matrix_from_distribution(d)) == []
            # Float marginals' triangle slacks are rounding, far below the
            # tolerance even after n - 2 of them add up.
            floats = OrderDistribution(d.orders, [float(p) for p in d.probs])
            assert check_path_coherence(matrix_from_distribution(floats)) == []
        # Three-world paths add no triangle slack up: at that limit the
        # accumulation matrix is certified too.
        assert check_path_coherence(ACCUMULATING, 3) == []

        # A float matrix whose triangles all meet the tolerance, but not
        # (limit - 2) times it, and triangle-violating exact ones still scan.
        def counted(*args):
            scanned.append(len(args[0][0]))
            return real(*args)

        monkeypatch.setattr(beliefs.np, "column_stack", counted)
        eps = beliefs._triangle_slack(beliefs._scan_numbers(ACCUMULATING)[0])
        assert eps <= beliefs.FLOAT_TOL < 2 * eps
        assert check_path_coherence(ACCUMULATING)
        assert scanned
        scanned.clear()
        assert check_path_coherence(FORCED_VIOLATION)
        assert scanned

    def test_float_certificate_holds_no_cube_of_floats(self):
        # 150 worlds: their paths could never be grown, and one array over
        # all n^3 triples would take 8 n^3 bytes (27 MB).
        n = 150
        rng = random.Random(67)
        worlds = [f"w{i}" for i in range(n)]
        orders = [rng.sample(worlds, n) for _ in range(12)]
        m = matrix_from_distribution(OrderDistribution(orders, [1 / 12] * 12))
        tracemalloc.start()
        try:
            assert check_path_coherence(m) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n**3

    def test_triangle_clean_infeasible_matrix_reaches_the_lp(self, lp_calls):
        h = F(1, 2)
        m = upper_matrix([[0, 0, 0, h, h], [h, 1, 1, 1], [h, h, 1], [h, h], [1]])
        assert first_triangle(m) is None
        res = exact_feasibility(m)
        assert not res.feasible and res.verify(m)
        assert lp_calls == [6]

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_thirds_past_the_cap_are_refuted_without_the_lp(self, n, seed, lp_calls):
        # Such matrices took thousands of degenerate pivots in the LP.
        m = random_entry_matrix(random.Random(seed), n, 3)
        res = exact_feasibility(m, cap=10)
        assert not res.feasible and res.verify(m)
        assert lp_calls == []


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
            res = minimax_cycle_bound(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.bound == F(1, 9)
        assert max(violation_probabilities(res.witness, spec)) == F(1, 9)
        # A bare list with one pointer per order would already take more.
        assert peak < math.factorial(9) * 8

    @pytest.mark.parametrize("n", range(2, 10))
    def test_result_verifies(self, n):
        spec = CycleSpec(tuple(f"x{i + 1}" for i in range(n)))
        res = minimax_cycle_bound(spec)
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

    def test_verify_rejects_a_bound_no_distribution_reaches(self):
        # Three of the four rotations at 1/3 each attain 1/3, but 1/3 is not
        # optimal: the uniform dual proves 1/4.
        spec = CycleSpec(("x1", "x2", "x3", "x4"))
        rotations = rotation_mixture(spec)
        three = OrderDistribution(orders=rotations.orders[:3], probs=[F(1, 3)] * 3)
        assert max(violation_probabilities(three, spec)) == F(1, 3)
        assert not MinimaxBound(F(1, 3), three, spec).verify()
        assert MinimaxBound(F(1, 4), rotations, spec).verify()

    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_order_violates_a_cycle_edge(self, n):
        # The uniform dual's premise, from the pricing DP: with weight -1 on
        # each constraint's violation row, the best order scores -1.
        rows = [((i + 1) % n, i) for i in range(n)]
        assert OrderColumns(n, rows).best([-1] * n)[0] == -1

    def test_bound_at_forty_worlds(self):
        # Far past any LP over the orders: its pricing alone needs 2^40-entry
        # subset tables.
        spec = CycleSpec(tuple(f"x{i + 1}" for i in range(40)))
        start = time.perf_counter()
        res = minimax_cycle_bound(spec)
        assert res.bound == F(1, 40) and res.verify()
        assert time.perf_counter() - start < 1.0

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

    @pytest.mark.parametrize("n", range(2, 8))
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

    def test_a_cycle_needs_two_worlds(self):
        with pytest.raises(InvalidValueError, match="at least 2 worlds"):
            CycleSpec(("a",))
        with pytest.raises(InvalidValueError, match="at least 2 worlds"):
            rotation_mixture(1)

    def test_violations_need_the_cycle_worlds_ranked(self):
        spec = CycleSpec(("a", "b", "c"))
        d = rotation_mixture(CycleSpec(("a", "b", "d")))
        with pytest.raises(InvalidValueError, match="every world of the cycle"):
            violation_probabilities(d, spec)
        wider = rotation_mixture(CycleSpec(("a", "b", "c", "d")))
        assert violation_probabilities(wider, spec) == [F(1, 4), F(1, 4), F(1, 2)]


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
        # Small weights, so that many orders tie, then weights as large as
        # the simplex's integer dual numerators grow.
        for span in (2, 10**40):
            for _ in range(20 if n == 6 else 40):
                rows = [rng.choice(choices) for _ in range(rng.randint(1, n * n))]
                weights = [rng.randint(-span, span) for _ in rows]
                src = OrderColumns(n, rows)
                cols = [
                    [1 if r is None or o.index(r[0]) < o.index(r[1]) else 0 for r in rows]
                    for o in orders
                ]
                scores = [sum(w * v for w, v in zip(weights, col)) for col in cols]
                top = max(scores)
                assert src.best(weights) == (top, orders[scores.index(top)])
                for k in rng.sample(range(len(orders)), min(12, len(orders))):
                    assert src.column(orders[k]) == cols[k]


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


def _same_verdict_as_the_lp(m, lp, monkeypatch):
    """``exact_feasibility`` agrees with the membership LP's answer ``lp`` and
    verifies; it runs the library's LP, outside the dense comparison.  Returns
    whether a 3-cycle certificate answered."""
    with monkeypatch.context() as mp:
        mp.setattr(beliefs, "solve_lp", simplex.solve_lp)
        res = exact_feasibility(m)
    assert res.feasible == lp.feasible
    assert res.verify(m)
    want = first_triangle(m)
    if want is not None:
        assert res.certificate == want
    return want is not None


class TestDenseReference:
    # The membership LPs are solved through ``_membership_lp`` itself, since
    # ``exact_feasibility`` answers about a third of these matrices with a
    # 3-cycle certificate and never reaches the LP.

    def test_membership_matches_dense_simplex(self, dense_checked, monkeypatch):
        # 300 matrices, half marginals and half random entries; six at
        # n = 6, where the dense reference takes about a second per LP.
        sizes = [3, 4, 5] * 16 + [6]
        verdicts = set()
        triangles = 0
        for m in _seeded_matrices(2024, 300, sizes):
            lp = beliefs._membership_lp(m)
            assert lp.verify(m)
            verdicts.add(lp.feasible)
            triangles += _same_verdict_as_the_lp(m, lp, monkeypatch)
        assert verdicts == {True, False}
        assert len(dense_checked) == 300
        assert triangles == 112

    def test_minimax_matches_dense_simplex(self, dense_checked):
        # The closed form against the exact LP it replaced, which also keeps
        # the simplex's phase 2 with an explicit column (the level t) beside
        # the implicit order columns under the dense reference at n = 3..6.
        for n in range(2, 10):
            for worlds in (
                tuple(f"x{i + 1}" for i in range(n)),
                tuple(f"w{5 * i % 11}" for i in range(n)),  # not in sorted order
            ):
                spec = CycleSpec(worlds)
                dense = 3 <= n <= 6 and worlds[0] == "x1"
                bound, witness = minimax_lp(spec, beliefs.solve_lp if dense else simplex.solve_lp)
                res = minimax_cycle_bound(spec)
                assert (res.bound, res.witness) == (bound, witness)
        assert len(dense_checked) == 4

    def test_degenerate_ties_match_dense_simplex(self, dense_checked, monkeypatch):
        # These LPs meet about 580 ratio-test ties, each broken by the
        # lexicographic rule, so both solvers must break them alike.
        for m in _seeded_matrices(7, 60, [3, 4, 5]):
            lp = beliefs._membership_lp(m)
            assert lp.verify(m)
            _same_verdict_as_the_lp(m, lp, monkeypatch)
        assert len(dense_checked) == 60
        for n in range(3, 6):
            spec = CycleSpec(tuple(f"x{i + 1}" for i in range(n)))
            assert minimax_lp(spec, beliefs.solve_lp)[0] == F(1, n)
        assert len(dense_checked) == 63
