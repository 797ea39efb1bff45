import random
from fractions import Fraction as F

import pytest

from uncertain_objectives import simplex
from uncertain_objectives.beliefs import OrderColumns
from uncertain_objectives.errors import InvalidValueError, PivotCapError, UncertainObjectivesError
from uncertain_objectives.simplex import solve_lp

from conftest import dense_solve_lp, reference_solve_lp


def solve(**lp):
    """``solve_lp``, checked against the dense reference simplex: same
    status, x, objective, certificate and pivot count."""
    res = solve_lp(**lp)
    ref = reference_solve_lp(**lp)
    assert (res.status, res.x, res.objective, res.certificate, res.pivots) == (
        ref.status, ref.x, ref.objective, ref.certificate, ref.pivots
    )
    return res


def test_simple_minimization():
    # min x + 2y  s.t.  x + y >= 1 (as -x - y <= -1), x,y >= 0 -> x=1, y=0
    res = solve(c=[F(1), F(2)], a_ub=[[F(-1), F(-1)]], b_ub=[F(-1)])
    assert res.status == "optimal"
    assert res.objective == 1
    assert res.x == [F(1), F(0)]


def test_equality_constraints():
    # min 3x + y  s.t.  x + y = 2, x - y = 0 -> x = y = 1
    res = solve(
        c=[F(3), F(1)],
        a_eq=[[F(1), F(1)], [F(1), F(-1)]],
        b_eq=[F(2), F(0)],
    )
    assert res.status == "optimal"
    assert res.x == [F(1), F(1)]
    assert res.objective == 4


def test_exact_rational_optimum():
    # min -x  s.t.  3x <= 1  -> x = 1/3 exactly
    res = solve(c=[F(-1)], a_ub=[[F(3)]], b_ub=[F(1)])
    assert res.x == [F(1, 3)]
    assert res.objective == F(-1, 3)


def test_fractional_coefficients_and_negative_rhs():
    # min x + y  s.t.  x/2 + y/3 >= 1 (as -x/2 - y/3 <= -1),  x - y = -1/2
    res = solve(
        c=[F(1), F(1)],
        a_ub=[[F(-1, 2), F(-1, 3)]],
        b_ub=[F(-1)],
        a_eq=[[F(1), F(-1)]],
        b_eq=[F(-1, 2)],
    )
    assert res.status == "optimal"
    assert res.x == [F(1), F(3, 2)]
    assert res.objective == F(5, 2)


def test_ragged_constraint_row_is_refused():
    with pytest.raises(InvalidValueError, match="row length does not match"):
        solve_lp(c=[F(1), F(1)], a_ub=[[F(1), F(0)]], a_eq=[[F(1)]], b_ub=[F(1)], b_eq=[F(1)])


def test_unbounded():
    res = solve(c=[F(-1)], a_ub=[[F(-1)]], b_ub=[F(0)])
    assert res.status == "unbounded"


def test_infeasible_with_farkas_certificate():
    # x >= 2 and x <= 1 cannot hold together.
    a_ub = [[F(-1)], [F(1)]]
    b_ub = [F(-2), F(1)]
    res = solve(c=[F(0)], a_ub=a_ub, b_ub=b_ub)
    assert res.status == "infeasible"
    y = res.certificate
    # y_ub <= 0, y.A <= 0 componentwise, y.b > 0
    assert all(yi <= 0 for yi in y)
    combo = sum(yi * row[0] for yi, row in zip(y, a_ub))
    assert combo <= 0
    assert sum(yi * bi for yi, bi in zip(y, b_ub)) > 0


def test_infeasible_equalities_certificate():
    # x + y = 1 and x + y = 2.
    a_eq = [[F(1), F(1)], [F(1), F(1)]]
    b_eq = [F(1), F(2)]
    res = solve(c=[F(0), F(0)], a_eq=a_eq, b_eq=b_eq)
    assert res.status == "infeasible"
    y = res.certificate
    for j in range(2):
        assert sum(y[i] * a_eq[i][j] for i in range(2)) <= 0
    assert sum(y[i] * b_eq[i] for i in range(2)) > 0


def test_redundant_equalities():
    # Duplicate rows must not break phase 2.
    res = solve(
        c=[F(1), F(1)],
        a_eq=[[F(1), F(1)], [F(2), F(2)]],
        b_eq=[F(1), F(2)],
    )
    assert res.status == "optimal"
    assert res.objective == 1


def test_degenerate_problem_terminates():
    # Highly degenerate: many duplicate constraints through the origin.
    n = 6
    a_ub = [[F(1)] * n for _ in range(8)]
    b_ub = [F(1)] * 8
    res = solve(c=[F(-1)] * n, a_ub=a_ub, b_ub=b_ub)
    assert res.status == "optimal"
    assert res.objective == -1


def test_beales_cycling_lp_terminates():
    # Beale's LP cycles under Dantzig's rule when ratio ties go to the
    # smaller basic id; the lexicographic ratio test leaves it in 2 pivots.
    res = solve(
        c=[F(-3, 4), F(20), F(-1, 2), F(6)],
        a_ub=[
            [F(1, 4), F(-8), F(-1), F(9)],
            [F(1, 2), F(-12), F(-1, 2), F(3)],
            [F(0), F(0), F(1), F(0)],
        ],
        b_ub=[F(0), F(0), F(1)],
    )
    assert res.status == "optimal"
    assert res.objective == F(-5, 4)
    assert res.x == [F(1), F(0), F(1), F(0)]
    assert res.pivots <= 5


def test_artificial_left_basic_leaves_on_a_negative_entry():
    # min -y  s.t.  x <= 0,  -x - y = 0.  The equality's artificial starts at
    # zero and neither x nor y has a negative phase-1 reduced cost, so phase
    # 1 ends with it basic.  y enters phase 2 with entry -1 in its row: were
    # that row left to the ratio test, the artificial would grow with y and
    # the LP would read unbounded.
    res = solve(
        c=[F(0), F(-1)], a_ub=[[F(1), F(0)]], b_ub=[F(0)], a_eq=[[F(-1), F(-1)]], b_eq=[F(0)]
    )
    assert res.status == "optimal"
    assert res.x == [F(0), F(0)]
    assert -res.x[0] - res.x[1] == 0
    assert res.objective == 0


def test_ratio_ties_after_an_artificial_leaves_use_the_new_basis():
    # Phase 1 ends with artificials basic; in phase 2 one leaves on a
    # negative entry, and the ratio ties that follow are broken against the
    # basis after that pivot, as the dense reference breaks them.  Against
    # the basis phase 2 started from they would take 6 pivots, not 7.
    res = solve(
        c=[F(-1), F(0), F(0), F(0), F(1), F(0)],
        a_eq=[
            [F(2), F(0), F(1), F(0), F(1), F(0)],
            [F(1), F(1), F(0), F(2), F(-1), F(0)],
            [F(0), F(0), F(-2), F(0), F(1), F(-2)],
            [F(0), F(-1), F(1), F(0), F(1), F(1)],
        ],
        b_eq=[F(0)] * 4,
    )
    assert res.status == "optimal"
    assert res.x == [F(0)] * 6
    assert res.pivots == 7


def test_ratio_ties_reach_the_last_column_of_the_segment_start():
    # A tie that only the last column of B^-1 S breaks: a ratio test that
    # stops one column short takes 6 pivots here, not 7.
    res = solve(
        c=[F(0), F(0), F(-2), F(2), F(1)],
        a_ub=[[F(0), F(-2), F(-1), F(1), F(-1)], [F(-2), F(1), F(0), F(1), F(2)]],
        b_ub=[F(-1), F(0)],
        a_eq=[
            [F(-1), F(1), F(0), F(-1), F(-1)],
            [F(1), F(0), F(1), F(-1), F(0)],
            [F(1), F(-1), F(0), F(2), F(0)],
        ],
        b_eq=[F(0), F(2), F(0)],
    )
    assert res.status == "optimal"
    assert res.objective == -4
    assert res.x == [F(0), F(0), F(2), F(0), F(0)]
    assert res.pivots == 7


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def degenerate_lps():
    """400 small seeded LPs with mostly zero right-hand sides."""
    rng = random.Random(1)
    for _ in range(400):
        n = rng.randint(2, 5)
        entry = lambda: F(rng.choice([-2, -1, 0, 0, 1, 1, 2]))
        a_ub = [[entry() for _ in range(n)] for _ in range(rng.randint(0, 3))]
        b_ub = [F(rng.choice([0, 0, 0, 1, -1])) for _ in a_ub]
        a_eq = [[entry() for _ in range(n)] for _ in range(rng.randint(1, 3))]
        b_eq = [F(rng.choice([0, 0, 1, 2])) for _ in a_eq]
        c = [entry() for _ in range(n)]
        yield dict(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


def test_random_degenerate_lps_match_dense_simplex():
    # These LPs meet about 220 ratio ties, 13 of them in phase 2 (12 against
    # a segment start other than the identity basis).  16 artificials that
    # phase 1 leaves basic at zero leave in phase 2, 15 on a negative entry.
    seen = set()
    for lp in degenerate_lps():
        res = solve(**lp)
        seen.add(res.status)
        c, a_ub, b_ub, a_eq, b_eq = lp.values()
        if res.status == "optimal":
            x = res.x
            assert min(x) >= 0
            assert all(dot(row, x) <= v for row, v in zip(a_ub, b_ub))
            assert all(dot(row, x) == v for row, v in zip(a_eq, b_eq))
            assert res.objective == dot(c, x)
        elif res.status == "infeasible":
            y = res.certificate
            assert all(v <= 0 for v in y[: len(a_ub)])
            for j in range(len(c)):
                assert sum(yi * row[j] for yi, row in zip(y, a_ub + a_eq)) <= 0
            assert dot(y, b_ub + b_eq) > 0
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_random_degenerate_optima_equal_their_duals():
    # Strong duality holds whatever the pivot rule.  The dual of each optimal
    # LP,  max b.y  s.t.  y.A <= c,  y_ub <= 0,  is solved as a minimisation
    # over nonnegative u = -y_ub, v and w, with y_eq = v - w.
    optimal = 0
    for lp in degenerate_lps():
        res = solve_lp(**lp)
        if res.status != "optimal":
            continue
        c, a_ub, b_ub, a_eq, b_eq = lp.values()
        dual = solve_lp(
            c=[*b_ub, *(-b for b in b_eq), *b_eq],
            a_ub=[
                [-row[j] for row in a_ub] + [row[j] for row in a_eq] + [-row[j] for row in a_eq]
                for j in range(len(c))
            ],
            b_ub=c,
        )
        assert dual.status == "optimal"
        assert -dual.objective == res.objective
        optimal += 1
    assert optimal == 120


MIXED = [F(0), F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2, 3), F(-2, 3), F(3, 4), F(-3, 4),
         F(5, 6), F(-5, 6)]


def all_fractions(res):
    numbers = [*(res.x or ()), *(res.certificate or ()), *(p for _, p in res.support or ())]
    if res.objective is not None:
        numbers.append(res.objective)
    return all(type(v) is F for v in numbers)


def test_mixed_denominator_lps_match_dense_simplex():
    # Objective, rows and right-hand sides over denominators 2, 3, 4 and 6,
    # so the solver scales each of them to integers differently.
    rng = random.Random(19)
    seen = set()
    for _ in range(300):
        n = rng.randint(2, 4)
        a_ub = [[rng.choice(MIXED) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        b_ub = [rng.choice(MIXED) for _ in a_ub]
        a_eq = [[rng.choice(MIXED) for _ in range(n)] for _ in range(rng.randint(1, 2))]
        b_eq = [rng.choice(MIXED) for _ in a_eq]
        c = [rng.choice(MIXED) for _ in range(n)]
        res = solve(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        seen.add(res.status)
        assert all_fractions(res)
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_mixed_denominator_lps_with_order_columns_match_dense_simplex():
    # The same, next to implicit order columns: support probabilities too.
    rng = random.Random(20)
    seen = set()
    for _ in range(120):
        worlds = rng.randint(3, 4)
        pairs = [(a, b) for a in range(worlds) for b in range(worlds) if a != b]
        rows = rng.sample(pairs, rng.randint(1, 3)) + [None]
        n_ub = rng.randint(0, len(rows) - 1)
        n = rng.randint(1, 2)
        a = [[rng.choice(MIXED) for _ in range(n)] for _ in rows]
        b = [abs(rng.choice(MIXED)) for _ in rows[:-1]] + [F(1)]
        lp = dict(
            c=[rng.choice(MIXED) for _ in range(n)],
            a_ub=a[:n_ub], b_ub=b[:n_ub], a_eq=a[n_ub:], b_eq=b[n_ub:],
            implicit=OrderColumns(worlds, rows),
        )
        res = solve_lp(**lp)
        ref = dense_solve_lp(**lp)
        assert (res.status, res.x, res.objective, res.certificate, res.pivots, res.support) == (
            ref.status, ref.x, ref.objective, ref.certificate, ref.pivots, ref.support
        )
        seen.add(res.status)
        assert all_fractions(res)
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_order_columns_on_rows_with_negative_right_hand_sides_match_dense_simplex():
    # A row whose right-hand side is negative is negated, and so are the
    # order columns' entries in it: their images add stored columns of the
    # inverse with sign -1.
    rng = random.Random(21)
    seen = set()
    for _ in range(120):
        worlds = rng.randint(3, 4)
        pairs = [(a, b) for a in range(worlds) for b in range(worlds) if a != b]
        rows = rng.sample(pairs, rng.randint(1, 3)) + [None]
        n_ub = rng.randint(0, len(rows) - 1)
        n = rng.randint(1, 2)
        a = [[rng.choice(MIXED) for _ in range(n)] for _ in rows]
        b = [-abs(rng.choice(MIXED)) for _ in rows[:-1]] + [rng.choice((F(1), F(-1)))]
        lp = dict(
            c=[rng.choice(MIXED) for _ in range(n)],
            a_ub=a[:n_ub], b_ub=b[:n_ub], a_eq=a[n_ub:], b_eq=b[n_ub:],
            implicit=OrderColumns(worlds, rows),
        )
        res = solve_lp(**lp)
        ref = dense_solve_lp(**lp)
        assert (res.status, res.x, res.objective, res.certificate, res.pivots, res.support) == (
            ref.status, ref.x, ref.objective, ref.certificate, ref.pivots, ref.support
        )
        seen.add((res.status, bool(res.support)))
    assert seen >= {("optimal", True), ("infeasible", False), ("unbounded", False)}


class PairColumns:
    """A column source with only ``column`` and ``best``: one column per
    two-letter key, covering the two ub rows its letters name (a, b, c)
    and the eq row.  Ties go to the smallest key, as they go to the
    smallest id in the dense reference."""

    keys = ("ab", "bc", "ca")

    def column(self, key):
        return [int(r in key) for r in "abc"] + [1]

    def best(self, weights):
        scores = {k: sum(w * v for w, v in zip(weights, self.column(k))) for k in self.keys}
        key = max(self.keys, key=scores.get)
        return scores[key], key


def test_implicit_columns_are_named_by_their_keys():
    # min t  s.t.  each letter's covering mass <= t, total mass 1.  Every
    # key covers two of three letters, so the loads sum to 2 and t >= 2/3;
    # the loads all equal 2/3 only when every key carries 1/3.
    lp = dict(c=[F(1)], a_ub=[[F(-1)]] * 3, b_ub=[F(0)] * 3, a_eq=[[F(0)]], b_eq=[F(1)])
    res = solve_lp(**lp, implicit=PairColumns())
    assert res.status == "optimal"
    assert res.objective == F(2, 3) and res.x == [F(2, 3)]
    assert res.support == [("ab", F(1, 3)), ("bc", F(1, 3)), ("ca", F(1, 3))]
    # The dense reference, with the keys' columns written out first in key
    # order, takes the same pivots.
    cols = [PairColumns().column(k) for k in PairColumns.keys]
    ref = reference_solve_lp(
        c=[0, 0, 0, 1],
        a_ub=[[col[i] for col in cols] + [-1] for i in range(3)], b_ub=[0] * 3,
        a_eq=[[1, 1, 1, 0]], b_eq=[1],
    )
    assert (ref.x, ref.objective, ref.pivots) == ([F(1, 3)] * 3 + res.x, res.objective, res.pivots)


def test_pivot_cap_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(simplex, "_MAX_PIVOTS", 1)
    with pytest.raises(PivotCapError, match="cap of 1 pivots") as err:
        solve_lp(c=[F(3), F(1)], a_eq=[[F(1), F(1)], [F(1), F(-1)]], b_eq=[F(2), F(0)])
    assert err.value.cap == 1
    assert isinstance(err.value, UncertainObjectivesError)
