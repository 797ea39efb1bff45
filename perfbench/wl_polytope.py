"""Workload ``polytope``: a seeded stream of belief queries.

Exact polytope membership at n = 4..6 (half marginals of sparse random
distributions, which are feasible and return a witness; half random-entry
matrices, mostly infeasible, which return a Farkas certificate), the minimax
cycle bound at n = 5..6, exact and float-mode path scans, float-mode
marginals at n = 7..8, and the four decision rules on LP witnesses.

A round has about 250 tasks and takes about 5 s on one core of a 2-core
machine.  The mix puts the median in the middle of the sixty exact path
scans at n = 5 on marginals of a distribution (~7.5 ms each: a full scan
that finds nothing, so all cost nearly the same), so which of the seed's
membership LPs, or its path scans on random matrices (whose cost grows with
the violations they report), run a little faster or slower does not move it.
The p95 tail falls among the fourteen minimax LPs at n = 6 and float path
scans at n = 8 (~85 ms each), not on the two n = 6 membership LPs per round.
"""

from __future__ import annotations

import random
from fractions import Fraction

from uncertain_objectives import Verdict, beliefs, constraints, decisions

from common import (
    Task,
    Workload,
    check_farkas,
    count_paths,
    expect,
    marginals,
    spread_evenly,
)

HALF = Fraction(1, 2)

# (n, feasible-class matrices, random-entry matrices) per round
EXACT_PLAN = [(4, 10, 10), (5, 12, 12), (6, 1, 1)]
# witnesses that also go through the four decision rules, per n
DECIDE_PER_N = {4: 10, 5: 6, 6: 0}
# exact path scans: (n, feasible-class matrices, random-entry matrices) per round
PATH_EXACT_PLAN = [(5, 60, 20), (6, 3, 3)]
MINIMAX_PLAN = [(5, 14), (6, 8)]
FLOAT_PLAN = [(7, 10), (8, 6)]


def _worlds(n):
    return tuple(f"w{i}" for i in range(n))


def _sparse_distribution(rng, n):
    worlds = list(_worlds(n))
    support = rng.randint(2, 6)
    orders = set()
    while len(orders) < support:
        rng.shuffle(worlds)
        orders.add(tuple(worlds))
    orders = sorted(orders)
    weights = [rng.randint(1, 4) for _ in orders]
    total = sum(weights)
    return orders, [Fraction(w, total) for w in weights]


def _feasible_matrix(rng, n):
    orders, probs = _sparse_distribution(rng, n)
    worlds = _worlds(n)
    return beliefs.BeliefMatrix(worlds, marginals(orders, probs, worlds))


def _random_matrix(rng, n):
    den = rng.choice((4, 6))
    z = [[HALF] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(0, den), den)
            z[i][j] = v
            z[j][i] = 1 - v
    return beliefs.BeliefMatrix(_worlds(n), z)


def _float_distribution(rng, n):
    worlds = list(_worlds(n))
    orders = []
    for _ in range(rng.randint(8, 24)):
        rng.shuffle(worlds)
        orders.append(tuple(worlds))
    weights = [rng.random() + 0.05 for _ in orders]
    total = sum(weights)
    return beliefs.OrderDistribution(orders, [w / total for w in weights])


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _unanimity_order(dist):
    """Partial order where a beats b when every support order agrees."""
    worlds = dist.worlds
    support = [o for o, p in zip(dist.orders, dist.probs) if p > 0]
    pos = [{w: r for r, w in enumerate(o)} for o in support]
    pairs = {}
    for a in worlds:
        for b in worlds:
            if a != b and all(p[a] < p[b] for p in pos):
                pairs[(a, b)] = Verdict.GREATER
    return constraints.PartialOrder.from_pairs(worlds, pairs)


def _feasibility_task(m, slot, must_be_feasible):
    def check(res, ctx):
        z = [list(row) for row in m.z]
        if res.feasible:
            d = res.distribution
            expect(d is not None and d.is_exact, "feasible result without exact witness")
            got = beliefs.matrix_from_distribution(d, worlds=m.worlds)
            expect(got.z == m.z, "witness does not reproduce Z exactly")
            expect(marginals(d.orders, d.probs, m.worlds) == z, "witness marginals differ from Z")
            if slot is not None:
                ctx[slot] = (d, _unanimity_order(d))
        else:
            expect(not must_be_feasible, "marginals of a distribution reported infeasible")
            expect(res.certificate, "infeasible result without certificate")
            check_farkas(res.certificate, m.worlds, z)

    return Task("exact_feasibility", lambda ctx: beliefs.exact_feasibility(m), check)


def _prob_best_ref(dist, actions):
    acts = set(actions)
    out = {a: Fraction(0) for a in actions}
    for order, p in zip(dist.orders, dist.probs):
        for w in order:
            if w in acts:
                out[w] += p
                break
    return out


def _ranked(probs):
    return sorted(sorted(probs.items()), key=lambda kv: kv[1], reverse=True)


def _decision_tasks(slot, rng):
    delta = Fraction(rng.randint(0, 4), 8)
    tau = Fraction(rng.randint(1, 4), 8)
    seed = rng.randrange(1 << 30)
    policy = rng.choice(list(decisions.PartialPolicy))

    def actions(ctx):
        return ctx[slot][0].worlds

    def check_prob_best(out, ctx):
        d = ctx[slot][0]
        expect(out == _prob_best_ref(d, d.worlds), "prob_best differs from reference")
        expect(sum(out.values()) == 1, "prob_best does not sum to 1")

    def check_margin(out, ctx):
        d = ctx[slot][0]
        ranked = _ranked(_prob_best_ref(d, d.worlds))
        margin = ranked[0][1] - (ranked[1][1] if len(ranked) > 1 else 0)
        expect(out.margin == margin, "margin differs from reference")
        if margin >= delta:
            expect(out.kind is decisions.OutcomeKind.ACT and out.world == ranked[0][0],
                   "margin rule did not act on the leader")
        else:
            expect(out.kind is decisions.OutcomeKind.ABSTAIN, "margin rule acted below delta")

    def check_quantilized(out, ctx):
        d = ctx[slot][0]
        probs = _prob_best_ref(d, d.worlds)
        pool = [a for a, p in sorted(probs.items()) if p >= tau and p > 0]
        if pool:
            expect(out.kind is decisions.OutcomeKind.ACT and out.world in pool,
                   "quantilized rule picked outside the pool")
            expect(list(out.candidates) == pool, "quantilized pool differs")
        else:
            expect(out.kind is decisions.OutcomeKind.ABSTAIN, "quantilized rule acted on empty pool")

    def check_partial(out, ctx):
        po = ctx[slot][1]
        worlds = po.worlds
        maximal = tuple(
            a for a in worlds
            if not any(po.verdict(a, b) is Verdict.LESS for b in worlds if b != a)
        )
        expect(tuple(out.candidates) == maximal, "maximal set differs from reference")
        if len(maximal) == 1:
            expect(out.world == maximal[0], "unique maximal action not chosen")
        elif policy is decisions.PartialPolicy.ABSTAIN:
            expect(out.kind is decisions.OutcomeKind.ABSTAIN, "abstain policy not applied")
        elif policy is decisions.PartialPolicy.RANDOM_AMONG_MAXIMAL:
            expect(out.world in maximal, "random pick outside the maximal set")
        else:
            expect(out.kind is decisions.OutcomeKind.TIE, "tie policy not applied")

    return [
        Task("prob_best", lambda ctx: decisions.prob_best(ctx[slot][0], actions(ctx)),
             check_prob_best),
        Task("decide_margin", lambda ctx: decisions.decide_margin(ctx[slot][0], actions(ctx), delta),
             check_margin),
        Task("decide_quantilized",
             lambda ctx: decisions.decide_quantilized(ctx[slot][0], actions(ctx), tau, seed),
             check_quantilized),
        Task("decide_partial",
             lambda ctx: decisions.decide_partial(ctx[slot][1], actions(ctx), policy, seed),
             check_partial),
    ]


def _minimax_task(n):
    spec = beliefs.CycleSpec(tuple(f"x{i + 1}" for i in range(n)))

    def violation(dist):
        worst = Fraction(0)
        for better, worse in spec.constraint_pairs():
            mass = sum(
                (p for o, p in zip(dist.orders, dist.probs) if o.index(worse) < o.index(better)),
                Fraction(0),
            )
            worst = max(worst, mass)
        return worst

    def check(res, ctx):
        expect(res.bound == Fraction(1, n), f"minimax bound {res.bound} != 1/{n}")
        expect(violation(res.witness) == res.bound, "LP witness does not attain the bound")
        expect(violation(beliefs.rotation_mixture(spec)) == Fraction(1, n),
               "rotation mixture does not attain 1/n")

    return Task("minimax_cycle_bound", lambda ctx: beliefs.minimax_cycle_bound(spec), check)


def _path_exact_task(m, coherent):
    n = len(m.worlds)

    def check(out, ctx):
        if coherent:
            expect(out == [], "path violations on the marginals of a distribution")
        for pv in out:
            idx = [m.index(w) for w in pv.path]
            chain = [m.z[idx[s]][idx[s + 1]] for s in range(len(idx) - 1)]
            lower = max(Fraction(0), 1 - sum(1 - z for z in chain))
            upper = min(Fraction(1), sum(chain))
            span = m.z[idx[0]][idx[-1]]
            expect(len(set(idx)) == len(idx) and len(idx) >= 3, "reported path is not simple")
            expect((pv.lower, pv.upper, pv.span) == (lower, upper, span), "path bounds differ")
            expect(span < lower or span > upper, "reported path does not violate its bound")
        expect(len(out) <= count_paths(n, n), "more violations than paths")

    return Task("path_exact", lambda ctx: beliefs.check_path_coherence(m), check)


def _float_tasks(dist, slot):
    n = len(dist.worlds)
    worlds = dist.worlds

    def check_matrix(m, ctx):
        ref = [[0.0] * n for _ in range(n)]
        idx = {w: i for i, w in enumerate(worlds)}
        for order, p in zip(dist.orders, dist.probs):
            for a in range(n):
                for b in range(a + 1, n):
                    ref[idx[order[a]]][idx[order[b]]] += p
        for i in range(n):
            for j in range(n):
                want = 0.5 if i == j else ref[i][j]
                expect(abs(m.z[i][j] - want) <= 1e-9, "float marginal differs from reference")
        ctx[slot] = m

    def check_path(out, ctx):
        expect(out == [], "float path violations on the marginals of a distribution")

    return [
        Task("matrix_float", lambda ctx: beliefs.matrix_from_distribution(dist), check_matrix),
        Task("path_float", lambda ctx: beliefs.check_path_coherence(ctx[slot]), check_path),
    ]


def build(seed: int) -> Workload:
    rng = random.Random(f"polytope:{seed}")
    classes: list[list[list[Task]]] = []
    slots = 0

    def new_slot():
        nonlocal slots
        slots += 1
        return f"slot{slots}"

    for n, n_feasible, n_random in EXACT_PLAN:
        # An n = 6 membership LP takes 0.4-4 s depending on the matrix, so
        # drawing the two per round from the run seed would swing the round
        # time by a fifth between seeds; they come from a fixed stream.
        mrng = random.Random("polytope:n6") if n == 6 else rng
        groups = []
        for i in range(n_feasible):
            slot = new_slot() if i < DECIDE_PER_N[n] else None
            group = [_feasibility_task(_feasible_matrix(mrng, n), slot, True)]
            if slot is not None:
                group += _decision_tasks(slot, rng)
            groups.append(group)
        classes.append(groups)
        classes.append(
            [[_feasibility_task(_random_matrix(mrng, n), None, False)] for _ in range(n_random)]
        )
    for n, count in MINIMAX_PLAN:
        classes.append([[_minimax_task(n)] for _ in range(count)])
    for n, n_feasible, n_random in PATH_EXACT_PLAN:
        classes.append(
            [[_path_exact_task(_feasible_matrix(rng, n), True)] for _ in range(n_feasible)]
        )
        classes.append(
            [[_path_exact_task(_random_matrix(rng, n), False)] for _ in range(n_random)]
        )
    for n, count in FLOAT_PLAN:
        classes.append([_float_tasks(_float_distribution(rng, n), new_slot()) for _ in range(count)])
    round_ = spread_evenly(rng, classes)

    # One small task of each kind, producers before consumers.
    wslot = new_slot()
    fslot = new_slot()
    warmup = (
        [_feasibility_task(_feasible_matrix(rng, 4), wslot, True)]
        + _decision_tasks(wslot, rng)
        + [
            _feasibility_task(_random_matrix(rng, 4), None, False),
            _minimax_task(4),
            _path_exact_task(_random_matrix(rng, 4), False),
        ]
        + _float_tasks(_float_distribution(rng, 5), fslot)
    )
    return Workload(round=round_, warmup=warmup)
