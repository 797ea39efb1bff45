"""Workload ``audit``: bounded SWF audits on seeded small grids.

Every task is one ``audit_swf`` call.  The families cover all ten axioms and
the ``total``, ``average`` and ``critical:<c>`` welfare functions.  Each
family's grid is drawn so that its outcome is known in advance:

* clean audits search the whole grid and must find nothing, by a theorem
  about the SWF (a larger total at equal size, or a strictly happier equal
  population, is never ranked lower, and so on);
* witness audits use grids that contain a violation by construction, stop
  at the first one, and must return a witness that replays and that an
  independent re-scoring confirms.

Most audits are sub-millisecond; the ~85 ms clean dominance audits set the
tail.
"""

from __future__ import annotations

import random
from fractions import Fraction

from uncertain_objectives import axioms, populations
from uncertain_objectives.axioms import AxiomId

from common import Task, Workload, expect, spread_evenly


def _levels(rng, n_pos, neg=(-9, -1), pos=(1, 12)):
    positives = sorted(rng.sample(range(pos[0], pos[1] + 1), n_pos))
    return [rng.randint(*neg)] + positives


def _grid_any(rng, n_levels, max_count):
    return axioms.SearchBounds(levels=_levels(rng, n_levels - 1), max_count=max_count)


def _grid_priority(rng):
    # very_high + most negative level > very_low, so one created life always
    # compensates and the existential claim never fails.
    lv = [rng.randint(-4, -1), rng.randint(1, 3), rng.randint(4, 7), rng.randint(8, 12)]
    return axioms.SearchBounds(levels=lv, max_count=4)


def _grid_repugnant_witness(rng):
    lv = _levels(rng, 3)
    vl, vh = lv[1], lv[-1]
    # a crowd of max_count lives at very_low outscores one life at very_high
    return axioms.SearchBounds(levels=lv, max_count=vh // vl + 1 + rng.randint(0, 3))


def _grid_lower_critical(rng):
    lv = _levels(rng, 3)
    return axioms.SearchBounds(levels=lv, max_count=3), lv[1] + 1


def _grid_inequality(rng):
    # c < b < a with 3b < a + 2c: one life at a and two at c beat three at b.
    c = rng.randint(-3, 4)
    lv = sorted({c, c + 1, c + 5 + rng.randint(0, 4), c + 10 + rng.randint(0, 3)})
    return axioms.SearchBounds(levels=lv, max_count=4)


def _score(swf_text, pop):
    total = sum((level * count for level, count in pop.groups), Fraction(0))
    size = sum(count for _, count in pop.groups)
    if swf_text == "total":
        return total
    if swf_text == "average":
        return total / size
    c = Fraction(swf_text.split(":", 1)[1])
    return total - c * size


def _audit_task(swf_text, axiom, bounds, witness_expected):
    swf = populations.parse_swf(swf_text)

    def check(w, ctx):
        if not witness_expected:
            expect(w is None, f"{swf_text} reported violating {axiom.value}")
            return
        expect(w is not None, f"{swf_text} found no {axiom.value} violation in a grid with one")
        expect(w.axiom is axiom and w.swf == swf, "witness names another audit")
        expect(w.replay() is True, "witness does not replay")
        inst = w.instance
        if inst.gate is None:
            worse = _score(swf_text, inst.world(inst.claim_worse).population)
            better = _score(swf_text, inst.world(inst.claim_better).population)
            expect(worse > better or (inst.strict and worse == better),
                   "re-scoring does not confirm the violation")

    return Task(f"audit:{axiom.value}", lambda ctx: axioms.audit_swf(swf, axiom, bounds), check)


def _crit(rng):
    return f"critical:{rng.randint(1, 6)}"


def _any_swf(rng):
    return rng.choice(["total", "average", _crit(rng)])


def _lower_critical(rng):
    bounds, c = _grid_lower_critical(rng)
    return f"critical:{c}", AxiomId.DOMINANCE_ADDITION, bounds, True


# (per round, rng -> (swf, axiom, bounds, witness expected)).  About 200
# audits per round; the p95 tail falls among the 28 audits of ~85 ms
# (dominance, sadistic and average dominance-addition), above which sit only
# the four clean total addition and dominance-addition audits.
FAMILIES = [
    (20, lambda r: (_any_swf(r), AxiomId.DOMINANCE, _grid_any(r, 5, 3), False)),
    (4, lambda r: ("total", AxiomId.AVOID_SADISTIC, _grid_any(r, 5, 4), False)),
    (2, lambda r: ("total", AxiomId.DOMINANCE_ADDITION, _grid_any(r, 4, 2), False)),
    (2, lambda r: ("total", AxiomId.ADDITION, _grid_any(r, 4, 3), False)),
    (24, lambda r: (_any_swf(r), AxiomId.EGALITARIAN_DOMINANCE, _grid_any(r, 5, 4), False)),
    (24, lambda r: (_any_swf(r), AxiomId.AVOID_VERY_ANTI_EGALITARIAN, _grid_any(r, 5, 4), False)),
    (12, lambda r: ("average", AxiomId.AVOID_REPUGNANT, _grid_any(r, 5, 6), False)),
    (24, lambda r: (r.choice(["total", "average"]), AxiomId.QUALITY, _grid_any(r, 5, 6), False)),
    (16, lambda r: ("total", AxiomId.PRIORITY_COMPENSATION, _grid_priority(r), False)),
    # witness audits: stop at the first violation
    (4, lambda r: ("average", AxiomId.DOMINANCE_ADDITION, _grid_any(r, 4, 3), True)),
    (24, lambda r: ("total", AxiomId.AVOID_REPUGNANT, _grid_repugnant_witness(r), True)),
    (24, _lower_critical),
    (24, lambda r: (r.choice(["total", "average"]), AxiomId.INEQUALITY_AVERSION,
                    _grid_inequality(r), True)),
]


def build(seed: int) -> Workload:
    rng = random.Random(f"audit:{seed}")
    classes = [[[_audit_task(*make(rng))] for _ in range(count)] for count, make in FAMILIES]
    round_ = spread_evenly(rng, classes)
    # One small audit per axiom, each with its known outcome.
    warmup = [
        _audit_task("total", axiom, _grid_any(rng, 3, 2), False)
        for axiom in (AxiomId.DOMINANCE, AxiomId.EGALITARIAN_DOMINANCE,
                      AxiomId.AVOID_VERY_ANTI_EGALITARIAN, AxiomId.AVOID_SADISTIC,
                      AxiomId.DOMINANCE_ADDITION, AxiomId.ADDITION, AxiomId.QUALITY)
    ] + [
        _audit_task("average", AxiomId.AVOID_REPUGNANT, _grid_any(rng, 3, 2), False),
        _audit_task("total", AxiomId.PRIORITY_COMPENSATION, _grid_priority(rng), False),
        _audit_task("total", AxiomId.INEQUALITY_AVERSION, _grid_inequality(rng), True),
    ]
    return Workload(round=round_, warmup=warmup)
