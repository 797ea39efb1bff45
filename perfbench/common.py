"""Shared pieces of the benchmark: tasks, output checks and exact helpers.

A *task* is one call into a public library function (or one ``cli.main``
call) that returns one answer.  ``call`` is what gets timed; ``check`` runs
afterwards, outside the timed region, and raises ``CheckFailed`` when the
answer is wrong.  Tasks share a per-run ``ctx`` dict: a task that produces an
input for a later one (a witness for the decision rules, a float matrix for
the path scan) stores it there from its check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable


class CheckFailed(Exception):
    """A task returned, but its output is wrong."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Task:
    kind: str
    call: Callable[[dict], Any]
    check: Callable[[Any, dict], None]
    # Extra work counters derived from the output (e.g. report bytes); only
    # read in the traced run.
    counts: Callable[[Any], dict] | None = None


@dataclass
class Probe:
    """A task that fails at the seed commit; run once, outside the timed loop.

    ``check`` validates an answer if the call ever returns one.
    """

    name: str
    seed_failure: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Workload:
    round: list[Task]
    warmup: list[Task]
    probes: list[Probe] = field(default_factory=list)
    cleanup: Callable[[], None] | None = None


def spread_evenly(rng, groups_by_class: list[list[list[Task]]]) -> list[Task]:
    """Interleave task groups so every class is spread evenly over the round.

    Group g of a class with m groups sits near position (g + 1/2) / m, with a
    small seeded jitter, so a run that ends part-way through a round sees
    every class in proportion.  A group (a producer and the tasks that
    consume its output) stays contiguous.
    """
    keyed = []
    for ci, groups in enumerate(groups_by_class):
        m = len(groups)
        for gi, group in enumerate(groups):
            pos = (gi + 0.5 + rng.uniform(-0.2, 0.2)) / m
            keyed.append((pos, ci, gi, group))
    keyed.sort(key=lambda k: k[:3])
    return [t for *_, group in keyed for t in group]


# ---------------------------------------------------------------------------
# Exact helpers used by the checks (independent of the library's code paths)
# ---------------------------------------------------------------------------

def marginals(orders, probs, worlds) -> list[list[Fraction]]:
    """Pairwise marginals Z(a, b) = P(a ranked above b), diagonal 1/2."""
    n = len(worlds)
    idx = {w: i for i, w in enumerate(worlds)}
    z = [[Fraction(1, 2) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for order, p in zip(orders, probs):
        ranks = [idx[w] for w in order]
        for a in range(n):
            for b in range(a + 1, n):
                z[ranks[a]][ranks[b]] += p
    return z


def check_farkas(certificate: dict, worlds, z) -> None:
    """Verify Farkas multipliers of the membership LP against all n! orders.

    Rows are "above(a,b)" for a before b in ``worlds`` (mass of orders ranking
    a above b equals Z(a, b)) and "total" (mass sums to 1).  A valid
    certificate has y.A <= 0 on every order's column and y.b > 0.
    """
    n = len(worlds)
    idx = {w: i for i, w in enumerate(worlds)}
    pair_y = {}
    total_y = Fraction(0)
    for label, y in certificate.items():
        y = Fraction(y)
        if label == "total":
            total_y = y
            continue
        expect(label.startswith("above(") and label.endswith(")"), f"unknown row {label!r}")
        a, b = label[6:-1].split(",")
        i, j = idx[a], idx[b]
        expect(i < j, f"row {label!r} is not an upper-triangle pair")
        pair_y[(i, j)] = y
    yb = total_y + sum(y * z[i][j] for (i, j), y in pair_y.items())
    expect(yb > 0, f"Farkas y.b = {yb} is not positive")
    for order in itertools.permutations(range(n)):
        pos = [0] * n
        for r, w in enumerate(order):
            pos[w] = r
        col = total_y + sum(y for (i, j), y in pair_y.items() if pos[i] < pos[j])
        expect(col <= 0, f"Farkas column for order {order} is {col} > 0")


def count_paths(n: int, limit: int) -> int:
    """Simple paths of 3..limit worlds in a complete digraph on n worlds."""
    total = 0
    for k in range(3, limit + 1):
        p = 1
        for i in range(k):
            p *= n - i
        total += p
    return total


def reach_sets(n: int, edges) -> list[set[int]]:
    """Transitive closure of (u, v) index pairs by DFS from every node."""
    out = [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
    reach = []
    for s in range(n):
        seen = set()
        stack = list(out[s])
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(out[x])
        reach.append(seen)
    return reach


def pattern_valid_ref(n: int, edges, removed) -> bool:
    """Reference validity: kept closure acyclic, removed endpoints incomparable."""
    removed = set(removed)
    kept = [e for i, e in enumerate(edges) if i not in removed]
    reach = reach_sets(n, kept)
    if any(i in reach[i] for i in range(n)):
        return False
    for i in removed:
        u, v = edges[i]
        if v in reach[u] or u in reach[v]:
            return False
    return True
