"""Constraint graphs, impossibility cycles, and minimal uncertainty patterns.

A constraint graph records directed "must be at least as good" requirements
between named worlds.  A directed cycle is an impossibility certificate: no
total order can satisfy every edge.  The escape hatch studied here is to
designate a subset of edges as only *uncertainly* satisfied - their endpoints
become incomparable - and ask how small that subset can be.

"Uncertainly satisfied" is formalized against the least consistent partial
order: the transitive closure of the kept edges.  A pattern U is valid when
that closure is cycle-free and forces neither direction between the endpoints
of any removed edge.  For every graph containing a cycle the minimum valid
pattern size is 2, never 1: dropping a single cycle edge leaves the rest of
the cycle forcing a comparison between its endpoints, which contradicts their
required incomparability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import _kernels
from .errors import BudgetExceededError, InvalidPatternError, WorldLimitError
from .ordering import Verdict


@dataclass(frozen=True)
class Edge:
    """Directed requirement: ``better`` must be at least as good as ``worse``."""

    worse: str
    better: str
    label: str


@dataclass(frozen=True)
class ConstraintGraph:
    worlds: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        seen = set()
        for w in self.worlds:
            if w in seen:
                raise ValueError(f"duplicate world id {w!r}")
            seen.add(w)
        for e in self.edges:
            if e.worse == e.better:
                raise ValueError(f"self-loop on {e.worse!r} (edge {e.label!r})")
            if e.worse not in seen or e.better not in seen:
                raise ValueError(f"edge {e.label!r} references undeclared world")

    @classmethod
    def from_edges(cls, edges, worlds=None) -> "ConstraintGraph":
        edges = tuple(
            e if isinstance(e, Edge) else Edge(e[0], e[1], e[2] if len(e) > 2 else f"C{i+1}")
            for i, e in enumerate(edges)
        )
        if worlds is None:
            worlds = tuple(sorted({w for e in edges for w in (e.worse, e.better)}))
        return cls(tuple(worlds), edges)

    def index(self, world_id: str) -> int:
        return self.worlds.index(world_id)

    def bit_rows(self, skip: frozenset[int] = frozenset()) -> list[int]:
        """Adjacency as per-node successor bitmasks, omitting ``skip`` edges."""
        idx = {w: i for i, w in enumerate(self.worlds)}
        rows = [0] * len(self.worlds)
        for i, e in enumerate(self.edges):
            if i not in skip:
                rows[idx[e.worse]] |= 1 << idx[e.better]
        return rows

    def labels(self, indices) -> tuple[str, ...]:
        return tuple(self.edges[i].label for i in indices)


# Single-graph closures use Python ints: one row through the int64 batch
# kernel costs several times more, and Python ints have no world limit.
def _closure_bits(rows: list[int]) -> list[int]:
    n = len(rows)
    reach = list(rows)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= reach[k]
    return reach


def _has_cycle_bits(reach: list[int]) -> bool:
    return any(reach[i] >> i & 1 for i in range(len(reach)))


def is_cyclic(g: ConstraintGraph) -> bool:
    return _has_cycle_bits(_closure_bits(g.bit_rows()))


@dataclass(frozen=True)
class ImpossibilityCertificate:
    """A directed cycle of constraint edges; the proof that no total order
    satisfies all of them."""

    edges: tuple[Edge, ...]

    def __post_init__(self):
        if len(self.edges) < 2:
            raise ValueError("a certificate needs at least 2 edges")
        for a, b in zip(self.edges, self.edges[1:] + self.edges[:1]):
            if a.better != b.worse:
                raise ValueError("certificate edges are not consecutive")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.edges)

    @property
    def worlds(self) -> tuple[str, ...]:
        return tuple(e.worse for e in self.edges)

    def __len__(self) -> int:
        return len(self.edges)


def find_cycle(g: ConstraintGraph) -> ImpossibilityCertificate | None:
    """The lexicographically smallest simple directed cycle by edge index.

    For each candidate first edge (ascending), a backtracking search extends
    the path with the smallest-index usable edge, so the first cycle found is
    the lexicographically smallest edge-index sequence overall.  The search
    keeps an explicit stack, so cycle length is not bounded by recursion
    depth.  None implies the graph is acyclic and therefore admits a
    consistent total order.
    """
    out: dict[str, list[int]] = {w: [] for w in g.worlds}
    for i, e in enumerate(g.edges):
        out[e.worse].append(i)
    for start, first in enumerate(g.edges):
        target = first.worse
        path = [start]
        visited = {first.worse, first.better}
        # stack[k] iterates the out-edges of the head of path[k]
        stack = [iter(out[first.better])]
        while stack:
            for i in stack[-1]:
                if i <= start:
                    continue
                e = g.edges[i]
                if e.better == target:
                    path.append(i)
                    return ImpossibilityCertificate(tuple(g.edges[j] for j in path))
                if e.better not in visited:
                    visited.add(e.better)
                    path.append(i)
                    stack.append(iter(out[e.better]))
                    break
            else:
                stack.pop()
                visited.remove(g.edges[path.pop()].better)
    return None


# ---------------------------------------------------------------------------
# Partial orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialOrder:
    """A verdict table over a finite world set.

    The container itself does not enforce the order laws; run
    ``validate_partial_order`` to check them.  Factory helpers and
    ``partial_order_from`` only build tables that pass.
    """

    worlds: tuple[str, ...]
    table: tuple[tuple[Verdict, ...], ...]
    _index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.worlds)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("verdict table must be n x n over the world set")
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.worlds)})

    def verdict(self, a: str, b: str) -> Verdict:
        return self.table[self._index[a]][self._index[b]]

    def leq(self, a: str, b: str) -> bool:
        return self.verdict(a, b) in (Verdict.LESS, Verdict.EQUAL)

    def maximal_elements(self, subset=None) -> tuple[str, ...]:
        """Members of ``subset`` (default: all worlds) beaten by no other member."""
        pool = tuple(subset) if subset is not None else self.worlds
        out = []
        for a in pool:
            if not any(self.verdict(a, b) is Verdict.LESS for b in pool if b != a):
                out.append(a)
        return tuple(out)

    @classmethod
    def from_pairs(cls, worlds, pairs) -> "PartialOrder":
        """Build a table from a {(a, b): Verdict} mapping.

        The diagonal is EQUAL; a missing converse entry is mirrored from the
        given one; pairs mentioned in neither direction are INCOMPARABLE.
        Explicitly supplied entries are kept verbatim, so deliberately
        inconsistent tables can be built for validation tests.
        """
        worlds = tuple(worlds)
        idx = {w: i for i, w in enumerate(worlds)}
        n = len(worlds)
        grid = [[None] * n for _ in range(n)]
        for i in range(n):
            grid[i][i] = Verdict.EQUAL
        for (a, b), v in pairs.items():
            grid[idx[a]][idx[b]] = v
        for (a, b), v in pairs.items():
            i, j = idx[a], idx[b]
            if grid[j][i] is None:
                grid[j][i] = v.flipped()
        for i in range(n):
            for j in range(n):
                if grid[i][j] is None:
                    grid[i][j] = Verdict.INCOMPARABLE
        return cls(worlds, tuple(tuple(row) for row in grid))

    @classmethod
    def from_ranking(cls, ranking) -> "PartialOrder":
        """Total order from a best-to-worst ranking of world ids."""
        ranking = tuple(ranking)
        rank = {w: i for i, w in enumerate(ranking)}
        pairs = {}
        for a in ranking:
            for b in ranking:
                if a != b:
                    pairs[(a, b)] = Verdict.GREATER if rank[a] < rank[b] else Verdict.LESS
        return cls.from_pairs(tuple(sorted(ranking)), pairs)


@dataclass(frozen=True)
class LawViolation:
    law: str
    worlds: tuple[str, ...]
    detail: str


def validate_partial_order(po: PartialOrder) -> list[LawViolation]:
    """Check reflexivity, converse consistency, symmetric incomparability,
    and transitivity of <=; an empty list means the table is a partial order."""
    out: list[LawViolation] = []
    worlds = po.worlds
    for a in worlds:
        if po.verdict(a, a) is not Verdict.EQUAL:
            out.append(LawViolation("reflexivity", (a,), f"verdict({a},{a}) must be EQUAL"))
    for a, b in itertools.combinations(worlds, 2):
        v = po.verdict(a, b)
        w = po.verdict(b, a)
        if w is not v.flipped():
            law = "incomparable-symmetry" if Verdict.INCOMPARABLE in (v, w) else "antisymmetry"
            out.append(
                LawViolation(law, (a, b), f"verdict({a},{b})={v.value} but verdict({b},{a})={w.value}")
            )
    for a, b, c in itertools.permutations(worlds, 3):
        if po.leq(a, b) and po.leq(b, c) and not po.leq(a, c):
            out.append(
                LawViolation(
                    "transitivity",
                    (a, b, c),
                    f"{a}<={b} and {b}<={c} but verdict({a},{c})={po.verdict(a, c).value}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Uncertainty patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UncertaintyPattern:
    """Edge indices designated as only uncertainly satisfied."""

    edge_indices: tuple[int, ...]

    def __init__(self, edge_indices=()):
        object.__setattr__(self, "edge_indices", tuple(sorted(set(edge_indices))))

    def __len__(self) -> int:
        return len(self.edge_indices)


def pattern_is_valid(g: ConstraintGraph, pattern: UncertaintyPattern) -> bool:
    """Closure of the kept edges is acyclic and forces no removed endpoint pair."""
    skip = frozenset(pattern.edge_indices)
    if any(i < 0 or i >= len(g.edges) for i in skip):
        raise ValueError("pattern references edges outside the graph")
    reach = _closure_bits(g.bit_rows(skip))
    if _has_cycle_bits(reach):
        return False
    idx = {w: i for i, w in enumerate(g.worlds)}
    for i in pattern.edge_indices:
        u = idx[g.edges[i].worse]
        v = idx[g.edges[i].better]
        if reach[u] >> v & 1 or reach[v] >> u & 1:
            return False
    return True


def _subset_batches(g: ConstraintGraph, size: int):
    """Bit-row and removed-pair arrays for every size-``size`` edge subset,
    in lexicographic order of edge indices."""
    n = len(g.worlds)
    if n > _kernels.MAX_BIT_NODES:
        raise WorldLimitError(n, _kernels.MAX_BIT_NODES)
    idx = {w: i for i, w in enumerate(g.worlds)}
    subsets = list(itertools.combinations(range(len(g.edges)), size))
    rows = np.zeros((len(subsets), n), dtype=np.int64)
    removed_u = np.zeros((len(subsets), max(size, 1)), dtype=np.int64)
    removed_v = np.zeros((len(subsets), max(size, 1)), dtype=np.int64)
    removed_len = np.full(len(subsets), size, dtype=np.int64)
    for si, subset in enumerate(subsets):
        skip = frozenset(subset)
        for ei, e in enumerate(g.edges):
            if ei not in skip:
                rows[si, idx[e.worse]] |= np.int64(1 << idx[e.better])
        for j, ei in enumerate(subset):
            removed_u[si, j] = idx[g.edges[ei].worse]
            removed_v[si, j] = idx[g.edges[ei].better]
    return subsets, rows, removed_u, removed_v, removed_len


def valid_uncertainty_patterns(
    g: ConstraintGraph, max_size: int, budget: int = 1_000_000
) -> list[UncertaintyPattern]:
    """All inclusion-minimal valid patterns of size <= max_size.

    Enumerated by size then lexicographic edge order; supersets of an
    already-found valid pattern are discarded as non-minimal.  Graphs with
    more than ``MAX_BIT_NODES`` worlds raise ``WorldLimitError``.
    """
    n_edges = len(g.edges)
    max_size = min(max_size, n_edges)
    total = sum(comb(n_edges, k) for k in range(max_size + 1))
    if total > budget:
        raise BudgetExceededError(
            f"{total} candidate subsets exceed budget {budget}; "
            "lower max_size or raise the budget"
        )
    found: list[UncertaintyPattern] = []
    found_sets: list[frozenset[int]] = []
    for size in range(max_size + 1):
        subsets, rows, ru, rv, rl = _subset_batches(g, size)
        if not subsets:
            continue
        flags = _kernels.pattern_valid_flags(rows, ru, rv, rl)
        for subset, ok in zip(subsets, flags):
            if not ok:
                continue
            s = frozenset(subset)
            if any(f <= s for f in found_sets):
                continue
            found.append(UncertaintyPattern(subset))
            found_sets.append(s)
    return found


def min_uncertainty_size(g: ConstraintGraph, budget: int = 1_000_000) -> int:
    """Size of the smallest valid uncertainty pattern.

    0 exactly when the graph is acyclic; at least 2 whenever it has a cycle.
    Cyclic graphs with more than ``MAX_BIT_NODES`` worlds raise
    ``WorldLimitError``.
    """
    if not is_cyclic(g):
        return 0
    n_edges = len(g.edges)
    seen = 1
    for size in range(1, n_edges + 1):
        seen += comb(n_edges, size)
        if seen > budget:
            raise BudgetExceededError(
                f"subset enumeration through size {size} exceeds budget {budget}"
            )
        subsets, rows, ru, rv, rl = _subset_batches(g, size)
        flags = _kernels.pattern_valid_flags(rows, ru, rv, rl)
        if flags.any():
            return size
    raise AssertionError("unreachable: removing every edge is always valid")


def partial_order_from(g: ConstraintGraph, pattern: UncertaintyPattern) -> PartialOrder:
    """The least partial order consistent with the kept edges.

    Forced reachability becomes a strict verdict; everything else (including
    both endpoints of every removed edge) is incomparable.
    """
    if not pattern_is_valid(g, pattern):
        raise InvalidPatternError(
            f"pattern {pattern.edge_indices} is not a valid uncertainty pattern: "
            "kept edges still force a cycle or one of the removed comparisons"
        )
    reach = _closure_bits(g.bit_rows(frozenset(pattern.edge_indices)))
    n = len(g.worlds)
    grid = [[Verdict.INCOMPARABLE] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = Verdict.EQUAL
        for j in range(n):
            if i != j and reach[i] >> j & 1:
                grid[i][j] = Verdict.LESS
                grid[j][i] = Verdict.GREATER
    return PartialOrder(g.worlds, tuple(tuple(row) for row in grid))
