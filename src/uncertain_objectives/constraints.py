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

from .errors import BudgetExceededError, InvalidPatternError, InvalidValueError, WorldLimitError
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
                raise InvalidValueError(f"duplicate world id {w!r}")
            seen.add(w)
        for e in self.edges:
            if e.worse == e.better:
                raise InvalidValueError(f"self-loop on {e.worse!r} (edge {e.label!r})")
            if e.worse not in seen or e.better not in seen:
                raise InvalidValueError(f"edge {e.label!r} references undeclared world")

    @classmethod
    def from_edges(cls, edges, worlds=None) -> "ConstraintGraph":
        edges = tuple(
            e if isinstance(e, Edge) else Edge(e[0], e[1], e[2] if len(e) > 2 else f"C{i+1}")
            for i, e in enumerate(edges)
        )
        if worlds is None:
            worlds = tuple(sorted({w for e in edges for w in (e.worse, e.better)}))
        return cls(tuple(worlds), edges)

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
    reach = list(rows)
    # Step k leaves reach[k] as it is, so the iterator reads it current.
    for k, row in enumerate(reach):
        if row:
            bit = 1 << k
            for i, r in enumerate(reach):
                if r & bit:
                    reach[i] = r | row
    return reach


@dataclass(frozen=True)
class ImpossibilityCertificate:
    """A directed cycle of constraint edges; the proof that no total order
    satisfies all of them."""

    edges: tuple[Edge, ...]

    def __post_init__(self):
        if len(self.edges) < 2:
            raise InvalidValueError("a certificate needs at least 2 edges")
        for a, b in zip(self.edges, self.edges[1:] + self.edges[:1]):
            if a.better != b.worse:
                raise InvalidValueError("certificate edges are not consecutive")

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

    The cycle's first edge is the smallest-index edge that some cycle of
    later edges passes through.  From there the cycle grows greedily: from
    the path's head it takes the smallest-index later edge whose far end is
    the start world or reaches it by later edges through worlds off the
    path.  Every step keeps a completion, so nothing is undone and each
    choice is the smallest possible: the cycle is the lexicographically
    smallest edge-index sequence, found in polynomial time with no recursion.
    None implies the graph is acyclic and therefore admits a consistent
    total order.
    """
    out: dict[str, list[int]] = {w: [] for w in g.worlds}
    for i, e in enumerate(g.edges):
        out[e.worse].append(i)

    def reaches(world, target, start, on_path) -> bool:
        # Edges after ``start`` lead from ``world`` to ``target`` through
        # worlds off the path.
        seen, todo = on_path | {world}, [world]
        while todo:
            for i in out[todo.pop()]:
                if i <= start:
                    continue
                w = g.edges[i].better
                if w == target:
                    return True
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return False

    for start, first in enumerate(g.edges):
        target, head = first.worse, first.better
        path, on_path = [start], {target, head}
        if not reaches(head, target, start, on_path):
            continue
        while head != target:
            usable = [i for i in out[head] if i > start
                      and (g.edges[i].better == target or g.edges[i].better not in on_path)]
            # The head is known to close the cycle, so the last usable edge
            # needs no test.
            step = next((i for i in usable[:-1] if g.edges[i].better == target
                         or reaches(g.edges[i].better, target, start, on_path)), usable[-1])
            path.append(step)
            head = g.edges[step].better
            on_path.add(head)
        return ImpossibilityCertificate(tuple(g.edges[j] for j in path))
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
            raise InvalidValueError("verdict table must be n x n over the world set")
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.worlds)})
        if len(self._index) != n:
            raise InvalidValueError("duplicate world ids")

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
        pairs = {(worse, better): Verdict.LESS for better, worse in itertools.combinations(ranking, 2)}
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
    worlds, table = po.worlds, po.table
    for i, a in enumerate(worlds):
        if table[i][i] is not Verdict.EQUAL:
            out.append(LawViolation("reflexivity", (a,), f"verdict({a},{a}) must be EQUAL"))
    for i, j in itertools.combinations(range(len(worlds)), 2):
        v, w = table[i][j], table[j][i]
        if w is not v.flipped():
            a, b = worlds[i], worlds[j]
            law = "incomparable-symmetry" if Verdict.INCOMPARABLE in (v, w) else "antisymmetry"
            out.append(
                LawViolation(law, (a, b), f"verdict({a},{b})={v.value} but verdict({b},{a})={w.value}")
            )
    # Bit c of le[i] is set when world i <= world c.  Each (a, b, c) with
    # a <= b <= c but not a <= c is reported, in itertools.permutations order.
    le = [
        sum(1 << c for c, v in enumerate(row) if v is Verdict.LESS or v is Verdict.EQUAL)
        for row in table
    ]
    for i, a in enumerate(worlds):
        for j, b in enumerate(worlds):
            if j == i or not le[i] >> j & 1:
                continue
            missing = le[j] & ~le[i] & ~(1 << i | 1 << j)
            while missing:
                low = missing & -missing
                missing ^= low
                k = low.bit_length() - 1
                c = worlds[k]
                out.append(
                    LawViolation(
                        "transitivity",
                        (a, b, c),
                        f"{a}<={b} and {b}<={c} but verdict({a},{c})={table[i][k].value}",
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


def _invalidity_targets(reach: list[int], ends, removed: int) -> dict[int, int]:
    """Why a pattern is invalid, given the closure ``reach`` of its kept
    edges, every edge's (worse, better) world indices ``ends``, and the
    bitmask ``removed`` of its removed edges: for each source world, a
    bitmask of the worlds it reaches but must not.  Those are the far end of
    a removed pair forced in either direction, by ascending edge index, then
    the source itself when it lies on a cycle.  Empty exactly when the
    pattern is valid."""
    targets: dict[int, int] = {}
    m = removed
    while m:
        low = m & -m
        m ^= low
        u, v = ends[low.bit_length() - 1]
        if reach[u] >> v & 1:
            targets[u] = targets.get(u, 0) | 1 << v
        if reach[v] >> u & 1:
            targets[v] = targets.get(v, 0) | 1 << u
    for w, row in enumerate(reach):
        if row >> w & 1:
            targets[w] = targets.get(w, 0) | 1 << w
    return targets


def _kept_closure(g: ConstraintGraph, pattern: UncertaintyPattern) -> list[int] | None:
    """The closure bit-rows of the kept edges, or None when the pattern is
    invalid (see ``_invalidity_targets``)."""
    skip = frozenset(pattern.edge_indices)
    if any(i < 0 or i >= len(g.edges) for i in skip):
        raise InvalidValueError("pattern references edges outside the graph")
    reach = _closure_bits(g.bit_rows(skip))
    idx = {w: i for i, w in enumerate(g.worlds)}
    ends = [(idx[e.worse], idx[e.better]) for e in g.edges]
    removed = sum(1 << i for i in skip)
    return None if _invalidity_targets(reach, ends, removed) else reach


def pattern_is_valid(g: ConstraintGraph, pattern: UncertaintyPattern) -> bool:
    """Closure of the kept edges is acyclic and forces no removed endpoint pair."""
    return _kept_closure(g, pattern) is not None


# The largest cyclic graph the pattern search takes.  Its Python-int
# closures have no width limit; this is the supported size.
MAX_PATTERN_WORLDS = 62


class _WitnessSearch:
    """Branching search over sets of removed edges, on Python-int closures.

    A removed set S is invalid exactly when its kept edges hold a witness: a
    cycle, or a path between the endpoints of a removed edge in either
    direction.  Removing more edges only shrinks the closure, so every valid
    superset of S also removes an edge of that witness.  The search takes the
    shortest witness and branches on its edges in order; branch i also bans
    edges 1..i-1 of the witness for its whole subtree, so each set is visited
    at most once and every inclusion-minimal valid set within the bound is
    still reached.
    """

    def __init__(self, g: ConstraintGraph):
        idx = {w: i for i, w in enumerate(g.worlds)}
        self.ends = [(idx[e.worse], idx[e.better]) for e in g.edges]
        self.out: list[list[int]] = [[] for _ in g.worlds]
        for i, (u, _) in enumerate(self.ends):
            self.out[u].append(i)
        self.rows = g.bit_rows()

    def _row(self, u: int, removed: int) -> int:
        # A bit-row ORs the kept out-edges, so a parallel edge keeps its bit
        # while one copy survives.
        row = 0
        for i in self.out[u]:
            if not removed >> i & 1:
                row |= 1 << self.ends[i][1]
        return row

    def _witness(self, rows: list[int], removed: int, targets: dict[int, int]) -> list[int]:
        """Edge indices of a shortest witness among the kept edges of an
        invalid set, given its nonempty ``_invalidity_targets``."""
        best = None
        for source, hit in targets.items():
            path = self._shortest_path(rows, removed, source, hit,
                                       len(best) - 1 if best else len(rows))
            if path is not None:
                best = path
                if len(best) == 1:
                    break
        return best

    def _shortest_path(self, rows, removed, source, targets, limit) -> list[int] | None:
        """Edge indices of a shortest kept path of at most ``limit`` edges
        from ``source`` to a world in ``targets``, found by BFS over bit-rows.
        The targets come from the closure, so only ``limit`` ends the BFS
        before it reaches one."""
        layers = [1 << source]
        seen = 1 << source
        while len(layers) <= limit:
            reached = 0
            m = layers[-1]
            while m:
                low = m & -m
                m ^= low
                reached |= rows[low.bit_length() - 1]
            hit = reached & targets
            if hit:
                break
            frontier = reached & ~seen
            seen |= frontier
            layers.append(frontier)
        else:
            return None
        # Walk back through the layers, one kept edge into each world.
        path = []
        x = (hit & -hit).bit_length() - 1
        for layer in reversed(layers):
            while True:
                low = layer & -layer
                layer ^= low
                w = low.bit_length() - 1
                if rows[w] >> x & 1:
                    break
            path.append(next(i for i in self.out[w]
                             if self.ends[i][1] == x and not removed >> i & 1))
            x = w
        path.reverse()
        return path

    def run(self, bound: int, budget: int, shrink: bool) -> list[int]:
        """Valid removed sets (as edge bitmasks) of fewer than ``bound`` edges.

        With ``shrink`` the bound falls to each valid set's size as it is
        found (branch and bound for the minimum).  A valid set is recorded
        and not extended.  At the root an acyclic graph gives ``[0]`` and a
        cyclic one of more than ``MAX_PATTERN_WORLDS`` worlds raises
        ``WorldLimitError``, both before the budget counts a check; more than
        ``budget`` checked sets raise ``BudgetExceededError``.
        """
        found: list[int] = []
        checked = 0
        # (removed, banned, parent's rows, last removed edge or -1); the
        # removed and banned edge sets are bitmasks over edge indices.
        stack = [(0, 0, self.rows, -1)]
        while stack:
            removed, banned, rows, edge = stack.pop()
            size = removed.bit_count()
            if size >= bound:
                continue
            if edge >= 0:
                u = self.ends[edge][0]
                rows = rows.copy()
                rows[u] = self._row(u, removed)
            targets = _invalidity_targets(_closure_bits(rows), self.ends, removed)
            if edge < 0:
                if not targets:
                    return [0]
                if len(rows) > MAX_PATTERN_WORLDS:
                    raise WorldLimitError(len(rows), MAX_PATTERN_WORLDS)
            checked += 1
            if checked > budget:
                raise BudgetExceededError(
                    f"pattern search checked more than {budget} candidate sets; "
                    + ("raise the budget" if shrink else "lower max_size or raise the budget")
                )
            if not targets:
                found.append(removed)
                if shrink:
                    bound = size
                continue
            if size + 1 >= bound:
                continue
            children = []
            for i in self._witness(rows, removed, targets):
                if not banned >> i & 1:
                    children.append((removed | 1 << i, banned, rows, i))
                banned |= 1 << i
            stack.extend(reversed(children))
        return found


def _edge_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def valid_uncertainty_patterns(
    g: ConstraintGraph, max_size: int | None = None, budget: int = 1_000_000
) -> list[UncertaintyPattern]:
    """All inclusion-minimal valid patterns of size <= max_size.

    Ordered by size, then lexicographically by edge indices.  ``max_size``
    defaults to the edge count; a negative one raises ``InvalidValueError``.
    An acyclic graph's only minimal pattern is the empty one, returned at the
    search's root at any size and budget.  Cyclic graphs with more than
    ``MAX_PATTERN_WORLDS`` worlds raise ``WorldLimitError`` there.

    The search branches on witnesses (see ``_WitnessSearch``) and records
    each valid set it meets; sets containing an earlier one in that order are
    dropped as non-minimal.  ``budget`` bounds the candidate sets whose
    validity the search checks.  Each is a distinct edge subset of size <=
    max_size, so a budget of sum(C(E, s) for s <= max_size) is never
    exceeded; more checks raise ``BudgetExceededError``.
    """
    if max_size is None:
        max_size = len(g.edges)
    elif max_size < 0:
        raise InvalidValueError(f"max_size must be at least 0, got {max_size}")
    found = _WitnessSearch(g).run(max_size + 1, budget, shrink=False)
    found.sort(key=lambda mask: (mask.bit_count(), _edge_indices(mask)))
    minimal: list[int] = []
    for mask in found:
        if not any(f & mask == f for f in minimal):
            minimal.append(mask)
    return [UncertaintyPattern(_edge_indices(mask)) for mask in minimal]


def min_uncertainty_size(g: ConstraintGraph, budget: int = 1_000_000) -> int:
    """Size of the smallest valid uncertainty pattern.

    0 exactly when the graph is acyclic, returned at the search's root at any
    size and budget; at least 2 whenever it has a cycle.  Cyclic graphs with
    more than ``MAX_PATTERN_WORLDS`` worlds raise ``WorldLimitError`` there.

    The witness search runs as branch and bound: the best size starts at the
    edge count, since removing every edge is always valid, and a set is
    extended only while one more edge stays below the best size found.
    ``budget`` bounds the candidate sets checked; sets larger than the
    minimum may be checked before the best size falls, so unlike
    ``valid_uncertainty_patterns`` no subset count bounds the checks.  More
    than ``budget`` checks raise ``BudgetExceededError``.
    """
    found = _WitnessSearch(g).run(len(g.edges), budget, shrink=True)
    return min((mask.bit_count() for mask in found), default=len(g.edges))


def partial_order_from(g: ConstraintGraph, pattern: UncertaintyPattern) -> PartialOrder:
    """The least partial order consistent with the kept edges.

    Forced reachability becomes a strict verdict; everything else (including
    both endpoints of every removed edge) is incomparable.
    """
    reach = _kept_closure(g, pattern)
    if reach is None:
        raise InvalidPatternError(
            f"pattern {pattern.edge_indices} is not a valid uncertainty pattern: "
            "kept edges still force a cycle or one of the removed comparisons"
        )
    n = len(g.worlds)
    grid = [[Verdict.INCOMPARABLE] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = Verdict.EQUAL
        for j in range(n):
            if i != j and reach[i] >> j & 1:
                grid[i][j] = Verdict.LESS
                grid[j][i] = Verdict.GREATER
    return PartialOrder(g.worlds, tuple(tuple(row) for row in grid))
