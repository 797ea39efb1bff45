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

Every cycle, and every path between two worlds of one strongly connected
component, stays inside that component.  So a pattern is valid exactly when
its part in each cyclic component is valid for that component's own edges,
and a minimal pattern removes no edge between components: the pattern
search takes each cyclic component on its own, the minimum sizes add, and
the minimal patterns are the unions of one minimal pattern per component.

Every graph walk here (``find_cycle``, ``shortest_cycle``, the pattern
search's witnesses) reads one edge index built with the graph, and runs one
breadth-first search over Python-int bit-rows, ``_bfs``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

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
    """Worlds and edges, indexed once for every graph walker: each edge's
    (worse, better) world indices ``ends``, each world's out-edges ``out``."""

    worlds: tuple[str, ...]
    edges: tuple[Edge, ...]
    ends: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    out: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx: dict[str, int] = {}
        for i, w in enumerate(self.worlds):
            if idx.setdefault(w, i) != i:
                raise InvalidValueError(f"duplicate world id {w!r}")
        ends, out = [], [[] for _ in self.worlds]
        for i, e in enumerate(self.edges):
            if e.worse == e.better:
                raise InvalidValueError(f"self-loop on {e.worse!r} (edge {e.label!r})")
            if e.worse not in idx or e.better not in idx:
                raise InvalidValueError(f"edge {e.label!r} references undeclared world")
            ends.append((idx[e.worse], idx[e.better]))
            out[ends[-1][0]].append(i)
        object.__setattr__(self, "ends", tuple(ends))
        object.__setattr__(self, "out", tuple(map(tuple, out)))

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
        rows = [0] * len(self.worlds)
        for i, (u, v) in enumerate(self.ends):
            if i not in skip:
                rows[u] |= 1 << v
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


def _out_row(g: ConstraintGraph, u: int, removed: int) -> int:
    """The bit-row of world u's kept out-edges: those not in the edge bitmask
    ``removed``.  A parallel edge keeps its bit while one copy is kept."""
    row = 0
    for i in g.out[u]:
        if not removed >> i & 1:
            row |= 1 << g.ends[i][1]
    return row


def _bfs(rows: list[int], source: int, targets: int, limit: int, blocked: int = 0):
    """Breadth-first layers over bit-rows from world ``source``, through
    worlds not in the bitmask ``blocked``, up to the first step into
    ``targets``: (layers, hit), ``hit`` being the targets that step reaches.
    None when the frontier empties or no path of ``limit`` edges hits."""
    layers = [1 << source]
    seen = 1 << source | blocked
    while len(layers) <= limit:
        reached = 0
        m = layers[-1]
        while m:
            low = m & -m
            m ^= low
            reached |= rows[low.bit_length() - 1]
        hit = reached & targets
        if hit:
            return layers, hit
        frontier = reached & ~seen
        if not frontier:
            return None
        seen |= frontier
        layers.append(frontier)
    return None


def _walk_back(g: ConstraintGraph, rows: list[int], removed: int, layers, hit) -> list[int]:
    """Edge indices of the path ``_bfs`` found on the ``rows`` of the edges
    not in ``removed``: back from the lowest world of ``hit``, the lowest
    world of each layer with a row into the next, by its smallest-index edge."""
    path = []
    x = (hit & -hit).bit_length() - 1
    for layer in reversed(layers):
        while True:
            low = layer & -layer
            layer ^= low
            w = low.bit_length() - 1
            if rows[w] >> x & 1:
                break
        path.append(next(i for i in g.out[w] if g.ends[i][1] == x and not removed >> i & 1))
        x = w
    return path[::-1]


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
    # ``rows`` hold the edges after ``start``: each step drops edge ``start``
    # from its worse world's row.
    rows, ends, out = g.bit_rows(), g.ends, g.out
    n = len(rows)
    for start, (target, head) in enumerate(ends):
        rows[target] = _out_row(g, target, (2 << start) - 1)
        if not _bfs(rows, head, 1 << target, n):
            continue
        path, on_path = [start], 1 << target | 1 << head
        while head != target:
            usable = [i for i in out[head] if i > start
                      and (ends[i][1] == target or not on_path >> ends[i][1] & 1)]
            # The head is known to close the cycle, so the last usable edge
            # needs no test.
            step = next((i for i in usable[:-1] if ends[i][1] == target
                         or _bfs(rows, ends[i][1], 1 << target, n, on_path)), usable[-1])
            path.append(step)
            head = ends[step][1]
            on_path |= 1 << head
        return ImpossibilityCertificate(tuple(g.edges[j] for j in path))
    return None


def shortest_cycle(g: ConstraintGraph) -> ImpossibilityCertificate | None:
    """A shortest simple directed cycle, or None when the graph is acyclic.

    For each edge u -> v in index order, a breadth-first search from v gives
    a shortest path back to u; the cycle is kept only when it is strictly
    shorter than the best so far.  So the kept cycle's first edge is its
    smallest index: an earlier edge on it would have given a cycle at least
    as short.  O(E (n + E)) bit-row operations.
    """
    rows = g.bit_rows()
    best = None
    for i, (u, v) in enumerate(g.ends):
        # Once a 2-cycle is found the limit is 0, and each search ends at once.
        found = _bfs(rows, v, 1 << u, len(best) - 2 if best else len(rows))
        if found:
            best = [i, *_walk_back(g, rows, 0, *found)]
    return None if best is None else ImpossibilityCertificate(tuple(g.edges[j] for j in best))


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
        given one; pairs mentioned in neither direction are INCOMPARABLE; a
        pair naming a world outside ``worlds`` raises ``InvalidValueError``.
        Given entries are kept verbatim, so inconsistent tables can be built.
        """
        worlds = tuple(worlds)
        if not {w for pair in pairs for w in pair} <= set(worlds):
            raise InvalidValueError("pairs name a world outside the world set")

        def verdict(a, b):
            if (a, b) in pairs:
                return pairs[a, b]
            if a == b:
                return Verdict.EQUAL
            return pairs[b, a].flipped() if (b, a) in pairs else Verdict.INCOMPARABLE

        return cls(worlds, tuple(tuple(verdict(a, b) for b in worlds) for a in worlds))

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
    return None if _invalidity_targets(reach, g.ends, sum(1 << i for i in skip)) else reach


def pattern_is_valid(g: ConstraintGraph, pattern: UncertaintyPattern) -> bool:
    """Closure of the kept edges is acyclic and forces no removed endpoint pair."""
    return _kept_closure(g, pattern) is not None


# The largest cyclic graph the pattern search takes, counted over the whole
# graph.  Its Python-int closures have no width limit; this is the
# supported size.
MAX_PATTERN_WORLDS = 62


class _Component(NamedTuple):
    """Where one run of the witness search starts: the bitmask ``inside`` of
    the worlds it searches (-1 for every world), the bit-rows and closure of
    its edges with none removed, and its edge count."""

    inside: int
    rows: list[int]
    reach: list[int]
    n_edges: int


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

    Every cycle, and every path between two worlds of one strongly connected
    component, stays inside that component, so no witness holds an edge
    between components or an edge of another component.  A graph with one
    cyclic component is searched whole; one with several is searched one
    component at a time, over the component's internal edges, under the
    graph's edge indices.  ``checked`` counts the sets checked over every
    run, so the runs share one budget.
    """

    def __init__(self, g: ConstraintGraph):
        """The search's root, from the closure of every edge: no
        ``components`` for an acyclic graph, and ``WorldLimitError`` for a
        cyclic one of more than ``MAX_PATTERN_WORLDS`` worlds, both before
        any set is checked."""
        self.g = g
        rows = g.bit_rows()
        self.checked = 0
        self.components: list[_Component] = []
        reach = _closure_bits(rows)
        cyclic = sum(1 << w for w, row in enumerate(reach) if row >> w & 1)
        if not cyclic:
            return
        if len(rows) > MAX_PATTERN_WORLDS:
            raise WorldLimitError(len(rows), MAX_PATTERN_WORLDS)
        # A cyclic world's component: the worlds it reaches that reach it.
        masks = []
        while cyclic:
            w = (cyclic & -cyclic).bit_length() - 1
            masks.append(sum(1 << y for y, row in enumerate(reach) if reach[w] >> y & row >> w & 1))
            cyclic ^= masks[-1]
        if len(masks) == 1:
            self.components.append(_Component(-1, rows, reach, len(g.edges)))
            return
        for mask in masks:
            inside = [mask if mask >> w & 1 else 0 for w in range(len(rows))]
            self.components.append(_Component(
                mask,
                [row & m for row, m in zip(rows, inside)],
                [row & m for row, m in zip(reach, inside)],
                sum(mask >> u & mask >> v & 1 for u, v in g.ends),
            ))

    def _witness(self, rows: list[int], removed: int, targets: dict[int, int]) -> list[int]:
        """Edge indices of a shortest witness among the kept edges of an
        invalid set, given its nonempty ``_invalidity_targets``.  The
        targets come from the closure, so only the limit, one edge shorter
        than the best witness so far, stops a search before it hits one."""
        best = None
        for source, hit in targets.items():
            found = _bfs(rows, source, hit, len(best) - 1 if best else len(rows))
            if found:
                best = _walk_back(self.g, rows, removed, *found)
                if len(best) == 1:
                    break
        return best

    def run(self, part: _Component, bound: int, budget: int, shrink: bool) -> list[int]:
        """Valid removed sets (as edge bitmasks) of fewer than ``bound`` of
        ``part``'s edges.

        With ``shrink`` the bound falls to each valid set's size as it is
        found (branch and bound for the minimum).  A valid set is recorded
        and not extended.  Once ``checked`` passes ``budget`` the search
        raises ``BudgetExceededError``.
        """
        found: list[int] = []
        g, ends = self.g, self.g.ends
        inside, rows, reach, _ = part
        # (removed, banned, parent's rows, last removed edge or -1); the
        # removed and banned edge sets are bitmasks over edge indices.
        stack = [(0, 0, rows, -1)]
        while stack:
            removed, banned, rows, edge = stack.pop()
            size = removed.bit_count()
            if size >= bound:
                continue
            if edge >= 0:
                u = ends[edge][0]
                rows = rows.copy()
                rows[u] = _out_row(g, u, removed) & inside
                reach = _closure_bits(rows)
            targets = _invalidity_targets(reach, ends, removed)
            self.checked += 1
            if self.checked > budget:
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


def _in_pattern_order(masks) -> list[tuple[int, tuple[int, ...], int]]:
    """(size, edge indices, mask) for each edge bitmask, sorted: the pattern
    order, and each pattern's indices, built once."""
    return sorted((m.bit_count(), tuple(i for i in range(m.bit_length()) if m >> i & 1), m)
                  for m in masks)


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
    dropped as non-minimal.  A pattern is valid exactly when its part in
    each cyclic strongly connected component is valid there, and a minimal
    one removes no edge between components.  So with k >= 2 components each
    is searched for its minimal sets of size <= max_size - 2(k - 1), since
    every other component loses at least 2 edges, and the minimal patterns
    are the unions of one set per component of total size <= max_size.
    Once a component has none, or max_size < 2(k - 1), the answer is empty.

    ``budget`` bounds the candidate sets whose validity the search checks,
    over all components.  Each is an edge subset of size <= max_size within
    one component, distinct apart from the empty set at each component's
    root; those k - 1 repeats are fewer than the two-edge subsets spanning
    two components, which no search checks.  So a budget of sum(C(E, s)
    for s <= max_size) is never exceeded; more checks raise
    ``BudgetExceededError``.
    """
    if max_size is None:
        max_size = len(g.edges)
    elif max_size < 0:
        raise InvalidValueError(f"max_size must be at least 0, got {max_size}")
    search = _WitnessSearch(g)
    if not search.components:
        return [UncertaintyPattern(())]
    cap = max_size - 2 * (len(search.components) - 1)
    if cap < 0:
        return []
    per_component = []
    for part in search.components:
        keys, minimal = [], []
        for key in _in_pattern_order(search.run(part, cap + 1, budget, shrink=False)):
            mask = key[2]
            if not any(f & mask == f for f in minimal):
                keys.append(key)
                minimal.append(mask)
        if not minimal:
            return []
        per_component.append(minimal)
    k = len(per_component)
    masks = per_component[0]
    for j, minimal in enumerate(per_component[1:], 2):
        # The k - j components still to come add at least 2 edges each.
        room = max_size - 2 * (k - j)
        masks = [a | b for a in masks for b in minimal if (a | b).bit_count() <= room]
    if k > 1:
        keys = _in_pattern_order(masks)
    return [UncertaintyPattern(key[1]) for key in keys]


def min_uncertainty_size(g: ConstraintGraph, budget: int = 1_000_000) -> int:
    """Size of the smallest valid uncertainty pattern.

    0 exactly when the graph is acyclic, returned at the search's root at any
    size and budget; at least 2 for each cyclic strongly connected
    component, and the sum of the components' minima, which are searched one
    at a time (see ``valid_uncertainty_patterns``).  Cyclic graphs with more
    than ``MAX_PATTERN_WORLDS`` worlds raise ``WorldLimitError`` at the root.

    The witness search runs as branch and bound: the best size starts at the
    edge count of the graph, or of the component when there are several,
    since removing every one of those edges is always valid, and a set is
    extended only while one more edge stays below the best size found.
    ``budget`` bounds the candidate sets checked over all components; sets
    larger than the minimum may be checked before the best size falls, so
    unlike ``valid_uncertainty_patterns`` no subset count bounds the checks.
    More than ``budget`` checks raise ``BudgetExceededError``.
    """
    search = _WitnessSearch(g)
    total = 0
    for part in search.components:
        found = search.run(part, part.n_edges, budget, shrink=True)
        total += min((mask.bit_count() for mask in found), default=part.n_edges)
    return total


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
