import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from uncertain_objectives import _kernels

from conftest import (
    random_distribution,
    random_graph,
    reference_pairwise,
    reference_path_slacks,
    reference_pattern_valid,
    reference_reachability,
)


def random_rows(rng: np.random.Generator, n_graphs: int, n: int) -> np.ndarray:
    dense = rng.random((n_graphs, n, n)) < 0.35
    for i in range(n):
        dense[:, i, i] = False
    rows = np.zeros((n_graphs, n), dtype=np.int64)
    for j in range(n):
        rows |= dense[:, :, j].astype(np.int64) << j
    return rows


def scalar_closure(row: list[int]) -> list[int]:
    """Warshall closure of one graph's bit-rows, one pair at a time."""
    closed = list(row)
    n = len(closed)
    for k in range(n):
        for i in range(n):
            if closed[i] >> k & 1:
                closed[i] |= closed[k]
    return closed


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(1234)
    return random_rows(rng, 2000, 5)


def test_backends_agree_on_closure_and_cycles(batch):
    """The batched numpy closure and cycle flags equal a scalar Warshall
    loop run graph by graph over a dense random batch."""
    closed = _kernels.closure_rows(batch)
    cyclic = _kernels.cyclic_flags(closed)
    n = batch.shape[1]
    for gi, row in enumerate(batch.tolist()):
        want = scalar_closure(row)
        assert closed[gi].tolist() == want
        assert bool(cyclic[gi]) == any(want[i] >> i & 1 for i in range(n))


def test_backends_agree_on_single_edge_patterns(batch):
    """Whether a graph has a valid single-edge uncertainty pattern, from
    pattern_valid_flags over every edge of the batch, equals a scalar check."""
    n = batch.shape[1]
    owner, rows, ru, rv = [], [], [], []
    for gi, row in enumerate(batch.tolist()):
        for u in range(n):
            for v in range(n):
                if row[u] >> v & 1:
                    kept = list(row)
                    kept[u] &= ~(1 << v)
                    owner.append(gi)
                    rows.append(kept)
                    ru.append([u])
                    rv.append([v])
    flags = _kernels.pattern_valid_flags(
        np.array(rows, dtype=np.int64),
        np.array(ru, dtype=np.int64),
        np.array(rv, dtype=np.int64),
    )
    got = np.zeros(len(batch), dtype=bool)
    np.logical_or.at(got, np.array(owner), flags)
    for gi, row in enumerate(batch.tolist()):
        want = False
        for u in range(n):
            for v in range(n):
                if not row[u] >> v & 1:
                    continue
                kept = list(row)
                kept[u] &= ~(1 << v)
                closed = scalar_closure(kept)
                acyclic = not any(closed[i] >> i & 1 for i in range(n))
                want |= acyclic and not (closed[u] >> v & 1 or closed[v] >> u & 1)
        assert bool(got[gi]) == want
    assert got.any() and not got.all()


def test_closure_matches_reference_implementation():
    rng = random.Random(55)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 6), rng.randint(1, 8))
        idx = {w: i for i, w in enumerate(g.worlds)}
        rows = np.array([g.bit_rows()], dtype=np.int64)
        closed = _kernels.closure_rows(rows)
        reach = reference_reachability(g)
        for a in g.worlds:
            for b in g.worlds:
                got = bool(closed[0, idx[a]] >> idx[b] & 1)
                assert got == ((a, b) in reach)
        cyclic = any((w, w) in reach for w in g.worlds)
        assert bool(_kernels.cyclic_flags(closed)[0]) == cyclic


def test_pattern_flags_match_reference():
    # Every row of a batch removes the same number of edges, so the batches
    # go one subset size at a time.
    rng = random.Random(56)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 5), rng.randint(2, 6))
        idx = {w: i for i, w in enumerate(g.worlds)}
        for k in range(0, 3):
            subsets = list(itertools.combinations(range(len(g.edges)), k))
            rows = np.array([g.bit_rows(frozenset(s)) for s in subsets], dtype=np.int64)
            ru = np.array(
                [[idx[g.edges[ei].worse] for ei in s] for s in subsets], dtype=np.int64
            ).reshape(len(subsets), k)
            rv = np.array(
                [[idx[g.edges[ei].better] for ei in s] for s in subsets], dtype=np.int64
            ).reshape(len(subsets), k)
            flags = _kernels.pattern_valid_flags(rows, ru, rv)
            for subset, got in zip(subsets, flags):
                assert bool(got) == reference_pattern_valid(g, subset)


def test_pairwise_matrix_matches_reference():
    rng = random.Random(77)
    for _ in range(20):
        d = random_distribution(rng, rng.randint(2, 5), rng.randint(1, 12))
        n = len(d.worlds)
        idx = {w: i for i, w in enumerate(d.worlds)}
        orders = np.array([[idx[w] for w in o] for o in d.orders], dtype=np.int64)
        probs = np.array([float(p) for p in d.probs])
        z = _kernels.pairwise_matrix(orders, probs, n)
        for (a, b), want in reference_pairwise(d).items():
            if a != b:
                assert abs(z[idx[a], idx[b]] - float(want)) < 1e-12


def test_path_slacks_match_reference():
    rng = np.random.default_rng(78)
    n = 6
    z = rng.random((n, n))
    z = np.triu(z, 1)
    z = z + np.triu(1 - z, 1).T
    np.fill_diagonal(z, 0.5)
    for k in (2, 3, 4):
        paths = np.array(list(itertools.permutations(range(n), k)), dtype=np.int64)
        want = reference_path_slacks(z.tolist(), paths.tolist())
        assert np.allclose(_kernels.path_slacks(z, paths), want, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_path_slacks_on_integer_numerators(dtype):
    # Numerators over one = d give exact slacks: slack / d is the Fraction
    # reference's slack.
    rng = random.Random(79)
    n = 6
    for d in (1, 4, 12, 60):
        frac = [[Fraction(1, 2)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = Fraction(rng.randint(0, d), d)
                frac[i][j], frac[j][i] = v, 1 - v
        one = 2 * d  # a common denominator, 1/2 included
        z = np.array([[int(v * one) for v in row] for row in frac], dtype=dtype)
        for k in (2, 3, 4, 5):
            paths = np.array(list(itertools.permutations(range(n), k)), dtype=np.int64)
            want = reference_path_slacks(frac, paths.tolist(), one=Fraction(1))
            got = _kernels.path_slacks(z, paths, one)
            assert [Fraction(int(g), one) for g in got] == want
