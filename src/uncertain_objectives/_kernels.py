"""Hot array kernels, vectorized with numpy.

Graphs are batched as int64 bit-rows: ``rows[g, i]`` has bit ``j`` set when
graph ``g`` contains the edge i -> j, so a batch holds at most 62 worlds.
The pattern search in ``constraints`` runs on Python-int closures and does
not call the batch kernels (``closure_rows``, ``cyclic_flags``,
``pattern_valid_flags``), and the path scan in ``beliefs`` takes its bounds
from its own running sums, not from ``path_slacks``; these remain as batch
oracles for tests and as names the benchmark tracer wraps.  The library
calls only ``pairwise_matrix``.
"""

from __future__ import annotations

import numpy as np

# The only implementation; kept as a name because benchmark results are
# stamped with it, and results with different stamps are not compared.
BACKEND = "numpy"


def closure_rows(rows: np.ndarray) -> np.ndarray:
    """Batched Warshall transitive closure over bit-rows, shape (G, n)."""
    closed = rows.copy()
    n = closed.shape[1]
    for k in range(n):
        has_k = (closed >> k) & 1
        closed |= has_k * closed[:, k : k + 1]
    return closed


def cyclic_flags(closed: np.ndarray) -> np.ndarray:
    n = closed.shape[1]
    diag = (closed >> np.arange(n, dtype=np.int64)) & 1
    return diag.any(axis=1)


def pattern_valid_flags(
    remaining: np.ndarray, removed_u: np.ndarray, removed_v: np.ndarray
) -> np.ndarray:
    """Per row: the kept edges' closure is acyclic and forces neither
    direction between any of the row's removed endpoint pairs."""
    closed = closure_rows(remaining)
    valid = ~cyclic_flags(closed)
    g = remaining.shape[0]
    idx = np.arange(g)
    for j in range(removed_u.shape[1]):
        u = removed_u[:, j]
        v = removed_v[:, j]
        forced_uv = (closed[idx, u] >> v) & 1
        forced_vu = (closed[idx, v] >> u) & 1
        valid &= (forced_uv == 0) & (forced_vu == 0)
    return valid


def pairwise_matrix(orders: np.ndarray, probs: np.ndarray, n: int) -> np.ndarray:
    """Z[a, b] = total probability of orders ranking a above b, in the units
    of ``probs``: float64, or integer numerators as ``path_slacks`` takes them.
    ``orders`` lists world indices best-first, shape (m, k) with k == n.
    """
    m = orders.shape[0]
    pos = np.empty((m, n), dtype=np.int64)
    rows = np.arange(m)[:, None]
    pos[rows, orders] = np.arange(n)[None, :]
    above = pos[:, :, None] < pos[:, None, :]
    return np.einsum("m,mab->ab", probs, above)


def path_slacks(z: np.ndarray, paths: np.ndarray, one=1.0) -> np.ndarray:
    """Violation slack of the chained-bound check for each path.

    ``paths`` holds world indices, shape (P, k); slack > 0 means the span
    probability z[first, last] lies outside [lower, upper] by that amount.
    ``z`` holds probabilities in units of ``one``: float64 with ``one = 1.0``,
    or integer numerators (int64 or object arrays of Python ints) over a
    common denominator ``one``, whose slacks are then exact numerators.
    """
    step = z[paths[:, :-1], paths[:, 1:]]
    total = step.sum(axis=1)
    upper = np.minimum(one, total)
    lower = np.maximum(one - one, one - ((one - step).sum(axis=1)))
    span = z[paths[:, 0], paths[:, -1]]
    return np.maximum(lower - span, span - upper)
