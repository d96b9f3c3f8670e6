"""Exact k-nearest-neighbor machinery.

The accelerated index wraps a k-d tree (axis-aligned space partitioning
with exact backtracking) and adds deterministic tie resolution: neighbors
are ordered by (squared distance, reference index) lexicographically, so
any two correct implementations return identical results, duplicates
included.  This module alone decides how the exact work runs: large tree
calls use every CPU the process may run on, and at d = 1 the k-th
distances come from a sorted array; neither changes a result.
"""

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "NeighborIndex",
    "NeighborResult",
    "build_index",
    "knn_query",
    "knn_radii",
    "ball_volume",
    "unit_ball_volume",
    "count_reverse_neighbors",
]


# CPUs this process may run on: under pinning, not the host's core count
try:
    _CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # platforms without affinity masks
    _CPUS = os.cpu_count() or 1

# scipy starts fresh threads on every tree call, about 1 ms each.  Measured
# cKDTree.query times, workers=1 vs 2 on a 2-core host (M = 20000 uniform
# references, median of 3x8-30 repeats), as rows x k slots:
#   d=1:  20,000 3.0 vs 4.3 ms;  32,000 4.9 vs 4.9;  80,000 12.7 vs 11.4
#   d=3:  20,000 7.0 vs 8.7 ms;  32,000 12.1 vs 11.9; 80,000 24.8 vs 19.6
#   d=6:   6,300 7.2 vs 8.2 ms;  20,000 25.7 vs 17.9; 80,000 83.9 vs 56.0
# Below about 2^15 slots threads lose at d <= 3, so smaller calls run on one.
_THREAD_MIN_SLOTS = 1 << 15


def _workers(rows: int, k: int) -> int:
    """Worker count for one tree call over rows queries of about k slots."""
    return _CPUS if rows * k >= _THREAD_MIN_SLOTS else 1


@dataclass(frozen=True)
class NeighborResult:
    """distances: (n, k) nondecreasing rows; indices: (n, k) reference rows."""

    distances: np.ndarray
    indices: np.ndarray


class NeighborIndex:
    """Immutable spatial index over a fixed reference point set."""

    def __init__(self, points: np.ndarray):
        points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("index requires a nonempty 2-d point matrix")
        if not np.all(np.isfinite(points)):
            raise ValueError("index points must be finite")
        points.setflags(write=False)
        self.points = points
        self.size = points.shape[0]
        self.dim = points.shape[1]
        self._tree = cKDTree(points)
        # d = 1 k-th distances come from a sorted copy, without the tree
        self._sorted = np.sort(points[:, 0]) if self.dim == 1 else None

    def __repr__(self):
        return f"NeighborIndex(size={self.size}, dim={self.dim})"


def build_index(points) -> NeighborIndex:
    return NeighborIndex(points)


def _as_queries(query, dim):
    q = np.asarray(query, dtype=np.float64)
    single = q.ndim == 1
    if single:
        q = q[None, :]
    if q.shape[1] != dim:
        raise ValueError(f"query dim {q.shape[1]} != index dim {dim}")
    if not np.all(np.isfinite(q)):
        raise ValueError("query points must be finite")
    return q, single


def _lexsorted_neighbors(points, queries, cand_indices, k):
    """Order candidate indices by (squared distance, index), truncate to k."""
    n = len(queries)
    dist = np.empty((n, k))
    idx = np.empty((n, k), dtype=np.intp)
    for i in range(n):
        cand = np.asarray(cand_indices[i], dtype=np.intp)
        diff = points[cand] - queries[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        order = np.lexsort((cand, d2))[:k]
        dist[i] = np.sqrt(d2[order])
        idx[i] = cand[order]
    return dist, idx


def knn_query(index: NeighborIndex, query, k: int) -> NeighborResult:
    """Exact k nearest neighbors with (distance, index) tie-breaking.

    Fast path: a plain tree query.  Whenever the k-th distance is tied with
    the (k+1)-th (duplicates, grids), the candidate set within that radius
    is re-ranked lexicographically so the returned set is deterministic.
    Tree rows come back sorted by distance, so only rows holding two equal
    adjacent distances are re-sorted by index.
    """
    if not 1 <= k <= index.size:
        raise ValueError(f"k={k} outside [1, {index.size}]")
    q, single = _as_queries(query, index.dim)
    kk = min(k + 1, index.size)
    dist, idx = index._tree.query(q, k=kk, workers=_workers(len(q), kk))
    dist = np.atleast_2d(dist)
    idx = np.atleast_2d(idx)
    if kk > k:
        ambiguous = dist[:, k - 1] >= dist[:, k] * (1 - 1e-12)
    else:
        ambiguous = np.zeros(len(q), dtype=bool)
    out_d = dist[:, :k].copy()
    out_i = idx[:, :k].astype(np.intp)
    if ambiguous.any():
        rows = np.where(ambiguous)[0]
        radii = dist[rows, min(k, kk - 1)] * (1 + 1e-12) + 1e-300
        cands = index._tree.query_ball_point(
            q[rows], radii, workers=_workers(len(rows), kk)
        )
        # ball query can undershoot k on exotic float edge cases; widen once
        for j, c in enumerate(cands):
            if len(c) < k:
                cands[j] = index._tree.query_ball_point(
                    q[rows[j]], dist[rows[j], kk - 1] * (1 + 1e-9)
                )
        fixed_d, fixed_i = _lexsorted_neighbors(index.points, q[rows], cands, k)
        out_d[rows] = fixed_d
        out_i[rows] = fixed_i
    # order equal distances by index; rows without a tie are already sorted
    tied = np.where((out_d[:, 1:] <= out_d[:, :-1]).any(axis=1))[0]
    if tied.size:
        order = np.lexsort((out_i[tied], out_d[tied]), axis=1)
        out_d[tied] = np.take_along_axis(out_d[tied], order, axis=1)
        out_i[tied] = np.take_along_axis(out_i[tied], order, axis=1)
    if single:
        return NeighborResult(out_d[0], out_i[0])
    return NeighborResult(out_d, out_i)


def knn_radii(index: NeighborIndex, queries, k: int) -> np.ndarray:
    """k-th nearest-neighbor distances only (tie-insensitive, fast path)."""
    if not 1 <= k <= index.size:
        raise ValueError(f"k={k} outside [1, {index.size}]")
    q, single = _as_queries(queries, index.dim)
    if index._sorted is not None:
        with np.errstate(over="ignore"):  # inf past 1e154, as the tree gives
            r = _kth_distance_sorted(index._sorted, q[:, 0], k)
    else:
        dist, _ = index._tree.query(q, k=[k], workers=_workers(len(q), k))
        r = dist[:, 0]
    return r[0] if single else r


def _kth_distance_sorted(s: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """k-th nearest distance from each x to the sorted 1-d references s.

    The k nearest of x are a window s[j..j+k-1] with p-k <= j <= p, where
    p = searchsorted(s, x); the k-th distance is the least over j of
    f(j) = max(x - s[j], s[j+k-1] - x).  The right term grows with j and
    the left shrinks, so a vectorised binary search finds the first j
    where right >= left, and the answer is f there or just before.  The
    result is returned as sqrt(r*r), the tree's own arithmetic, so it is
    bit-identical to cKDTree.query's (squaring and sqrt are monotone).
    """
    p = np.searchsorted(s, x)
    lo = np.maximum(p - k, 0)
    hi = np.minimum(p, len(s) - k)
    a, b = lo, hi + 1  # first j in [lo, hi] with right >= left, or hi + 1
    while True:
        active = a < b
        if not active.any():
            break
        mid = np.minimum((a + b) // 2, hi)
        right_wins = s[mid + k - 1] - x >= x - s[mid]
        b = np.where(active & right_wins, mid, b)
        a = np.where(active & ~right_wins, mid + 1, a)
    at_j = np.where(a <= hi, s[np.minimum(a, hi) + k - 1] - x, np.inf)
    before_j = np.where(a > lo, x - s[np.maximum(a - 1, lo)], np.inf)
    r = np.minimum(at_j, before_j)
    return np.sqrt(r * r)


def _ball_counts(index: NeighborIndex, queries, radius: float, k: int) -> np.ndarray:
    """Number of reference points within radius of each query; the ball is
    sized to hold about k of them, which is what the worker gate weighs."""
    q, _ = _as_queries(queries, index.dim)
    return index._tree.query_ball_point(
        q, radius, return_length=True, workers=_workers(len(q), k)
    )


def unit_ball_volume(d: int) -> float:
    """Volume of the Euclidean unit ball, pi^(d/2) / Gamma(d/2 + 1)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def ball_volume(radius: float, d: int) -> float:
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return unit_ball_volume(d) * radius**d


def count_reverse_neighbors(points, K: int) -> np.ndarray:
    """count(i) = number of other points having point i among their K
    nearest neighbors (self excluded)."""
    points = np.asarray(points, dtype=np.float64)
    N = len(points)
    if K >= N:
        raise ValueError("K must be < number of points")
    if K < 1:
        raise ValueError("K must be >= 1")
    return _reverse_counts(knn_query(build_index(points), points, K + 1))


def _reverse_counts(graph: NeighborResult) -> np.ndarray:
    """Reverse K-NN counts from a self-query of N points at K+1."""
    cols = np.atleast_2d(graph.indices)
    N = len(cols)
    self_mask = cols == np.arange(N)[:, None]
    keep = ~self_mask
    # rows whose own point was displaced from its K+1 list by duplicates:
    # all K+1 entries are non-self, so drop the farthest instead
    no_self = ~self_mask.any(axis=1)
    keep[no_self, -1] = False
    counts = np.zeros(N, dtype=np.int64)
    np.add.at(counts, cols[keep], 1)
    return counts
