"""Exact k-nearest-neighbor machinery.

The accelerated index wraps a k-d tree (axis-aligned space partitioning
with exact backtracking) and adds deterministic tie resolution: neighbors
are ordered by (squared distance, reference index) lexicographically, so
any two correct implementations return identical results, duplicates
included.
"""

import math
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
    dist, idx = index._tree.query(q, k=kk)
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
        cands = index._tree.query_ball_point(q[rows], radii)
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
    dist, _ = index._tree.query(q, k=[k])
    r = dist[:, 0]
    return r[0] if single else r


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
