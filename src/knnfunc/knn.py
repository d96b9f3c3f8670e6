"""Exact k-nearest-neighbor machinery.

The accelerated index wraps a k-d tree (axis-aligned space partitioning
with exact backtracking) and adds deterministic tie resolution: neighbors
are ordered by (squared distance, reference index) lexicographically, so
any two correct implementations return identical results, duplicates
included.  This module alone decides how the exact work runs, and none of
its choices changes a result:

- large tree calls use every CPU the process may run on;
- _ordered_map runs independent jobs, such as Monte Carlo trials, as
  threads over those CPUs, and a tree call inside a job gets the CPUs left
  over: one apiece once every CPU has a job;
- an index stores its points once, as the tree's own data with leaves of
  _LEAFSIZE points: a large index at d >= 2 (_ZORDER_MIN_REFS points or
  more) in Z-order (a Morton key), one at d = 1 as the (value,
  index)-sorted column, and any other in input order; tree rows are
  mapped back to input rows before ties are ranked;
- queries are an (n, d) matrix, one point a row, and every k-th distance
  comes from one search (_kth_distances), which answers a sequence of ks
  (the dimension estimate's k1 and k2) with one tree search; against
  a Z-stored index it visits the queries in Z-order too, so consecutive
  queries walk the same part of the tree, and scatters the distances back
  to input order;
- at d = 1 the k nearest of a point are a window of the sorted column,
  which gives the k-th distances directly, one window search per k, with
  no tree search; neighbour lists come from the tree at every d;
- the reverse counts of a d = 1 self-query come from the windows' bounds
  by one prefix sum (_window_counts), with no neighbour list for any point
  whose window has no tie at its edge;
- the zero-distance check is the same search bounded at 1e-150, so it
  visits little more than each query's own leaf;
- one loop ranks every row holding a tie by a row-wise lexsort on
  (distance, index), a row block at a time; a row whose k-th distance ties
  its (k+1)-th is asked again, twice as wide each time, until the tie is
  passed;
- any other self-query (_self_query), such as the boundary detector's at
  d >= 2, is one knn_query per row block of stored rows, read as views, in
  storage order.  Each block adds its reverse counts and keeps the first
  columns of its rows that the caller asks for, as int32 indices; the
  rest is dropped before the next block, so no (N, k) graph is stored
  unless every column is kept.  At d = 1 with no columns kept, only the
  points whose windows tie go through it.
"""

import math
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "NeighborIndex",
    "NeighborResult",
    "build_index",
    "knn_query",
    "knn_radii",
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


# the CPUs a tree call may use in this thread: unset means all of _CPUS
_budget = threading.local()


# The "auto" detector's estimate of L (boundary._resolve_auto) fills its
# N*K edge ratios a row block of about this many slots at a time, so its
# knn_query results stay a few MB beside the ratios.  It is kept apart from
# _GRAPH_BLOCK_SLOTS: at 2^18 the "auto" detector's tracemalloc peak on
# large-estimate's evaluation sets (N = 30,000) rose from 4.7 to 10.1 MiB
# at d = 6 and from 11.1 to 18.1 MiB at d = 3.
_BLOCK_SLOTS = 1 << 15

# A self-query (_self_query) runs one knn_query per row block of about
# this many slots.  Beside what it keeps, a block's distances and indices
# take 16 bytes a slot, and its reverse-count mask and entries 9 more once
# the distances are dropped.  Measured detect_boundary time and
# tracemalloc peak with a numeric config on a 2-core host, median of 7
# (large-estimate's evaluation sets, N = 30,000: d = 3 with K + 1 = 38,
# d = 6 with K + 1 = 7):
#   d=3:  2^16 76 ms 5.7 MB;  2^17 74 ms 6.8 MB;  2^18 74 ms 9.0 MB;
#         2^19 76 ms 13.6 MB
#   d=6:  2^16 103 ms 4.4 MB;  2^17 97 ms 5.7 MB;  2^18 96 ms 7.2 MB;
#         2^19 97 ms 7.2 MB
# Each block is one more tree call and one more N-long bincount.  The
# widened queries of tied rows (knn_query) go in blocks of this size too.
# count_reverse_neighbors on 20,000 points with K = 50, median of 9
# with the sizes alternated, took 111 vs 135 ms at 2^17 vs 2^18 (d = 1,
# 100 values, when d = 1 lists came from sorted windows), 204 vs 218 ms
# (d = 2, 10 values an axis) and 228 vs 244 ms (d = 3, 10 values an
# axis).  So 2^17 would be no slower here and would
# hold about 2 MB less; it stays 2^18 until a benchmark run sizes that
# change on its own.  At d = 1 only the rows _window_counts leaves
# unsettled take this path.
_GRAPH_BLOCK_SLOTS = 1 << 18


def _row_blocks(n: int, k: int, slots: int = 0):
    """Slices covering n rows of k slots each, about slots (by default
    _BLOCK_SLOTS) slots a slice."""
    step = max(1, (slots or _BLOCK_SLOTS) // max(k, 1))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def _workers(rows: int, k: int) -> int:
    """Worker count for one tree call over rows queries of about k slots."""
    if rows * k < _THREAD_MIN_SLOTS:
        return 1
    return getattr(_budget, "cpus", _CPUS)


def _ordered_map(func, items) -> list:
    """[func(x) for x in items], run on min(_CPUS, len(items)) threads.

    Each thread's tree calls share out the CPUs: one worker apiece once
    there are as many threads as CPUs.  Threads need no pickling and share
    nothing mutable with one another as long as each func(x) draws from its
    own generator, which is what keeps the results those of the serial
    loop.  At the first failure the items not yet started are cancelled;
    those are all later than it, as the threads take items in order, so
    the failure raised, the first in item order, is the serial loop's.
    """
    items = list(items)
    width = max(1, min(_CPUS, len(items)))
    cpus = max(1, _CPUS // width)

    def set_budget():
        _budget.cpus = cpus

    pool = ThreadPoolExecutor(width, initializer=set_budget)
    try:
        futures = [pool.submit(func, x) for x in items]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    return [f.result() for f in futures]


# A large index stores its points in Z-order, and k-th-radius queries into
# it visit the queries in Z-order too: a leaf's points sit together in
# memory and consecutive queries walk the same part of the tree, so more of
# it stays in cache.  The keys and their argsorts cost a few ms.  Measured
# times in ms of build_index + knn_radii / build_index + self-query on a
# 2-core host (the mixture split 0.7: M references, N = 3M/7 queries and
# graph points, large-estimate's rate-matched k, the detector's K + 1;
# median of 9, configurations interleaved), by storage order, query order
# and leaf size:
#   d  M       input, 16    Z queries, 16  Z-stored, 16  input, 24    Z-stored, 24
#   3  112       0.1/0.1      0.2/0.1        0.3/0.2       0.1/0.1      0.3/0.2
#   3  3,000     7.4/4.0      8.0/4.0        7.7/4.0       8.1/4.0      8.5/3.9
#   3  7,000    16.1/9.6     16.5/9.4       16.7/9.7      16.3/9.1     16.0/8.9
#   6  7,000    42.9/24.0    45.6/23.9      43.8/23.8     40.3/21.7    42.5/18.5
#   3  16,384   49.6/28.1    49.6/27.6      48.9/28.3     52.1/28.5    50.1/29.2
#   6  16,384   81.1/46.2    75.0/43.8      76.9/44.5     79.7/45.4    75.8/43.9
#   3  32,768    137/70.5     128/70.4       128/71.9      137/72.7     127/72.3
#   6  32,768    222/121      179/121        194/113       228/122      194/115
#   3  70,000    407/199      367/203        368/185       376/181      334/180
#   6  70,000    653/321      491/307        545/255       609/304      390/253
# Leaves of 32, Z-stored, took 337/188 and 437/265 ms at M = 70,000.  Small
# indices fit in cache anyway: below 2^14 Z-order gains nothing, and the
# 112-reference halves of a 320-row dimension-scan window would pay for its
# keys, so they, and monte-carlo's 7,000- and 3,000-point trees, keep input
# order.  From 2^14 to 2^15 the orders are level within this host's noise
# (about 10%); at 70,000 Z-storage with leaves of 24 is fastest at both d.
_ZORDER_MIN_REFS = 1 << 14
_LEAFSIZE = 24


@dataclass(frozen=True)
class NeighborResult:
    """distances: (n, k) nondecreasing rows; indices: (n, k) reference rows."""

    distances: np.ndarray
    indices: np.ndarray


class NeighborIndex:
    """Immutable spatial index over a fixed reference point set.

    The points are stored once, in storage order, as the data of the one
    tree: the (value, index)-sorted column at d = 1, the Z-ordered copy of
    a large index at d >= 2, or else a private input-order copy.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("index requires a nonempty 2-d point matrix")
        if not np.all(np.isfinite(points)):
            raise ValueError("index points must be finite")
        self.size = points.shape[0]
        self.dim = points.shape[1]
        # _order, when set, is the storage order: stored row j is input
        # row _order[j].  Each stored copy is private, so freezing it leaves
        # the caller's array writeable.  _sorted, at d = 1 only, is the
        # stored column, where _kth_distances and _window_counts find their
        # windows
        self._order = None
        if self.dim == 1:
            self._order = np.argsort(points[:, 0], kind="stable")
        elif self.size >= _ZORDER_MIN_REFS:
            self._order = _zorder(points)
        stored = np.array(points, order="C") if self._order is None else points[self._order]
        stored.setflags(write=False)
        self._tree = cKDTree(stored, leafsize=_LEAFSIZE)
        self._sorted = self._tree.data[:, 0] if self.dim == 1 else None

    def __repr__(self):
        return f"NeighborIndex(size={self.size}, dim={self.dim})"


def build_index(points) -> NeighborIndex:
    return NeighborIndex(points)


def _as_queries(query, dim):
    """query as a float64 (n, dim) matrix of finite points, else ValueError."""
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError(f"queries must be an (n, d) matrix; got shape {q.shape}")
    if q.shape[1] != dim:
        raise ValueError(f"query dim {q.shape[1]} != index dim {dim}")
    if not np.all(np.isfinite(q)):
        raise ValueError("query points must be finite")
    return q


def _nearest(index: NeighborIndex, q: np.ndarray, k: int):
    """(distances, indices), each (n, k), of the k nearest of each query
    row as cKDTree.query gives them: rows nondecreasing in distance, equal
    distances in no set order, indices of input rows."""
    dist, idx = index._tree.query(q, k=k, workers=_workers(len(q), k))
    idx = idx.reshape(len(q), k)
    if index._order is not None:
        # tree rows to input rows; the tree's sentinel (index size, which
        # marks an overflowed distance) is clipped, and knn_query raises on
        # any such distance it would keep
        index._order.take(idx, mode="clip", out=idx)
    return dist.reshape(len(q), k), idx


def _by_distance_then_index(d, i, k):
    """The first k of each row of (d, i) in (distance, index) order."""
    order = np.lexsort((i, d), axis=1)[:, :k]
    return np.take_along_axis(d, order, axis=1), np.take_along_axis(i, order, axis=1)


def knn_query(index: NeighborIndex, query, k: int) -> NeighborResult:
    """Exact k nearest neighbors with (distance, index) tie-breaking, of
    each row of an (n, d) query matrix: (n, k) distances and indices.

    One lookup of the k + 1 nearest (_nearest) settles every row whose
    distances all differ.  A row holding equal ones is ranked by
    (distance, index), a row block at a time.  If its k-th distance also
    equals its last, the lookup may have left out a reference at the k-th
    distance with a lower index, so the row is asked again with twice as
    many neighbours until its last distance passes the k-th or the width
    reaches the index size.  A neighbour whose squared distance overflows
    float64 cannot be ranked, so it raises ValueError.
    """
    if not 1 <= k <= index.size:
        raise ValueError(f"k={k} outside [1, {index.size}]")
    q = _as_queries(query, index.dim)
    kk = min(k + 1, index.size)
    dist, idx = _nearest(index, q, kk)
    # points and queries are finite, so an infinite distance is an overflowed
    # square, which the tree also marks with index size (its sentinel)
    if np.isinf(dist[:, :k]).any():
        raise ValueError(
            "squared neighbour distances overflow float64 (coordinates "
            "differ by more than about 1e154); rescale the points"
        )
    # views, not copies: dist and idx belong to this call, and the pass
    # below writes into them
    out_d = dist[:, :k]
    out_i = idx[:, :k].astype(np.intp, copy=False)
    # rows holding equal distances are ranked first at the width in hand;
    # one whose k-th distance still equals its last is asked again
    rows, width = np.where((dist[:, 1:] <= dist[:, :-1]).any(axis=1))[0], kk
    while rows.size:
        left = []
        for block in _row_blocks(rows.size, width, _GRAPH_BLOCK_SLOTS):
            r = rows[block]
            d, i = (dist[r], idx[r]) if width == kk else _nearest(index, q[r], width)
            done = (d[:, -1] > d[:, k - 1]) | (width == index.size)
            out_d[r[done]], out_i[r[done]] = _by_distance_then_index(d[done], i[done], k)
            left.append(r[~done])
        rows = np.concatenate(left)
        width = min(2 * width, index.size)
    return NeighborResult(out_d, out_i)


def knn_radii(index: NeighborIndex, queries, k: int) -> np.ndarray:
    """k-th nearest-neighbor distances, one per row of an (n, d) query matrix."""
    if not 1 <= k <= index.size:
        raise ValueError(f"k={k} outside [1, {index.size}]")
    return _kth_distances(index, _as_queries(queries, index.dim), (k,))[:, 0]


def _kth_distances(index: NeighborIndex, q: np.ndarray, ks, upper=np.inf):
    """k-th nearest distances of each row of the checked query matrix q for
    each k of the sequence ks, as an (n, len(ks)) matrix from one search:
    column l is what cKDTree.query gives for k = ks[l] alone.  The tree
    searches out to upper only and gives inf past it, so a bound of 1e-150
    (a positive normal float squared) leaves little more than each query's
    own leaf to visit.  At d = 1 the sorted window gives every distance,
    one window search per k, as sqrt(r*r), the tree's own arithmetic, so
    bit for bit the tree's (squaring and sqrt are monotone).
    """
    ks = list(ks)
    if index._sorted is not None:
        s, x = index._sorted, q[:, 0]
        dist = np.empty((len(q), len(ks)))
        with np.errstate(over="ignore"):  # inf past 1e154, as the tree gives
            for col, k in enumerate(ks):
                j = _window_start(s, x, k)
                r = np.maximum(x - s[j], s[j + k - 1] - x)
                dist[:, col] = np.sqrt(r * r)
        return dist
    order = None if index._order is None else _zorder(q)
    dist, _ = index._tree.query(q if order is None else q[order], k=ks,
                                distance_upper_bound=upper,
                                workers=_workers(len(q), max(ks)))
    if order is None:
        return dist
    r = np.empty_like(dist)
    r[order] = dist
    return r


def _zorder(q: np.ndarray) -> np.ndarray:
    """A permutation of the rows of q along a Morton (Z-order) curve.

    Each of the first 63 axes is cut into up to 2^10 cells over the rows'
    own range and the cell numbers' bits are interleaved into one 63-bit
    key.  Coordinates are halved first, so no span overflows, and a zero
    span puts every row in cell 0.  The key is built one axis at a time,
    so beside it a few n-long arrays are alive.  The order only moves work
    around: each query is answered on its own, whatever the order.
    """
    if len(q) < 2:  # no range to cut, and nothing to reorder
        return np.arange(len(q))
    axes = min(q.shape[1], 63)
    bits = min(10, 63 // axes)
    # spread[c] holds bit b of c at bit b * axes, leaving room for the rest
    c = np.arange(1 << bits, dtype=np.uint64)
    spread = np.zeros(1 << bits, dtype=np.uint64)
    for b in range(bits):
        spread |= ((c >> np.uint64(b)) & np.uint64(1)) << np.uint64(b * axes)
    key = np.zeros(len(q), dtype=np.uint64)
    for a in range(axes):
        # (half - lo) / span * (2^bits - 1), in place
        x = q[:, a] * 0.5
        lo = x.min()
        span = x.max() - lo
        x -= lo
        x /= span if span else 1.0
        x *= (1 << bits) - 1
        part = spread[x.astype(np.intp)]
        part <<= np.uint64(a)
        key |= part
    return np.argsort(key)


def _window_start(s: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """Start j of a window s[j..j+k-1] of the k nearest of each x among the
    sorted 1-d references s.

    With p = searchsorted(s, x), p-k <= j <= p, and the window's k-th
    distance f(j) = max(x - s[j], s[j+k-1] - x) is least at j.  The right
    term grows with j and the left shrinks, so a vectorised binary search
    finds the first j where right >= left; the answer is that j or the one
    before it, whichever has the smaller f.  Every point outside the window
    is then at least f(j) away.
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
    # both infinite only when x - s overflows; any window is as good then
    return np.where(before_j < at_j, a - 1, np.minimum(a, hi))


def unit_ball_volume(d: int) -> float:
    """Volume of the Euclidean unit ball, pi^(d/2) / Gamma(d/2 + 1)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def count_reverse_neighbors(points, K: int) -> np.ndarray:
    """count(i) = number of other points having point i among their K
    nearest neighbors (self excluded)."""
    points = np.asarray(points, dtype=np.float64)
    N = len(points)
    if K >= N:
        raise ValueError("K must be < number of points")
    if K < 1:
        raise ValueError("K must be >= 1")
    return _self_query(build_index(points), K + 1)[0]


def _self_query(index: NeighborIndex, k: int, keep: int = 0):
    """(counts, head): one k-NN self-query of the index's own N points, by
    one knn_query per row block of about _GRAPH_BLOCK_SLOTS slots, the
    blocks taken in storage order and their queries read as views of the
    stored rows.

    counts are the reverse (k - 1)-NN counts, self excluded; head holds
    the first keep int32 indices of each point's row in (distance, index)
    order.  The rest of a block is dropped before the next block's query.
    At d = 1 with no head, the sorted windows settle the counts of most
    points (_window_counts), and only the rest are queried.
    """
    N = index.size
    if N > np.iinfo(np.int32).max:
        raise ValueError("a self-query graph holds fewer than 2^31 points")
    counts = np.zeros(N, dtype=np.int64)
    head = np.empty((N, keep), dtype=np.int32)
    if index._sorted is not None and not keep:
        covered, todo = _window_counts(index._sorted, k)
        counts[index._order] = covered
        blocks = [todo[b] for b in _row_blocks(todo.size, k, _GRAPH_BLOCK_SLOTS)]
    else:
        blocks = _row_blocks(N, k, _GRAPH_BLOCK_SLOTS)
    for rows in blocks:
        src = np.arange(rows.start, rows.stop) if index._order is None else index._order[rows]
        nbrs = knn_query(index, index._tree.data[rows], k).indices
        head[src] = nbrs[:, :keep]
        is_self = nbrs == src[:, None]
        # a row whose own point was displaced from its k list by duplicates
        # has k non-self entries, so its farthest is dropped instead
        displaced = ~is_self.any(axis=1)
        counted = np.logical_not(is_self, out=is_self)
        counted[displaced, -1] = False
        counts += np.bincount(nbrs[counted], minlength=N)
        del nbrs, is_self, counted  # before the next block's query
    return counts, head


def _window_counts(s: np.ndarray, k: int):
    """(covered, todo) for the k-NN self-query of the sorted 1-d column s.

    Stored row j's k nearest are the window s[w..w+k-1] found by
    _window_start when the nearest point outside it is farther than the
    window's farthest, in the sqrt(r*r) distances knn_query ranks by: the
    row is settled.  Its own point, at distance 0, is then in the window,
    and so is every copy of its value.  The other rows, todo, have a tie
    at the window's edge, or a squared distance that overflows, and go to
    knn_query.  covered[p] counts the settled rows, other than p itself,
    whose window holds stored row p: +1 at each window's start and -1 past
    its end, summed by one cumsum (reverse-NN counting from windows, Korn
    and Muthukrishnan, SIGMOD 2000).
    """
    N = len(s)
    w = _window_start(s, s, k)
    with np.errstate(over="ignore"):  # inf past 1e154, as the tree gives
        far = np.maximum(s - s[w], s[w + k - 1] - s)
        near = np.minimum(np.where(w > 0, s - s[np.maximum(w - 1, 0)], np.inf),
                          np.where(w + k < N, s[np.minimum(w + k, N - 1)] - s, np.inf))
        settled = np.sqrt(near * near) > np.sqrt(far * far)
    starts = w[settled]
    edges = np.bincount(starts, minlength=N + 1)
    edges -= np.bincount(starts + k, minlength=N + 1)
    covered = np.cumsum(edges[:N])
    covered -= settled
    return covered, np.flatnonzero(~settled)
