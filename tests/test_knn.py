import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import knnfunc.knn
from knnfunc import (
    BoundaryConfig,
    build_index,
    count_reverse_neighbors,
    detect_boundary,
    knn_density,
    knn_query,
    knn_radii,
    unit_ball_volume,
)

import oracles


def test_hand_example_1d():
    idx = build_index(np.array([[0.0], [1.0], [3.0]]))
    res = knn_query(idx, np.array([[0.9]]), 2)
    assert np.allclose(res.distances[0], [0.1, 0.9])
    assert list(res.indices[0]) == [1, 0]


def test_query_on_indexed_point():
    idx = build_index(np.array([[1.0, 2.0], [3.0, 4.0]]))
    res = knn_query(idx, np.array([[3.0, 4.0]]), 1)
    assert res.distances[0, 0] == 0.0 and res.indices[0, 0] == 1


def test_single_point_index():
    idx = build_index(np.array([[2.0, 2.0]]))
    res = knn_query(idx, np.array([[0.0, 0.0]]), 1)
    assert np.isclose(res.distances[0, 0], math.sqrt(8.0))
    # several queries keep one row each, at d = 1 too
    for pts in (np.array([[2.0, 2.0]]), np.array([[2.0]])):
        queries = np.zeros((3, pts.shape[1]))
        res = knn_query(build_index(pts), queries, 1)
        assert res.distances.shape == res.indices.shape == (3, 1)
        assert np.array_equal(res.indices, np.zeros((3, 1)))


def test_duplicates_both_retrievable():
    idx = build_index(np.array([[1.0], [1.0], [5.0]]))
    res = knn_query(idx, np.array([[1.0]]), 2)
    assert list(res.indices[0]) == [0, 1]
    assert np.all(res.distances[0] == 0.0)


def test_tie_breaking_lexicographic_on_grid():
    # query equidistant from four grid corners: ties resolved by index
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    idx = build_index(pts)
    res = knn_query(idx, np.array([[1.0, 1.0]]), 3)
    assert list(res.indices[0]) == [0, 1, 2]
    brute = oracles.brute_force_knn(pts, np.array([1.0, 1.0]), 3)
    assert np.array_equal(res.indices[0], brute.indices)


def test_k_validation():
    idx = build_index(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        knn_query(idx, np.zeros(2), 4)
    with pytest.raises(ValueError):
        knn_query(idx, np.zeros(2), 0)
    with pytest.raises(ValueError):
        build_index(np.zeros((0, 2)))


def test_index_brute_force_equivalence_random():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = rng.integers(5, 400)
        d = rng.integers(1, 6)
        k = int(rng.integers(1, min(n, 20) + 1))
        pts = rng.random((n, d))
        queries = rng.random((7, d))
        idx = build_index(pts)
        fast = knn_query(idx, queries, k)
        slow = oracles.brute_force_knn(pts, queries, k)
        assert np.array_equal(fast.indices, slow.indices), f"trial {trial}"
        assert np.allclose(fast.distances, slow.distances, rtol=0, atol=1e-12)


def test_equivalence_with_duplicate_heavy_grid(monkeypatch):
    # duplicate-heavy grids at d = 2 and 3, queried at grid points and half
    # way between them: many rows have more than k references tied at their
    # k-th distance, and are asked again ever wider, a row block at a time
    # (997-slot blocks leave a ragged last block; 13-slot index re-sorts
    # make one row a block).  Coordinates are multiples of 1/2, so every
    # squared distance is exact.
    rng = np.random.default_rng(7)
    base = rng.integers(0, 4, size=(120, 2)).astype(float)  # many exact ties
    cases = [(base, rng.integers(0, 4, size=(15, 2)).astype(float), (1, 3, 8))]
    for d, values in ((2, 5), (3, 3)):
        refs = rng.integers(0, values, (400, d)).astype(float)
        queries = np.concatenate([refs[:60], rng.integers(0, 2 * values - 1, (60, d)) / 2.0])
        cases.append((refs, queries, (1, 7, 50, 200)))
    sizes = {13: 997, knnfunc.knn._BLOCK_SLOTS: knnfunc.knn._GRAPH_BLOCK_SLOTS}
    for block, graph_block in sizes.items():
        monkeypatch.setattr(knnfunc.knn, "_BLOCK_SLOTS", block)
        monkeypatch.setattr(knnfunc.knn, "_GRAPH_BLOCK_SLOTS", graph_block)
        for refs, queries, ks in cases:
            idx = build_index(refs)
            every = oracles.brute_force_knn(refs, queries, len(refs)).distances
            for k in ks:
                fast = knn_query(idx, queries, k)
                slow = oracles.brute_force_knn(refs, queries, k)
                assert np.array_equal(fast.indices, slow.indices), (refs.shape, k, block)
                assert np.array_equal(fast.distances, slow.distances), (refs.shape, k, block)
                # more references than the row keeps lie at its k-th distance
                assert ((every <= slow.distances[:, -1:]).sum(axis=1) > k).any(), k


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=40, deadline=None)
def test_monotone_distances_in_k(k, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    pts = rng.random((30, 3))
    idx = build_index(pts)
    res = knn_query(idx, rng.random((1, 3)), k)
    assert np.all(np.diff(res.distances[0]) >= 0)


def test_translation_invariance():
    rng = np.random.default_rng(3)
    pts = rng.random((100, 3))
    q = rng.random((5, 3))
    shift = np.array([10.0, -4.0, 2.5])
    a = knn_query(build_index(pts), q, 6)
    b = knn_query(build_index(pts + shift), q + shift, 6)
    assert np.array_equal(a.indices, b.indices)
    assert np.allclose(a.distances, b.distances, atol=1e-9)


def test_scaling_covariance_exact():
    rng = np.random.default_rng(4)
    pts = rng.random((64, 2))
    q = rng.random((3, 2))
    s = 2.0  # power of two: exact in floating point
    a = knn_query(build_index(pts), q, 5)
    b = knn_query(build_index(pts * s), q * s, 5)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.distances * s, b.distances)


def test_knn_radii_matches_query():
    rng = np.random.default_rng(5)
    pts = rng.random((200, 3))
    q = rng.random((20, 3))
    idx = build_index(pts)
    for k in (1, 7):
        r = knn_radii(idx, q, k)
        full = knn_query(idx, q, k)
        assert r.shape == (20,)
        assert np.allclose(r, full.distances[:, -1], atol=1e-12)


def _1d_inputs(seed):
    """References (random, duplicate-heavy, 2-decimal, symmetric about 0)
    with queries outside their range, equal to references and, for the
    symmetric set, midway between tied pairs."""
    rng = np.random.default_rng(seed)
    offsets = rng.integers(1, 40, 150).astype(float)
    refs = {
        "random": rng.random(300),
        "duplicates": rng.integers(0, 12, 300).astype(float),
        "rounded": np.round(rng.standard_normal(300), 2),
        "symmetric": rng.permutation(np.concatenate([-offsets, offsets])),
    }
    for name, s in refs.items():
        span = s.max() - s.min()
        queries = np.concatenate([
            rng.uniform(s.min() - span, s.max() + span, 40),  # outside too
            rng.choice(s, 20),  # equal to reference points
            [s.min(), s.max(), s.min() - 5.0, s.max() + 5.0, 0.0],
        ])[:, None]
        yield name, s[:, None], queries


def test_knn_radii_1d_equals_brute_force():
    # the sorted-array path must give the oracle's k-th distance exactly
    for name, refs, queries in _1d_inputs(11):
        idx = build_index(refs)
        for k in (1, 2, 37, len(refs) - 1, len(refs)):
            got = knn_radii(idx, queries, k)
            want = oracles.brute_force_knn(refs, queries, k).distances[:, -1]
            assert np.array_equal(got, want), (name, k)


def test_knn_query_1d_equals_brute_force(monkeypatch):
    # the sorted-window lists must equal the oracle's, ties by index, also
    # when tiny row blocks leave a ragged last block
    for block in (knnfunc.knn._BLOCK_SLOTS, 13):
        monkeypatch.setattr(knnfunc.knn, "_BLOCK_SLOTS", block)
        for name, refs, queries in _1d_inputs(15):
            idx = build_index(refs)
            for k in (1, 2, 37, len(refs) - 1, len(refs)):
                got = knn_query(idx, queries, k)
                want = oracles.brute_force_knn(refs, queries, k)
                assert np.array_equal(got.indices, want.indices), (name, k, block)
                assert np.array_equal(got.distances, want.distances), (name, k, block)


def test_1d_knn_query_memory_is_its_result(traced_peak):
    # the window lists are filled in row blocks: the peak is the result
    # plus a few MB, not several graph-sized temporaries
    rng = np.random.default_rng(19)
    pts = rng.random((6000, 1))
    idx = build_index(pts)
    res, peak = traced_peak(lambda: knn_query(idx, pts, 400))
    assert peak <= 1.3 * (res.distances.nbytes + res.indices.nbytes)


@pytest.mark.parametrize("d,values", [(1, 100), (2, 10)])
def test_tied_knn_query_memory_is_its_result(traced_peak, d, values):
    # every row of a duplicate-heavy self-query ties its k-th distance with
    # the (k+1)-th and is asked again ever wider: beside the result it holds
    # one widened row block, its distances and indices and their sort order
    rng = np.random.default_rng(20)
    pts = rng.integers(0, values, (20000, d)).astype(float)
    idx = build_index(pts)
    res, peak = traced_peak(lambda: knn_query(idx, pts, 50))
    block = 24 * knnfunc.knn._GRAPH_BLOCK_SLOTS
    assert peak <= 1.3 * (res.distances.nbytes + res.indices.nbytes + block)


def _tree_neighbors(index, x, k):
    """The tree's answer in place of knnfunc.knn._window_neighbors, on the
    index's sorted column put back in input order."""
    refs = np.empty((index.size, 1))
    refs[index._order, 0] = index._sorted
    dist, idx = cKDTree(refs).query(x[:, None], k=k)
    return dist.reshape(len(x), k), idx.reshape(len(x), k)


def test_1d_graph_equals_tree_graph(monkeypatch):
    # the window graph gives the reverse counts and labels the tree gave
    configs = (BoundaryConfig(),
               BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3))
    fired = 0
    for name, refs, _ in _1d_inputs(16):
        out = {}
        for path in ("window", "tree"):
            if path == "tree":
                monkeypatch.setattr(knnfunc.knn, "_window_neighbors", _tree_neighbors)
            counts = [count_reverse_neighbors(refs, K) for K in (1, 5, 40)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                labels = [detect_boundary(refs, 25, 600, cfg) for cfg in configs]
            out[path] = counts, [(b.boundary, b.q_used) for b in labels]
        monkeypatch.undo()
        for a, b in zip(out["window"][0], out["tree"][0]):
            assert np.array_equal(a, b), name
        for (ba, qa), (bb, qb) in zip(out["window"][1], out["tree"][1]):
            assert np.array_equal(ba, bb) and qa == qb, name
            fired += ba.size > 0
    assert fired >= 2  # live labels are compared, not only q >= 1


def _zorder_inputs():
    rng = np.random.default_rng(14)
    pts3 = rng.random((3000, 3))
    grid = rng.integers(0, 30, size=(3000, 2)).astype(float)
    flat = rng.random((2000, 3))
    flat[:, 1] = 0.25  # a constant column: zero span on that axis
    return {
        "random-3d": (pts3, rng.random((1500, 3))),
        "random-6d": (rng.random((3000, 6)), rng.random((1500, 6))),
        "duplicate-grid": (grid, grid[:1500]),
        "huge": (pts3 * 1e200, pts3[:1500] * 1e200),
        "huge-negative": (pts3 * -1e200, pts3[:1500] * -1e200),
        "tiny": (pts3 * 1e-160, pts3[:1500] * 1e-160),
        "widest": ((2 * pts3 - 1) * 1.7e308, (2 * pts3[:1500] - 1) * 1.7e308),
        "constant-column": (flat, flat[:1000]),
        "single-row": (pts3, pts3[:1] + 0.01),
        "zero-rows": (pts3, np.empty((0, 3))),
    }


def _outcome(call, *args):
    """The arrays call(*args) returns, or its ValueError's message."""
    try:
        out = call(*args)
    except ValueError as exc:
        return str(exc)
    if isinstance(out, knnfunc.knn.NeighborResult):
        return [out.distances, out.indices]
    if hasattr(out, "boundary"):  # BoundaryLabels
        return [out.boundary, out.nearest_interior]
    return list(out) if isinstance(out, tuple) else [out]


def test_zorder_results_equal_input_order_results(monkeypatch):
    # gate 0 stores every tree in Z-order and visits radii queries in
    # Z-order; gate size + 1 does neither
    cfg = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)
    for name, (pts, queries) in _zorder_inputs().items():
        out = []
        for gate in (len(pts) + 1, 0):
            monkeypatch.setattr(knnfunc.knn, "_ZORDER_MIN_REFS", gate)
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                idx = build_index(pts)
                assert (idx._order is not None) == (gate == 0)
                got = [_outcome(call, idx, queries, k)
                       for call in (knn_query, knn_radii) for k in (1, 7)]
                got.append(_outcome(knnfunc.knn._self_query, idx, 8, 8))
                got.append(_outcome(knn_radii, idx, pts, 8))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got.append(_outcome(detect_boundary, pts, 20, 2 * len(pts), cfg))
            out.append(got)
        for a, b in zip(*out):
            if isinstance(a, str):
                assert a == b, name
            else:
                assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True)), name


def test_index_leaves_the_callers_array_writeable(monkeypatch):
    # the index freezes a private copy, whatever path it takes: a small
    # tree, a Z-stored tree (gate 0) or the sorted copy at d = 1
    rng = np.random.default_rng(19)
    for gate, d in ((knnfunc.knn._ZORDER_MIN_REFS, 3), (0, 3), (0, 1)):
        monkeypatch.setattr(knnfunc.knn, "_ZORDER_MIN_REFS", gate)
        x, y, z = (rng.random((400, d)) for _ in range(3))
        idx = build_index(x)
        count_reverse_neighbors(y, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            detect_boundary(z, 20, 800, BoundaryConfig())
        assert x.flags.writeable and y.flags.writeable and z.flags.writeable
        assert not idx._stored_rows(slice(None)).flags.writeable
        first = x[:5].copy()
        before = knn_query(idx, first, 3)
        x[:] = 0.0  # the caller's edit leaves the index as it was
        after = knn_query(idx, first, 3)
        assert np.array_equal(before.indices, after.indices)


def test_kth_distances_at_several_k_equal_the_single_k_columns(monkeypatch):
    # one search for a sequence of ks, column by column, against one search
    # per k: the sorted window at d = 1, trees in input order and (gate 0)
    # in Z-order at d >= 2; uniform points, a tied integer grid, zero rows
    rng = np.random.default_rng(22)
    ks = (1, 3, 8, 40)
    for gate in (knnfunc.knn._ZORDER_MIN_REFS, 0):
        monkeypatch.setattr(knnfunc.knn, "_ZORDER_MIN_REFS", gate)
        for d in (1, 2, 3, 6):
            for pts in (rng.random((1200, d)), rng.integers(0, 4, size=(1200, d)) * 1.0):
                idx = build_index(pts)
                assert (idx._order is not None) == (d == 1 or gate == 0)
                for q in (rng.random((500, d)) * 3.0, pts[:500], np.empty((0, d))):
                    got = knnfunc.knn._kth_distances(idx, q, ks)
                    assert got.shape == (len(q), len(ks))
                    for col, k in enumerate(ks):
                        want = knnfunc.knn._kth_distances(idx, q, (k,))
                        assert np.array_equal(got[:, col], want[:, 0]), (gate, d, k)


def test_zorder_is_a_local_permutation():
    rng = np.random.default_rng(18)
    q = rng.random((4096, 2))
    order = knnfunc.knn._zorder(q)
    assert np.array_equal(np.sort(order), np.arange(len(q)))
    # consecutive queries are neighbours: steps far shorter than at random
    step = np.linalg.norm(np.diff(q[order], axis=0), axis=1).mean()
    assert step < 0.1 * np.linalg.norm(np.diff(q, axis=0), axis=1).mean()


def test_zorder_memory_is_a_few_row_arrays(traced_peak):
    # the key is built one axis at a time: no (d, n) copy of the points and
    # no (d, n) cell matrix, only a few n-long 8-byte arrays
    q = np.random.default_rng(21).random((70_000, 6))
    order, peak = traced_peak(lambda: knnfunc.knn._zorder(q))
    assert np.array_equal(np.sort(order), np.arange(len(q)))
    assert peak <= 6 * 8 * len(q)


def test_zstored_index_keeps_one_copy_of_its_points():
    # a Z-stored index keeps the tree's Z-ordered n x d copy and its order,
    # beside the tree's own n-long index array: no input-order copy
    pts = np.random.default_rng(22).random((1 << 14, 3))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        idx = build_index(pts)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert idx._order is not None
    n, d = pts.shape
    assert kept <= 8 * n * d + 2 * 8 * n + 4096, kept
    # the stored rows are the input rows in Z-order, read-only
    stored = idx._stored_rows(slice(None))
    assert np.array_equal(stored, pts[idx._order]) and not stored.flags.writeable


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_queries_rejected(d, bad):
    rng = np.random.default_rng(12)
    idx = build_index(rng.random((50, d)))
    q = rng.random((4, d))
    q[2, 0] = bad
    for call in (knn_radii, knn_query, knn_density):
        with pytest.raises(ValueError, match="query points must be finite"):
            call(idx, q, 5)
        # queries are an (n, d) matrix: not one point, nor another width
        with pytest.raises(ValueError, match=r"queries must be an \(n, d\) matrix"):
            call(idx, q[0], 5)
        with pytest.raises(ValueError, match=f"query dim {d + 1} != index dim {d}"):
            call(idx, np.zeros((4, d + 1)), 5)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [2, 3])
def test_overflowing_distances_raise(monkeypatch, d, k):
    # squared distances past 1e308 are infinite: the tree would return its
    # sentinel index 3 at k = 3 and fail inside its tie path at k = 2; at
    # gate 0 the tree is Z-stored, and the sentinel must not break the
    # mapping back to input rows
    pts = [[0.0], [1e300], [-1e300]] if d == 1 else [[0, 0], [1e300, 0], [-1e300, 1]]
    for gate in (knnfunc.knn._ZORDER_MIN_REFS, 0):
        monkeypatch.setattr(knnfunc.knn, "_ZORDER_MIN_REFS", gate)
        idx = build_index(pts)
        with pytest.raises(ValueError, match="distances overflow float64"):
            knn_query(idx, [pts[0]], k)
        # the nearest neighbour itself is at a finite distance
        res = knn_query(idx, [pts[0]], 1)
        assert res.indices.tolist() == [[0]] and res.distances.tolist() == [[0.0]]


def test_ordered_map_keeps_order_and_shares_out_the_cpus(monkeypatch):
    gated = knnfunc.knn._THREAD_MIN_SLOTS  # a call that may use every CPU
    for cpus, n, each in ((2, 5, 1), (4, 2, 2), (2, 1, 2), (1, 3, 1)):
        monkeypatch.setattr(knnfunc.knn, "_CPUS", cpus)
        got = knnfunc.knn._ordered_map(
            lambda x: (x, knnfunc.knn._workers(gated, 1)), range(n))
        assert got == [(x, each) for x in range(n)], (cpus, n)
        # the budget belongs to the pool's threads, not to the caller
        assert knnfunc.knn._workers(gated, 1) == cpus


def test_results_do_not_depend_on_worker_count(monkeypatch):
    # sized so that every tree call crosses the worker gate
    rng = np.random.default_rng(13)
    grid = rng.integers(0, 30, size=(3000, 2)).astype(float)
    tied = rng.integers(0, 60, size=(3000, 1)).astype(float)
    inputs = {
        "random": (rng.random((4000, 3)), rng.random((3000, 3))),
        "duplicate-grid": (grid, grid[:2500]),
        "tied-1d": (tied, tied[:2500]),
    }
    k = 20
    default_gate = knnfunc.knn._ZORDER_MIN_REFS
    out = {}
    for cpus in (1, 2):
        monkeypatch.setattr(knnfunc.knn, "_CPUS", cpus)
        for name, (pts, queries) in inputs.items():
            assert knnfunc.knn._workers(len(queries), k) == cpus
            idx = build_index(pts)
            res = knn_query(idx, queries, k)
            radii = []
            for gate in (default_gate, 0):  # input order, then Z-order
                monkeypatch.setattr(knnfunc.knn, "_ZORDER_MIN_REFS", gate)
                radii.append(knn_radii(idx, queries, k))
            out[cpus, name] = (res.distances, res.indices, *radii)
    for name in inputs:
        for a, b in zip(out[1, name], out[2, name]):
            assert np.array_equal(a, b), name


def test_ball_volume_closed_forms():
    assert math.isclose(unit_ball_volume(1), 2.0, rel_tol=1e-14)
    assert math.isclose(unit_ball_volume(2), math.pi, rel_tol=1e-14)
    assert math.isclose(unit_ball_volume(3), 4 * math.pi / 3, rel_tol=1e-14)


def test_reverse_counts_two_points():
    counts = count_reverse_neighbors(np.array([[0.0], [1.0]]), 1)
    assert list(counts) == [1, 1]


def test_reverse_counts_grid_hand_check():
    pts = np.arange(5, dtype=float)[:, None]
    counts = count_reverse_neighbors(pts, 1)
    # 1-NN graph on an equally spaced line with index tie-breaking:
    # 0->1, 1->0, 2->1, 3->2, 4->3
    assert list(counts) == list(oracles.brute_force_counts(pts, 1))
    assert counts[0] == 1 and counts[4] == 0


def test_reverse_counts_vs_brute_force_random():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(10, 120))
        d = int(rng.integers(1, 4))
        K = int(rng.integers(1, min(n - 1, 9)))
        pts = rng.random((n, d))
        assert np.array_equal(
            count_reverse_neighbors(pts, K), oracles.brute_force_counts(pts, K)
        )


def test_reverse_counts_validation():
    with pytest.raises(ValueError):
        count_reverse_neighbors(np.zeros((3, 1)), 3)
