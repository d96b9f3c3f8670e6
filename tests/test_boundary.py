import dataclasses
import math
import warnings

import numpy as np
import pytest

import knnfunc.boundary
import knnfunc.cli
import knnfunc.knn
from knnfunc import (
    BoundaryConfig,
    Factorization,
    bpi_estimate_bc,
    build_index,
    compare_models,
    count_reverse_neighbors,
    detect_boundary,
    knn_query,
    mutual_information,
    q_threshold,
    renyi_entropy,
    shannon_functional,
    split,
)
from knnfunc.boundary import p_k
from knnfunc.inference import generate_dataset
from knnfunc.knn import unit_ball_volume

import oracles


def test_p_k_value_at_52():
    # independent arithmetic: sqrt(6) / 52^0.4
    expected = math.sqrt(6.0) * math.exp(-0.4 * math.log(52.0))
    assert math.isclose(p_k(52, 0.8), expected, rel_tol=1e-12)
    assert abs(p_k(52, 0.8) - 0.5042) < 5e-4


def test_q_limits():
    cfg = BoundaryConfig(delta=0.8, lipschitz_L=0.0, eps0=1.0)
    # L = 0: only the concentration term survives, vanishing for large k
    q_large = q_threshold(K=50, N=1000, k=10**7, d=2, config=cfg)
    assert q_large < 1e-2
    # eps0 -> large kills the first term
    cfg2 = BoundaryConfig(delta=0.8, lipschitz_L=5.0, eps0=1e9)
    q2 = q_threshold(K=50, N=1000, k=10**7, d=2, config=cfg2)
    assert q2 < 1e-2


def test_q_degenerate_warns():
    cfg = BoundaryConfig(delta=0.8, lipschitz_L=0.0, eps0=1.0)
    with pytest.warns(RuntimeWarning, match="degenerates"):
        q = q_threshold(K=10, N=100, k=5, d=2, config=cfg)
    assert q > 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        BoundaryConfig(delta=0.5)
    with pytest.raises(ValueError):
        BoundaryConfig(delta=0.8, lipschitz_L=-1.0)
    with pytest.raises(ValueError):
        BoundaryConfig(delta=0.8, eps0="bogus")
    with pytest.raises(ValueError):
        BoundaryConfig(pk_scale=-0.1)
    # a non-finite constant would otherwise surface as "no interior points"
    for name in ("lipschitz_L", "eps0", "pk_scale"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                BoundaryConfig(**{name: bad})
    # q divides by eps0, so eps0 <= 0 fails where the config is made, before
    # detect_boundary builds its graph
    for bad in (0.0, -0.0, -1.0):
        with pytest.raises(ValueError, match="eps0 must be positive"):
            BoundaryConfig(lipschitz_L=1.0, eps0=bad)
    # a non-numeric field is named, not left to a TypeError from math or <
    for name, bad, allowed in (("delta", "0.9", ""), ("pk_scale", "0.3", ""),
                               ("lipschitz_L", None, " or 'auto'"), ("eps0", [1.0], " or 'auto'")):
        with pytest.raises(ValueError, match=f"^{name} must be a real number{allowed}, got"):
            BoundaryConfig(**{name: bad})


def test_q_threshold_takes_resolved_constants_only():
    for cfg in (BoundaryConfig(), BoundaryConfig(lipschitz_L=1.0),
                BoundaryConfig(eps0=1.0)):
        with pytest.raises(ValueError, match="auto constants must be resolved"):
            q_threshold(5, 100, 10, 2, cfg)


def test_auto_constants_pass_the_configs_checks():
    # the estimates go into a BoundaryConfig, whose checks reject them as
    # they reject given constants: on points spread so far that every K-NN
    # density underflows to 0, and on points so close that every density
    # overflows and their percentile is NaN
    points = np.random.default_rng(3).random((300, 2))
    cfg = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0="auto", pk_scale=0.1)
    for scale, message in ((1e200, "eps0 must be positive"),
                           (1e-200, "eps0 must be finite, got nan")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            detect_boundary(points * scale, 10, 600, cfg)


def _counts_and_threshold(points, k, M, cfg):
    """Independent evaluation of the labeling rule for cross-checking."""
    N, d = points.shape
    K = max(1, int(k * N / M))
    counts = oracles.brute_force_counts(points, K)
    q = (cfg.pk_scale * 2.0 * math.sqrt(6.0) / k ** (cfg.delta / 2.0)
         + (cfg.lipschitz_L / cfg.eps0)
         * (K / (unit_ball_volume(d) * N * cfg.eps0)) ** (1.0 / d))
    return counts, (1.0 - q) * K, K


def test_detect_boundary_1d_uniform_endpoints():
    rng = np.random.default_rng(77)
    pts = np.sort(rng.random(500))[:, None]
    k, M = 25, 500
    cfg = BoundaryConfig(delta=0.8, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)
    labels = detect_boundary(pts, k, M, cfg)
    lo = int(np.argmin(pts[:, 0]))
    hi = int(np.argmax(pts[:, 0]))
    assert lo in labels.boundary and hi in labels.boundary
    # cross-check every label against the brute-force counts + hand rule
    counts, thr, K = _counts_and_threshold(pts, k, M, cfg)
    assert labels.K_used == K
    expect_boundary = set(np.where(counts < thr)[0])
    assert expect_boundary == set(labels.boundary.tolist())


def test_partition_property():
    rng = np.random.default_rng(5)
    pts = rng.random((300, 2))
    cfg = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)
    labels = detect_boundary(pts, 30, 600, cfg)
    merged = np.sort(np.concatenate([labels.interior, labels.boundary]))
    assert np.array_equal(merged, np.arange(300))


def test_monotone_threshold_shrinks_boundary():
    rng = np.random.default_rng(6)
    pts = rng.random((400, 2))
    # larger pk_scale -> larger q -> lower threshold -> smaller boundary set
    cfg_low_q = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.2)
    cfg_high_q = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.6)
    b_low = set(detect_boundary(pts, 30, 800, cfg_low_q).boundary.tolist())
    b_high = set(detect_boundary(pts, 30, 800, cfg_high_q).boundary.tolist())
    assert b_high <= b_low


def test_interior_purity_at_scale():
    # deep points (beyond 2 (k/(c_d M))^(1/d) of the cube boundary) are
    # labeled interior >= 95% of the time, 20 seeded trials, d = 2 and 3.
    # Holds at moderate detector settings; at pk_scale <= 0.3 the flag rate
    # on deep points creeps to ~6% (variance/purity tradeoff).
    from knnfunc.tuning import rate_matched_k

    cfg = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.6)
    for d in (2, 3):
        good = total = 0
        for t in range(20):
            rng = np.random.default_rng(1000 + t)
            N = 2000
            M = 2 * N
            k = rate_matched_k(M, d)
            pts = rng.random((N, d))
            depth = 2.0 * (k / (unit_ball_volume(d) * M)) ** (1.0 / d)
            deep = (pts.min(axis=1) > depth) & ((1 - pts).min(axis=1) > depth)
            labels = detect_boundary(pts, k, M, cfg)
            interior_mask = np.zeros(N, dtype=bool)
            interior_mask[labels.interior] = True
            good += int(np.sum(interior_mask & deep))
            total += int(np.sum(deep))
        assert good / total >= 0.95, f"d={d}: purity {good/total:.3f}"


def test_detected_boundary_concentrates_near_faces_2d_beta():
    # Beta(4,4)^2 sample: detected boundary points sit closer to the unit
    # square's faces than interior points do, on average
    from knnfunc import sample_beta_uniform_mixture

    data = sample_beta_uniform_mixture(3000, 2, 4, 4, 0.0, seed=42)
    pts = data.points
    cfg = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)
    labels = detect_boundary(pts, 30, 7000, cfg)
    assert labels.n_boundary > 10
    face_dist = np.minimum(pts.min(axis=1), (1 - pts).min(axis=1))
    assert face_dist[labels.boundary].mean() < face_dist[labels.interior].mean()


def test_nearest_interior_against_brute_force():
    rng = np.random.default_rng(9)
    pts = rng.random((250, 2))
    cfg = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.2)
    labels = detect_boundary(pts, 25, 500, cfg)
    assert labels.n_boundary > 0
    for b, src in zip(labels.boundary, labels.nearest_interior):
        dists = np.linalg.norm(pts[labels.interior] - pts[b], axis=1)
        best = dists.min()
        got = np.linalg.norm(pts[src] - pts[b])
        assert got <= best + 1e-12


def test_degenerate_inputs():
    cfg = BoundaryConfig()
    for same in (np.ones((50, 2)), np.full((50, 3), 1e-9)):
        with pytest.raises(ValueError, match="identical"):
            detect_boundary(same, 5, 100, cfg)
    # distinct points closer together than any absolute tolerance are valid
    tiny = np.random.default_rng(0).random((50, 2)) * 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert detect_boundary(tiny, 5, 100, cfg).n_interior == 50
    with pytest.raises(ValueError):
        detect_boundary(np.random.default_rng(0).random((50, 2)), 2, 100, cfg)
    bad = np.random.default_rng(0).random((50, 2))
    bad[3, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        detect_boundary(bad, 5, 100, BoundaryConfig(lipschitz_L=0.0, eps0=1.0))
    with pytest.raises(ValueError, match=r"an \(N, d\) matrix; got shape \(50,\)"):
        detect_boundary(bad[:, 0], 5, 100, cfg)
    # M < 1 is refused before K = k*N/M is computed
    live = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)
    for M in (0, -5):
        with pytest.raises(ValueError, match=rf"M must be >= 1, got {M}"):
            detect_boundary(np.random.default_rng(41).random((200, 2)), 5, M, live)


def test_default_config_is_verbatim_and_inert_at_desk_scale():
    # with pk_scale = 1 the threshold degenerates for moderate k: documented
    rng = np.random.default_rng(10)
    pts = rng.random((500, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        labels = detect_boundary(pts, 20, 1000, BoundaryConfig())
    assert labels.n_boundary == 0
    assert labels.q_used > 1.0


# -- one shared evaluation-set graph ------------------------------------------

def _recompute_labels(points, k, M, cfg):
    """detect_boundary rebuilt from the public pieces: the "auto" constants
    from their own (K+1)-NN self-query, q_threshold, count_reverse_neighbors
    and a brute-force nearest interior point."""
    N, d = points.shape
    K = max(1, int(k * N / M))
    L, e0 = cfg.lipschitz_L, cfg.eps0
    if "auto" in (L, e0):
        res = knn_query(build_index(points), points, K + 1)
        radii = np.maximum(res.distances[:, -1], 1e-300)
        dens = K / ((N - 1) * unit_ball_volume(d) * radii**d)
        if e0 == "auto":
            e0 = float(np.percentile(dens, 10.0))
        if L == "auto":
            dst = np.maximum(res.distances[:, 1:], 1e-300)
            L = float(np.percentile(np.abs(dens[res.indices[:, 1:]] - dens[:, None]) / dst, 95.0))
    q = q_threshold(K, N, k, d, dataclasses.replace(cfg, lipschitz_L=L, eps0=e0))
    interior_mask = count_reverse_neighbors(points, K) >= (1.0 - q) * K
    interior = np.where(interior_mask)[0]
    boundary = np.where(~interior_mask)[0]
    if interior.size == 0:
        return "no interior"
    nearest = np.empty(0, dtype=np.intp)
    if boundary.size:
        picks = oracles.brute_force_knn(
            points[interior], points[boundary], 1
        ).indices[:, 0]
        nearest = interior[picks]
    return interior, boundary, nearest, q


_SHARED_GRAPH_CONFIGS = [
    BoundaryConfig(),
    BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0="auto", pk_scale=0.1),
    BoundaryConfig(delta=0.9, lipschitz_L="auto", eps0=1e6, pk_scale=0.1),
    BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3),
    BoundaryConfig(delta=0.9, lipschitz_L=2.0, eps0=1.0, pk_scale=0.3),
]


def _shared_graph_inputs():
    rng = np.random.default_rng(7)
    grid = rng.integers(0, 4, size=(120, 2)).astype(float)  # test_knn's grid
    rand = np.random.default_rng(31).random((400, 3))
    ties = np.round(np.random.default_rng(32).random((300, 1)) * 60) / 60
    return {"random": (rand, 20, 800), "grid": (grid, 30, 150), "ties1d": (ties, 12, 300)}


@pytest.mark.parametrize("name", ["random", "grid", "ties1d"])
def test_detect_boundary_equals_recomputation_from_public_pieces(name):
    points, k, M = _shared_graph_inputs()[name]
    fired = 0
    for cfg in _SHARED_GRAPH_CONFIGS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = _recompute_labels(points, k, M, cfg)
            if isinstance(want, str):
                with pytest.raises(ValueError, match=want):
                    detect_boundary(points, k, M, cfg)
                continue
            labels = detect_boundary(points, k, M, cfg)
        interior, boundary, nearest, q = want
        assert np.array_equal(labels.interior, interior), cfg
        assert np.array_equal(labels.boundary, boundary), cfg
        assert np.array_equal(labels.nearest_interior, nearest), cfg
        assert labels.q_used == q, cfg
        fired += labels.n_boundary > 0
    assert fired >= 2  # the comparison covers live labels, not only q >= 1


def test_row_blocks_do_not_change_counts_or_labels(monkeypatch):
    # tiny row blocks, with a ragged last block, give byte-identical counts
    # and labels: the graph's own knn_query blocks (tree path at d = 2, 3,
    # window path at d = 1), the d = 1 window lists, the "auto" constants,
    # the counts and the nearest interior points are each made a block at a time
    inputs = dict(_shared_graph_inputs(),
                  uniform1d=(np.random.default_rng(36).random((400, 1)), 20, 800))
    out = {}
    sizes = {13: 997, knnfunc.knn._BLOCK_SLOTS: knnfunc.knn._GRAPH_BLOCK_SLOTS}
    for block, graph_block in sizes.items():
        monkeypatch.setattr(knnfunc.knn, "_BLOCK_SLOTS", block)
        monkeypatch.setattr(knnfunc.knn, "_GRAPH_BLOCK_SLOTS", graph_block)
        for name, (points, k, M) in inputs.items():
            out[block, name, "counts"] = [count_reverse_neighbors(points, K) for K in (1, 5, 40)]
            for i, cfg in enumerate(_SHARED_GRAPH_CONFIGS):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    try:
                        out[block, name, i] = detect_boundary(points, k, M, cfg)
                    except ValueError as exc:
                        out[block, name, i] = str(exc)
    fired = 0
    for (block, name, key), want in out.items():
        if block == 13:
            continue
        got = out[13, name, key]
        if key == "counts":
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), name
        elif isinstance(want, str):
            assert got == want, (name, key)
        else:
            assert np.array_equal(got.interior, want.interior), (name, key)
            assert np.array_equal(got.boundary, want.boundary), (name, key)
            assert np.array_equal(got.nearest_interior, want.nearest_interior), (name, key)
            assert (got.q_used, got.threshold_used) == (want.q_used, want.threshold_used)
            fired += want.n_boundary > 0
    assert fired >= 4  # live labels are compared, not only q >= 1


def test_detection_memory_is_graph_and_ratios(traced_peak):
    # the detector holds at most an int32 (K+1)-NN graph and, with
    # L = "auto", the N*K edge ratios, beside one block of a query (16
    # bytes a slot), also when many points are boundary
    # (pk_scale = 0 puts the threshold at K); d = 1 takes the window path,
    # d = 3 the tree, where an "auto" eps0 would put q above 1
    block = 16 * knnfunc.knn._GRAPH_BLOCK_SLOTS
    for pts, K, eps0 in ((np.random.default_rng(37).random((4000, 1)), 300, "auto"),
                         (np.random.default_rng(38).random((20000, 3)), 60, 4.0)):
        graph = len(pts) * (K + 1) * 4
        ratios = len(pts) * K * 8
        for cfg, budget in (
            (BoundaryConfig(delta=0.9, lipschitz_L="auto", eps0=eps0, pk_scale=0.1),
             graph + ratios + block),
            (BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.0), graph + block),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                labels, peak = traced_peak(lambda: detect_boundary(pts, K, len(pts), cfg))
            assert labels.K_used == K and labels.q_used < 1.0
            assert peak <= 1.3 * budget, (pts.shape, cfg, peak)
        assert labels.n_boundary > len(pts) // 5


def test_auto_L_detection_memory_is_the_ratios_at_d1(traced_peak):
    # an "auto" L keeps the N*K edge ratios (8 bytes each), and fills them
    # a row block of about _BLOCK_SLOTS slots at a time: the block's
    # distances, indices and density differences, 24 bytes a slot.  With the
    # int32 head of the self-query that follows, that is the budget; an
    # N*(K+1) int32 graph beside the ratios would not fit
    N, K = 6000, 600
    pts = np.random.default_rng(40).random((N, 1))
    cfg = BoundaryConfig(delta=0.9, lipschitz_L="auto", eps0=4.0, pk_scale=0.1)
    labels, peak = traced_peak(lambda: detect_boundary(pts, K, N, cfg))
    assert labels.K_used == K and labels.q_used < 1.0 and labels.n_boundary > 0
    ratios, head = 8 * N * K, 4 * N * knnfunc.boundary._HEAD
    block = 24 * knnfunc.knn._BLOCK_SLOTS
    assert peak <= 1.15 * (ratios + head + block), peak
    assert 1.15 * (ratios + head + block) < ratios + 4 * N * (K + 1)


def test_detection_memory_does_not_grow_with_K_at_d1(traced_peak):
    # with numeric constants the detector keeps no (K+1)-wide graph: at
    # d = 1 (N = 8,000) its peak at K + 1 = 400 is that at K + 1 = 100
    # within one block of the self-query (16 bytes a slot)
    pts = np.random.default_rng(39).random((8000, 1))
    cfg = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)
    peaks = {}
    for K in (99, 399):
        labels, peaks[K] = traced_peak(lambda: detect_boundary(pts, K, len(pts), cfg))
        assert labels.K_used == K and labels.n_boundary > 0
    assert peaks[399] <= peaks[99] + 16 * knnfunc.knn._GRAPH_BLOCK_SLOTS, peaks


def test_live_renyi_estimate_memory_is_the_int32_graph(traced_peak):
    # a live-config Renyi estimate at d = 1 (N = 9,000, K = 326): its peak is
    # the detector's int32 graph and one block of the graph's query
    data = generate_dataset("beta_uniform_mixture", 30000, 2024,
                            {"d": 1, "a": 4, "b": 4, "eps": 0.2})
    sp = split(data, 0.7, 2024)
    live = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)
    report, peak = traced_peak(lambda: renyi_entropy(data, sp, 0.5, 761, config=live))
    N, K = report.N, int(761 * report.N / report.M)
    assert (N, K) == (9000, 326) and report.boundary_corrected
    assert peak <= 1.3 * (4 * N * (K + 1) + 16 * knnfunc.knn._GRAPH_BLOCK_SLOTS)


def _count_graph_calls(monkeypatch, points, k, M, cfg):
    """Calls to build_index and knn_query made by detect_boundary, and how
    many of the queries are the evaluation set's self-query, its rows in
    any order (the index's storage order, say).  Both the boundary and the
    knn module bindings are counted, so a graph built inside a knn helper
    such as count_reverse_neighbors counts too."""
    calls = {"build_index": 0, "knn_query": 0, "self_queries": 0}
    real_build, real_query = knnfunc.boundary.build_index, knnfunc.boundary.knn_query

    def sorted_rows(a):
        a = np.asarray(a)
        return a[np.lexsort(a.T)]

    def build(pts):
        calls["build_index"] += 1
        return real_build(pts)

    def query(index, q, kk):
        calls["knn_query"] += 1
        calls["self_queries"] += (index.size == len(points)
                                  and np.array_equal(sorted_rows(q), sorted_rows(points)))
        return real_query(index, q, kk)

    for module in (knnfunc.boundary, knnfunc.knn):
        monkeypatch.setattr(module, "build_index", build)
        monkeypatch.setattr(module, "knn_query", query)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        labels = detect_boundary(points, k, M, cfg)
    monkeypatch.undo()
    return calls, labels


def test_degenerate_configs_build_one_evaluation_graph(monkeypatch):
    # "auto" constants need an index over the evaluation set, and an "auto"
    # L one knn_query pass over its points, to find q >= 1; numeric ones
    # give q before any index is built, and no graph follows
    pts = np.random.default_rng(33).random((500, 3))
    for cfg, graphs in ((BoundaryConfig(), 1),
                        (BoundaryConfig(delta=0.8, lipschitz_L=0.0, eps0=1.0, pk_scale=1.0), 0)):
        calls, labels = _count_graph_calls(monkeypatch, pts, 20, 1000, cfg)
        assert labels.q_used >= 1.0 and labels.n_boundary == 0, cfg
        assert calls == {"build_index": graphs, "knn_query": graphs, "self_queries": graphs}, cfg


def test_degenerate_default_config_takes_no_reverse_counts(monkeypatch):
    # BoundaryConfig() resolves its "auto" constants, finds q >= 1 and
    # returns before the self-query that counts reverse neighbours; a live
    # config makes that one self-query
    calls = []
    real = knnfunc.boundary._self_query

    def self_query(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(knnfunc.boundary, "_self_query", self_query)
    pts = np.random.default_rng(33).random((500, 3))
    with pytest.warns(RuntimeWarning, match="degenerates"):
        labels = detect_boundary(pts, 20, 1000, BoundaryConfig())
    assert labels.q_used >= 1.0 and labels.n_boundary == 0 and calls == []
    live = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0="auto", pk_scale=0.1)
    assert detect_boundary(pts, 20, 1000, live).n_boundary > 0
    assert calls == [(11, 11)]


def test_default_config_builds_no_evaluation_graph(monkeypatch, tmp_path):
    # with config None the estimators read only the k-th radii into the
    # references; knn_query, which builds the detector's graph, never runs
    calls = []
    real_query = knnfunc.knn.knn_query

    def query(index, q, kk):
        calls.append(kk)
        return real_query(index, q, kk)

    for module in (knnfunc.boundary, knnfunc.knn):
        monkeypatch.setattr(module, "knn_query", query)
    data = generate_dataset("beta_uniform_mixture", 4000, 3,
                            {"d": 3, "a": 4, "b": 4, "eps": 0.2})
    sp = split(data, 0.7, 3)
    csv = tmp_path / "mix.csv"
    np.savetxt(csv, data.points, delimiter=",")
    bpi_estimate_bc(data, sp, shannon_functional(), 20)
    renyi_entropy(data, sp, 0.5, 20)
    mutual_information(data, sp, [0], [1, 2], 20)
    compare_models(data, Factorization(((0,), (1, 2)), "a"),
                   Factorization(((0, 1), (2,)), "b"), 12)
    assert knnfunc.cli.run(["entropy", "--input", str(csv),
                            "-o", str(tmp_path / "entropy.json")]) == 0
    assert calls == []
    live = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)
    bpi_estimate_bc(data, sp, shannon_functional(), 20, config=live)
    assert calls  # the counter sees a live detector's graph


def test_live_configs_share_one_evaluation_graph(monkeypatch):
    rng = np.random.default_rng(34)
    for pts in (rng.random((500, 2)), rng.random((500, 1))):  # tree and d = 1 window
        for cfg in (BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0="auto", pk_scale=0.1),
                    BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)):
            calls, labels = _count_graph_calls(monkeypatch, pts, 20, 1000, cfg)
            assert labels.n_boundary > 0
            # the self-query also gives every boundary point an interior neighbour
            assert calls == {"build_index": 1, "knn_query": 1, "self_queries": 1}, cfg


def test_nearest_interior_fallback_queries_only_rows_without_an_interior_neighbour(monkeypatch):
    # L = 0 and pk_scale = 0 put the threshold at K itself, so about a third
    # of the points are boundary, and at K = 2 a few have only boundary
    # points among their 3 nearest; their nearest interior point needs the
    # interior tree (the tree path at d = 2, the window path at d = 1)
    cfg = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.0)
    rng = np.random.default_rng(35)
    for pts in (rng.random((300, 2)), rng.random((300, 1))):
        calls, labels = _count_graph_calls(monkeypatch, pts, 3, 360, cfg)
        assert labels.K_used == 2
        graph = knn_query(build_index(pts), pts, 3)
        interior_mask = np.zeros(len(pts), dtype=bool)
        interior_mask[labels.interior] = True
        lonely = [b for b in labels.boundary if not interior_mask[graph.indices[b]].any()]
        assert lonely
        # one more index build and query, for the lonely rows
        assert calls == {"build_index": 2, "knn_query": 2, "self_queries": 1}
        want = oracles.brute_force_knn(pts[labels.interior], pts[labels.boundary], 1)
        assert np.array_equal(labels.nearest_interior, labels.interior[want.indices[:, 0]])
