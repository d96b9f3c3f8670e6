import math

import numpy as np
import pytest

from knnfunc import (
    Dataset,
    anomaly_scan,
    build_index,
    estimate_dimension,
    knn_radii,
    sample_projected_manifold,
)
from knnfunc.rng import make_rng


def test_dimension_line_embedded_in_plane():
    # exact 1-d manifold: points on a segment embedded in R^2
    rng = make_rng(5, "line")
    t = rng.random(4000)
    pts = np.column_stack([t, 2.0 * t + 1.0]) / math.sqrt(5)
    est = estimate_dimension(Dataset(pts), k1=10, variant="correlated", seed=3)
    assert est.d_rounded == 1
    assert est.k2 == 20  # default k2 = 2 k1


def test_dimension_gamma_invariance():
    data = sample_projected_manifold(6000, 2, 3, seed=9)
    vals = [
        estimate_dimension(data, 15, 30, gamma=g, variant="independent", seed=4).d_hat
        for g in (0.5, 1.0, 2.0)
    ]
    assert abs(vals[0] - vals[1]) < 1e-12
    assert abs(vals[1] - vals[2]) < 1e-12


def test_dimension_scale_invariance_exact():
    data = sample_projected_manifold(4000, 2, 3, seed=10)
    a = estimate_dimension(data, 12, 24, variant="correlated", seed=5)
    b = estimate_dimension(Dataset(data.points * 2.0), 12, 24,
                           variant="correlated", seed=5)
    assert abs(a.alpha_hat - b.alpha_hat) < 1e-12


def test_each_variant_queries_one_radius_per_bandwidth(monkeypatch):
    # L_k1 and L_k2 take their k-th distances from one search of the first
    # half for both ks (correlated), or from two searches, k1 of the first
    # half and k2 of the second (independent)
    import knnfunc.dimension

    data = sample_projected_manifold(2000, 2, 3, seed=12)
    perm = make_rng(6, "dimension-partition", 2000).permutation(2000)
    halves = [data.points[perm[:1000]], data.points[perm[1000:]]]
    for variant, searches, (h1, h2) in (("correlated", [(8, 20)], (0, 0)),
                                        ("independent", [(8,), (20,)], (0, 1))):
        calls = []

        def counted(index, queries, k, real=knnfunc.dimension._kth_distances):
            calls.append(k)
            return real(index, queries, k)

        with monkeypatch.context() as m:
            m.setattr(knnfunc.dimension, "_kth_distances", counted)
            est = estimate_dimension(data, 8, 20, variant=variant, alpha_frac=0.6, seed=6)
        assert calls == searches, variant
        # the same numbers from the mean log radius on each half's eval/ref split
        L1, L2 = (np.mean(np.log(knn_radii(build_index(halves[h][400:]), halves[h][:400], k)))
                  for h, k in ((h1, 8), (h2, 20)))
        assert est.alpha_hat == (L2 - L1) / (math.log(19) - math.log(7)), variant


def test_dimension_validation():
    data = sample_projected_manifold(500, 2, 3, seed=11)
    with pytest.raises(ValueError):
        estimate_dimension(data, 2)
    with pytest.raises(ValueError):
        estimate_dimension(data, 10, 10)
    with pytest.raises(ValueError):
        estimate_dimension(data, 10, 20, variant="bogus")
    with pytest.raises(ValueError, match="gamma"):
        estimate_dimension(data, 10, 20, gamma=-1.0)
    with pytest.raises(ValueError, match="zero k-NN radius"):
        estimate_dimension(Dataset(np.zeros((500, 2))), 10)


def test_anomaly_scan_detects_dimension_switch():
    rng = make_rng(12, "switch")
    T = 4000
    t = rng.random(T // 2)
    line = np.column_stack([t, t, t]) / math.sqrt(3.0)
    noise = rng.random((T // 2, 3))
    series = Dataset(np.vstack([line, noise]))
    window, stride, k1 = 800, 200, 10
    results = anomaly_scan(series, window, stride, k1)
    mids = []
    for start, est in results:
        assert est is None or est.d_rounded >= 1
        mids.append((start + window / 2, est.d_hat if est else np.nan))
    early = [d for m, d in mids if m < T / 2 - window / 2]
    late = [d for m, d in mids if m > T / 2 + window / 2]
    assert np.nanmean(early) < 1.5
    assert np.nanmean(late) > 2.2


def test_anomaly_scan_equals_estimate_dimension_on_each_window():
    # the middle of the series is one repeated point, so the windows over
    # it fail with a zero radius and are reported as None
    series = sample_projected_manifold(1600, 2, 4, seed=13).points.copy()
    series[600:900] = series[600]
    window, k1 = 320, 5
    results = anomaly_scan(Dataset(series), window, 40, k1, seed=8)
    failed = 0
    for start, est in results:
        try:
            want = estimate_dimension(Dataset(series[start : start + window]), k1,
                                      variant="correlated", seed=8)
        except ValueError:
            want = None
        assert est == want, start
        failed += est is None
    assert 0 < failed < len(results)


def test_anomaly_scan_constant_series_all_missing():
    series = Dataset(np.ones((600, 2)))
    results = anomaly_scan(series, 400, 100, 5)
    assert all(est is None for _, est in results)


def test_anomaly_scan_telemetry_shape():
    rng = make_rng(13, "telemetry")
    series = Dataset(rng.random((576, 11)))
    results = anomaly_scan(series, 320, 64, 5)
    expected_windows = (576 - 320) // 64 + 1
    assert len(results) == expected_windows
    assert all(est is not None for _, est in results)


def test_anomaly_scan_validation():
    series = Dataset(np.random.default_rng(0).random((100, 2)))
    with pytest.raises(ValueError):
        anomaly_scan(series, 200, 10, 5)
    with pytest.raises(ValueError):
        anomaly_scan(series, 50, 10, 5)  # window < 8 k2
    with pytest.raises(ValueError):
        anomaly_scan(series, 80, 0, 5)
    # a bad estimate parameter raises before any window runs, rather than
    # leaving every window blank
    for args, kwargs, name in (
        ((2,), {}, "k1"),
        ((5, 5), {}, "k2"),
        ((5,), {"gamma": 0.0}, "gamma"),
        ((5,), {"gamma": -1.0}, "gamma"),
        ((5,), {"gamma": float("nan")}, "gamma"),
        ((5,), {"alpha_frac": 5.0}, "alpha_frac"),
        ((5,), {"alpha_frac": -1.0}, "alpha_frac"),
        # inside (0, 1), but too few refs for k2 or too few eval rows
        ((5,), {"alpha_frac": 0.0001}, "alpha_frac"),
        ((5,), {"alpha_frac": 0.9999}, "alpha_frac"),
    ):
        with pytest.raises(ValueError, match=name):
            anomaly_scan(series, 80, 10, *args, **kwargs)
