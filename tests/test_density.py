import math

import numpy as np
import pytest

from knnfunc import (
    BoundaryConfig,
    build_index,
    corrected_density,
    detect_boundary,
    knn_density,
)
from knnfunc.boundary import BoundaryLabels
from knnfunc.knn import unit_ball_volume
from knnfunc.tuning import rate_matched_k


def test_knn_density_uniform_interior_value():
    # one k=100 estimate has relative sd ~ 1/sqrt(k) = 10%, so check the
    # average over spread-out interior queries against f = 1
    rng = np.random.default_rng(0)
    refs = rng.random((10_000, 1))
    idx = build_index(refs)
    queries = np.linspace(0.1, 0.9, 17)[:, None]
    est = knn_density(idx, queries, 100)
    assert abs(est.values.mean() - 1.0) < 0.1
    assert np.all(np.abs(est.values - 1.0) < 0.4)


def test_knn_density_k_equals_M_formula():
    refs = np.array([[0.0], [1.0], [2.0], [4.0]])
    idx = build_index(refs)
    est = knn_density(idx, np.array([[0.0]]), 4)
    d_max = 4.0
    expected = (4 - 1) / (4 * unit_ball_volume(1) * d_max)
    assert math.isclose(est.values[0], expected, rel_tol=1e-14)


def test_knn_density_scaling_covariance_exact():
    rng = np.random.default_rng(1)
    refs = rng.random((500, 3))
    queries = rng.random((40, 3))
    s = 2.0
    a = knn_density(build_index(refs), queries, 10).values
    b = knn_density(build_index(refs * s), queries * s, 10).values
    assert np.array_equal(a, b * s**3)


def test_knn_density_translation_invariance_exact():
    rng = np.random.default_rng(2)
    refs = rng.random((300, 2))
    queries = rng.random((20, 2))
    shift = np.array([3.0, -7.0])
    a = knn_density(build_index(refs), queries, 8).values
    b = knn_density(build_index(refs + shift), queries + shift, 8).values
    assert np.allclose(a, b, rtol=1e-12)


def test_knn_density_positivity():
    rng = np.random.default_rng(3)
    refs = rng.random((200, 2))
    vals = knn_density(build_index(refs), rng.random((50, 2)), 5).values
    assert np.all(vals > 0) and np.all(np.isfinite(vals))


def test_knn_density_duplicate_error_names_point():
    refs = np.vstack([np.full((5, 2), 0.25), np.random.default_rng(4).random((20, 2))])
    idx = build_index(refs)
    with pytest.raises(ValueError, match="duplicate"):
        knn_density(idx, np.array([[0.25, 0.25]]), 4)


def test_knn_density_k_bounds():
    idx = build_index(np.random.default_rng(5).random((50, 2)))
    with pytest.raises(ValueError):
        knn_density(idx, np.zeros((1, 2)), 2)  # k >= 3 required
    with pytest.raises(ValueError):
        knn_density(idx, np.zeros((1, 2)), 51)


def test_corrected_identity_when_all_interior():
    rng = np.random.default_rng(6)
    refs = rng.random((400, 2))
    ev = rng.random((100, 2))
    idx = build_index(refs)
    labels = BoundaryLabels(
        interior=np.arange(100), boundary=np.array([], dtype=int),
        nearest_interior=np.array([], dtype=np.intp), threshold_used=0.0, K_used=5, q_used=0.5,
    )
    a = knn_density(idx, ev, 6).values
    b = corrected_density(idx, ev, 6, labels).values
    assert np.array_equal(a, b)


def test_corrected_single_boundary_copies_source():
    rng = np.random.default_rng(7)
    refs = rng.random((300, 2))
    ev = rng.random((50, 2))
    idx = build_index(refs)
    labels = BoundaryLabels(
        interior=np.arange(1, 50), boundary=np.array([0]),
        nearest_interior=np.array([17]), threshold_used=1.0, K_used=5, q_used=0.5,
    )
    est = corrected_density(idx, ev, 6, labels)
    base = knn_density(idx, ev, 6)
    assert est.values[0] == base.values[17]
    assert np.array_equal(est.values[1:], base.values[1:])


def test_corrected_reduces_near_boundary_error_2d_uniform():
    # 20 seeded trials on the unit square: corrected estimates at points
    # within one nominal k-NN radius of the boundary beat standard ones
    # (truth f = 1), with a detector configured to actually fire.
    cfg = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.1)
    wins = 0
    for t in range(20):
        rng = np.random.default_rng(100 + t)
        N, M = 2000, 8000
        k = rate_matched_k(M, 2)
        ev = rng.random((N, 2))
        refs = rng.random((M, 2))
        idx = build_index(refs)
        labels = detect_boundary(ev, k, M, cfg)
        std = knn_density(idx, ev, k).values
        cor = corrected_density(idx, ev, k, labels).values
        width = (k / (unit_ball_volume(2) * M)) ** 0.5
        near = (ev.min(axis=1) < width) | ((1 - ev).min(axis=1) < width)
        err_std = np.mean(np.abs(std[near] - 1.0))
        err_cor = np.mean(np.abs(cor[near] - 1.0))
        wins += int(err_cor < err_std)
    assert wins >= 16, f"corrected beat standard in only {wins}/20 trials"
