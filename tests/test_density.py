import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knnfunc.density
import knnfunc.knn
from knnfunc import (
    BoundaryConfig,
    build_index,
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


# a live detector config; the label tests patch the detector it runs
_CFG = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.1)


def _corrected(index, queries, k, labels):
    """knn_density under _CFG, with the detector patched to return labels."""
    with mock.patch.object(knnfunc.density, "detect_boundary", lambda *args: labels):
        return knn_density(index, queries, k, _CFG)


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
    b = _corrected(idx, ev, 6, labels).values
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
    est = _corrected(idx, ev, 6, labels)
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
        std = knn_density(idx, ev, k).values
        cor = knn_density(idx, ev, k, cfg).values
        width = (k / (unit_ball_volume(2) * M)) ** 0.5
        near = (ev.min(axis=1) < width) | ((1 - ev).min(axis=1) < width)
        err_std = np.mean(np.abs(std[near] - 1.0))
        err_cor = np.mean(np.abs(cor[near] - 1.0))
        wins += int(err_cor < err_std)
    assert wins >= 16, f"corrected beat standard in only {wins}/20 trials"


def _labels(n, boundary, nearest_interior):
    boundary = np.asarray(boundary, dtype=np.intp)
    return BoundaryLabels(
        interior=np.setdiff1d(np.arange(n), boundary), boundary=boundary,
        nearest_interior=np.asarray(nearest_interior, dtype=np.intp),
        threshold_used=1.0, K_used=5, q_used=0.5,
    )


def _outcome(call, *args):
    """The density values call(*args) returns, or its ValueError's message."""
    try:
        return call(*args).values
    except ValueError as exc:
        return str(exc)


def _copy_formula(index, queries, k, labels):
    """The correction computed from every radius: the standard values, then
    each boundary point's overwritten with its nearest interior point's."""
    vals = knn_density(index, queries, k).values
    vals[labels.boundary] = vals[labels.nearest_interior]
    return knnfunc.density.DensityEstimates(values=vals, labels=labels)


def _same(a, b):
    return a == b if isinstance(a, str) else np.array_equal(a, b)


@st.composite
def _correction_cases(draw):
    """(refs, queries, k, labels, Z-stored): uniform or grid points (grid
    points repeat, so some radii tie and some are zero), and labels with a
    random boundary, no boundary, or every point but one on it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 3]))
    M, N = draw(st.integers(10, 300)), draw(st.integers(2, 80))
    k = draw(st.integers(3, min(M, 12)))
    if draw(st.booleans()):
        refs, queries = rng.random((M, d)), rng.random((N, d))
    else:
        side = draw(st.integers(2, 6))
        refs, queries = (rng.integers(0, side, size=(n, d)).astype(float) for n in (M, N))
    shape = draw(st.sampled_from(["random", "none", "all-but-one"]))
    if shape == "none":
        boundary = []
    elif shape == "all-but-one":
        boundary = np.delete(np.arange(N), rng.integers(N))
    else:
        boundary = np.flatnonzero(rng.random(N) < rng.random())
        boundary = boundary[boundary != rng.integers(N)]  # keep one interior
    interior = np.setdiff1d(np.arange(N), boundary)
    labels = _labels(N, boundary, rng.choice(interior, size=len(boundary)))
    return refs, queries, k, labels, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_correction_cases())
def test_corrected_equals_copying_over_every_radius(case):
    # bit for bit, or the same zero-radius error naming the same query
    refs, queries, k, labels, zstored = case
    gate = 0 if zstored else knnfunc.knn._ZORDER_MIN_REFS
    with mock.patch.object(knnfunc.knn, "_ZORDER_MIN_REFS", gate):
        idx = build_index(refs)
    assert (idx._order is not None) == (zstored or refs.shape[1] == 1)
    got = _outcome(_corrected, idx, queries, k, labels)
    want = _outcome(_copy_formula, idx, queries, k, labels)
    assert _same(got, want)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("zstored", [False, True])
@pytest.mark.parametrize("where", ["boundary", "interior", "underflow", "both"])
def test_corrected_zero_radius_error_is_knn_densitys(monkeypatch, d, zstored, where):
    # k references at (or, for "underflow", about 1e-170 from) query 7, a
    # boundary point, or query 10, an interior one; "both" has them at 7
    # and 10 with the boundary point first
    if zstored:
        monkeypatch.setattr(knnfunc.knn, "_ZORDER_MIN_REFS", 0)
    rng = np.random.default_rng(11)
    k = 5
    refs, queries = rng.random((200, d)) + 1.0, rng.random((40, d)) + 1.0
    labels = _labels(40, np.arange(2, 40, 5), np.arange(0, 40, 5))
    assert 7 in labels.boundary and 10 in labels.interior
    rows = {"boundary": [7], "interior": [10], "underflow": [7], "both": [7, 10]}[where]
    for j, row in enumerate(rows):
        queries[row] = 0.0
        refs[j * k:(j + 1) * k] = 0.0
        if where == "underflow":
            refs[:k, 0] = np.arange(k) * 1e-170  # distinct, squares underflow
        else:
            queries[row] += j
            refs[j * k:(j + 1) * k] += j
    idx = build_index(refs)
    with pytest.raises(ValueError, match="zero k-NN distance") as info:
        _corrected(idx, queries, k, labels)
    with pytest.raises(ValueError) as want:
        knn_density(idx, queries, k)
    assert str(info.value) == str(want.value)
    assert str(info.value).startswith(f"query {rows[0]} at")


def test_corrected_queries_radii_at_interior_points_only(monkeypatch):
    # and returns the labels detect_boundary gives the queries
    rng = np.random.default_rng(12)
    refs, ev = rng.random((2000, 2)), rng.random((800, 2))
    labels = detect_boundary(ev, 10, 2000, _CFG)
    assert labels.n_boundary > 0
    rows = []

    def spy(index, queries, k):
        rows.append(len(queries))
        return knn_radii(index, queries, k)

    knn_radii = knnfunc.density.knn_radii
    monkeypatch.setattr(knnfunc.density, "knn_radii", spy)
    est = knn_density(build_index(refs), ev, 10, _CFG)
    assert rows == [labels.n_interior]
    assert np.array_equal(est.labels.boundary, labels.boundary)
    assert np.array_equal(est.labels.nearest_interior, labels.nearest_interior)
