"""The two density estimators.

standard k-NN:      f_hat(X) = (k-1) / (M * c_d * d_k(X)^d)
boundary-corrected: f_hat at interior points, nearest-interior value at
                    boundary points

Both estimates are strictly positive whenever the k-NN radius is nonzero;
a zero radius (k-fold duplicate collision) is a data error and raises.  The
corrected estimate queries radii at the interior points only: a boundary
point's own value is never used, so it gets no radius query, only the same
k-th-distance search bounded at 1e-150, compared with zero, which keeps the
error the same.  Queries are an (n, d) matrix, one point a row.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boundary import BoundaryLabels
from .knn import NeighborIndex, _as_queries, _kth_distances, knn_radii, unit_ball_volume

__all__ = [
    "DensityEstimates",
    "knn_density",
    "corrected_density",
]


@dataclass(frozen=True)
class DensityEstimates:
    """Per-evaluation-point density values, and the boundary labels that
    corrected them (None for the standard estimate)."""

    values: np.ndarray
    labels: Optional[BoundaryLabels] = None


def knn_density(index: NeighborIndex, queries, k: int) -> DensityEstimates:
    """Standard k-NN density estimate at each row of an (n, d) query matrix.

    Requires k >= 3 (finite second moments of the estimate).  Raises on a
    zero k-th neighbor distance, naming the first offending query.
    """
    _check_k(index, k)
    r = knn_radii(index, queries, k)
    _raise_on_zero_radius(queries, r == 0.0, k)
    return DensityEstimates(values=_from_radii(index, r, k))


def corrected_density(
    index: NeighborIndex, queries, k: int, labels: BoundaryLabels
) -> DensityEstimates:
    """Boundary-corrected estimate at each row of an (n, d) query matrix:
    interior points keep their standard value, boundary points take the
    value at their nearest interior point.

    Radii are queried at the interior points alone.  Each boundary point is
    only checked for a zero k-th distance, by the same search bounded at
    1e-150, so the error, naming the first offending query of all, is
    knn_density's.  Raises ValueError unless labels' interior and boundary
    partition the queries' rows and every nearest_interior entry is an
    interior row.
    """
    _check_k(index, k)
    queries = _as_queries(queries, index.dim)
    _check_labels(labels, len(queries))
    zero = np.empty(len(queries), dtype=bool)
    r = knn_radii(index, queries[labels.interior], k)
    zero[labels.interior] = r == 0.0
    r_bounded = _kth_distances(index, queries[labels.boundary], (k,), 1e-150)
    zero[labels.boundary] = r_bounded[:, 0] == 0.0
    _raise_on_zero_radius(queries, zero, k)
    vals = np.empty(len(queries))
    vals[labels.interior] = _from_radii(index, r, k)
    # the sources were filled above; _check_labels makes them interior rows
    vals[labels.boundary] = vals[labels.nearest_interior]
    return DensityEstimates(values=vals, labels=labels)


def _check_k(index: NeighborIndex, k: int):
    if not 3 <= k <= index.size:
        raise ValueError(f"k={k} outside [3, {index.size}]")


def _from_radii(index: NeighborIndex, r: np.ndarray, k: int) -> np.ndarray:
    """The standard k-NN density at points whose k-th distances are r."""
    cd = unit_ball_volume(index.dim)
    return (k - 1) / (index.size * cd * r**index.dim)


def _raise_on_zero_radius(queries, zero: np.ndarray, k: int):
    if zero.any():
        bad = int(np.argmax(zero))
        point = np.asarray(queries, dtype=np.float64)[bad]
        raise ValueError(
            f"query {bad} at {point} has zero k-NN distance "
            f"(>= {k} duplicate reference points); duplicated data violates "
            "the continuous-density model"
        )


def _check_labels(labels: BoundaryLabels, n: int):
    """Raise ValueError unless labels fit n evaluation points: interior and
    boundary partition range(n), and nearest_interior holds one interior
    row per boundary row."""
    if labels.n_interior + labels.n_boundary != n:
        raise ValueError("labels were computed for a different evaluation set")
    rows = np.sort(np.concatenate([labels.interior, labels.boundary]))
    if not np.array_equal(rows, np.arange(n)):
        raise ValueError(
            f"labels' interior and boundary rows do not partition the {n} "
            "evaluation points"
        )
    src = np.asarray(labels.nearest_interior)
    if src.shape != (labels.n_boundary,):
        raise ValueError(
            f"labels hold {src.size} nearest_interior entries for "
            f"{labels.n_boundary} boundary points"
        )
    interior = np.zeros(n, dtype=bool)
    interior[labels.interior] = True
    ok = (src >= 0) & (src < n)
    ok[ok] = interior[src[ok]]
    if not ok.all():
        bad = int(np.argmin(ok))
        raise ValueError(
            f"labels' nearest_interior entry {bad} ({src[bad]}) is not an "
            "interior evaluation point"
        )
