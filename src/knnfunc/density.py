"""The k-NN density estimate, standard or boundary-corrected.

standard k-NN:      f_hat(X) = (k-1) / (M * c_d * d_k(X)^d)
boundary-corrected: f_hat at interior points, nearest-interior value at
                    boundary points

knn_density is the one estimator, with an optional detector: without a
BoundaryConfig it returns the standard estimate; with one it runs
boundary.detect_boundary on the queries and returns the corrected
estimate with the labels.  The detector reads only the queries and the
reference count M, so the estimators in functionals (and the CLI's
density command) run it before they build the reference index and then
hand its labels to the step knn_density ends with (_labelled_density):
the detector's head and blocks and the reference index are never alive
together, and the values are the same.  Both estimates are strictly
positive whenever the k-NN radius is nonzero; a zero radius (k-fold
duplicate collision) is a data error and raises.  The corrected estimate
queries radii at the interior points only: a boundary point's own value
is never used, so it gets no radius query, only the same k-th-distance
search bounded at 1e-150, compared with zero, which keeps the error the
same.  Queries are an (n, d) matrix, one point a row.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boundary import BoundaryConfig, BoundaryLabels, detect_boundary
from .knn import NeighborIndex, _as_queries, _kth_distances, knn_radii, unit_ball_volume

__all__ = [
    "DensityEstimates",
    "knn_density",
]


@dataclass(frozen=True)
class DensityEstimates:
    """Per-evaluation-point density values, and the boundary labels that
    corrected them (None for the standard estimate)."""

    values: np.ndarray
    labels: Optional[BoundaryLabels] = None


def knn_density(
    index: NeighborIndex, queries, k: int, config: Optional[BoundaryConfig] = None
) -> DensityEstimates:
    """k-NN density estimate at each row of an (n, d) query matrix from the
    index's M reference points.

    With config None it is the standard estimate at every row.  With a
    BoundaryConfig, the queries are checked to be a finite (n, d) matrix
    of the index's width, and then detect_boundary(queries, k, M, config)
    labels the rows, so its errors come before the k check; interior rows
    then keep their standard value and boundary rows take the value at
    their nearest interior row.  Radii are queried at the interior rows
    alone; each boundary row is only checked for a zero k-th distance.

    Requires 3 <= k <= M.  k = M is accepted: the ball then reaches the
    farthest reference and the formula is defined.  (The bias-corrected
    estimators reject k = M, where their (g1, g2) are not exact, and the
    detector rejects it, as its graph scale K = floor(k*N/M) reaches N.)
    Raises on a zero k-th neighbor distance, naming the first offending
    query of all.
    """
    labels = None
    if config is not None:
        # the query matrix is checked before the detector reads it
        queries = _as_queries(queries, index.dim)
        labels = detect_boundary(queries, k, index.size, config)
    return _labelled_density(index, queries, k, labels)


def _labelled_density(
    index: NeighborIndex, queries, k: int, labels: Optional[BoundaryLabels]
) -> DensityEstimates:
    """knn_density past its detector: the standard estimate when labels is
    None, else the estimate those labels of the queries correct.  A caller
    that has the queries before the index may run detect_boundary first
    and build the index after it, as functionals does."""
    if not 3 <= k <= index.size:
        raise ValueError(f"k={k} outside [3, {index.size}]")
    if labels is None:
        r = knn_radii(index, queries, k)
        _raise_on_zero_radius(queries, r == 0.0, k)
        return DensityEstimates(values=_from_radii(index, r, k))
    zero = np.empty(len(queries), dtype=bool)
    r = knn_radii(index, queries[labels.interior], k)
    zero[labels.interior] = r == 0.0
    r_bounded = _kth_distances(index, queries[labels.boundary], (k,), 1e-150)
    zero[labels.boundary] = r_bounded[:, 0] == 0.0
    _raise_on_zero_radius(queries, zero, k)
    vals = np.empty(len(queries))
    vals[labels.interior] = _from_radii(index, r, k)
    # the sources were filled above: detect_boundary maps each boundary row
    # to an interior one
    vals[labels.boundary] = vals[labels.nearest_interior]
    return DensityEstimates(values=vals, labels=labels)


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
