"""The two density estimators.

standard k-NN:      f_hat(X) = (k-1) / (M * c_d * d_k(X)^d)
boundary-corrected: f_hat at interior points, nearest-interior value at
                    boundary points

Both estimates are strictly positive whenever the k-NN radius is nonzero;
a zero radius (k-fold duplicate collision) is a data error and raises.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boundary import BoundaryLabels
from .knn import NeighborIndex, knn_radii, unit_ball_volume

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
    """Standard k-NN density estimate at each query point.

    Requires k >= 3 (finite second moments of the estimate).  Raises on a
    zero k-th neighbor distance, naming the first offending query.
    """
    if not 3 <= k <= index.size:
        raise ValueError(f"k={k} outside [3, {index.size}]")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    r = np.atleast_1d(knn_radii(index, queries, k))
    if np.any(r == 0.0):
        bad = int(np.argmax(r == 0.0))
        raise ValueError(
            f"query {bad} at {queries[bad]} has zero k-NN distance "
            f"(>= {k} duplicate reference points); duplicated data violates "
            "the continuous-density model"
        )
    cd = unit_ball_volume(index.dim)
    vals = (k - 1) / (index.size * cd * r**index.dim)
    return DensityEstimates(values=vals)


def corrected_density(
    index: NeighborIndex, queries, k: int, labels: BoundaryLabels
) -> DensityEstimates:
    """Boundary-corrected estimate: interior points keep their standard
    value, boundary points take the value at their nearest interior point."""
    vals = knn_density(index, queries, k).values
    if labels.n_interior + labels.n_boundary != len(vals):
        raise ValueError("labels were computed for a different evaluation set")
    # in place: every source is an interior point, which no write touches
    vals[labels.boundary] = vals[labels.nearest_interior]
    return DensityEstimates(values=vals, labels=labels)

