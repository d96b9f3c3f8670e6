"""The three density estimators.

standard k-NN:      f_hat(X) = (k-1) / (M * c_d * d_k(X)^d)
boundary-corrected: f_hat at interior points, nearest-interior value at
                    boundary points
uniform kernel:     count within a fixed-volume (k/M) ball / (M * k/M)

Standard and corrected estimates are strictly positive whenever the k-NN
radius is nonzero; a zero radius (k-fold duplicate collision) is a data
error and raises.  The uniform-kernel estimator legitimately produces
zeros, which are reported with a flag and must be rejected by log-type
plug-in consumers.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boundary import BoundaryLabels
from .knn import NeighborIndex, _ball_counts, knn_radii, unit_ball_volume

__all__ = [
    "DensityEstimates",
    "knn_density",
    "corrected_density",
    "uniform_kernel_density",
]


@dataclass(frozen=True)
class DensityEstimates:
    """Per-evaluation-point density values plus estimator provenance."""

    values: np.ndarray
    estimator_kind: str  # "standard" | "corrected" | "uniform_kernel"
    k: int
    M: int
    labels: Optional[BoundaryLabels] = None
    zero_flags: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.estimator_kind == "corrected" and self.labels is None:
            raise ValueError("corrected estimates require boundary labels")


def _check_k(k: int, M: int, minimum: int):
    if not minimum <= k <= M:
        raise ValueError(f"k={k} outside [{minimum}, {M}]")


def knn_density(index: NeighborIndex, queries, k: int) -> DensityEstimates:
    """Standard k-NN density estimate at each query point.

    Requires k >= 3 (finite second moments of the estimate).  Raises on a
    zero k-th neighbor distance, naming the first offending query.
    """
    _check_k(k, index.size, 3)
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
    return DensityEstimates(values=vals, estimator_kind="standard", k=k, M=index.size)


def corrected_density(
    index: NeighborIndex, queries, k: int, labels: BoundaryLabels
) -> DensityEstimates:
    """Boundary-corrected estimate: interior points keep their standard
    value, boundary points take the value at their nearest interior point."""
    base = knn_density(index, queries, k)
    vals = base.values.copy()
    if labels.n_interior + labels.n_boundary != len(vals):
        raise ValueError("labels were computed for a different evaluation set")
    for b, src in labels.nearest_interior.items():
        vals[b] = base.values[src]
    return DensityEstimates(
        values=vals, estimator_kind="corrected", k=k, M=index.size, labels=labels
    )


def uniform_kernel_density(index: NeighborIndex, queries, k: int) -> DensityEstimates:
    """Fixed-volume uniform-kernel estimate.

    The kernel ball has volume V_u = k/M regardless of the data; the value
    is (count inside) / (M * V_u) and may be zero, flagged in zero_flags.
    """
    _check_k(k, index.size, 1)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    M = index.size
    cd = unit_ball_volume(index.dim)
    v_u = k / M
    radius = (v_u / cd) ** (1.0 / index.dim)
    counts = _ball_counts(index, queries, radius, k)
    counts = np.asarray(counts, dtype=np.float64)
    vals = counts / (M * v_u)
    return DensityEstimates(
        values=vals,
        estimator_kind="uniform_kernel",
        k=k,
        M=M,
        zero_flags=counts == 0,
    )
