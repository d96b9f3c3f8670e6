"""Support-boundary detection on the evaluation sample.

Points whose k-NN neighborhoods overspill the support boundary have
deficient reverse-neighbor counts in a K-NN graph built on the evaluation
points alone (K = floor(k*N/M), matching the graph scale to the density
estimator's).  A point is labeled boundary when its count falls below
(1 - q(K,N))*K; every boundary point is mapped to its nearest interior
point so the density layer can extrapolate.

One detection resolves q first, and q_threshold reads it from a config
of numeric constants alone.  "auto" ones are estimated from the
evaluation set (_resolve_auto), eps0 from the (K+1)-th radii of one
k-th-distance search and L from the N*K edge ratios, filled a row block
of knn_query at a time; the estimates go into a new BoundaryConfig, whose
checks they pass as given constants do.  When q >= 1 the
threshold is <= 0, every point is interior and no reverse count is
taken; with numeric constants no index is built either.  Otherwise one
(K+1)-NN self-query of the evaluation set (knn._self_query) gives the
reverse counts.  At d >= 2 it adds them a row block at a time and keeps
the first min(K + 1, _HEAD) indices of each row, as int32, where a
boundary point finds its nearest interior point; only a boundary point
with no interior point in that head needs a second index, over the
interior points.  At d = 1 the counts come from the sorted windows, with
no neighbour lists and no head, and every boundary point asks the
interior index, one k = 1 tree query.  The detector's working memory
is the head and one block of the self-query, or, while an "auto" L is
estimated, the N*K edge ratios (8 bytes each) and one block of about
knn._BLOCK_SLOTS slots.

The threshold ``q`` has two parts: a Lipschitz/density term
(L/eps0)*(K/(c_d*N*eps0))^(1/d) and a concentration term
pk_scale*2*sqrt(6)/k^(delta/2).  With pk_scale = 1 the concentration term
exceeds 1 for every k < 25 or so, which makes the detector label
everything interior at small k; pk_scale < 1 trades that guarantee for a
detector that actually fires at practical sample sizes.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .knn import _kth_distances, _row_blocks, _self_query, build_index, knn_query, unit_ball_volume

__all__ = ["BoundaryConfig", "BoundaryLabels", "q_threshold", "p_k", "detect_boundary"]

Auto = Union[float, str]

# At d >= 2, of each point's K + 1 nearest, the detector keeps the first
# _HEAD indices (int32, in (distance, index) order), where a boundary point
# looks for its nearest interior point; one with none there asks an index
# over the interior points, which gives the same point.  On large-estimate's
# mixture with its live detector, d = 3 (N = 30,000, K + 1 = 38): 129 of
# 2,485 boundary points have their first interior neighbour past column 8,
# 4 past 16 and none past 24; at d = 6 K + 1 is 7.  At d = 1 no head is
# kept: there (N = 9,000, K + 1 = 327) 353 of 462 boundary points had none
# in a head of 24, and the interior index is one k = 1 tree query.
_HEAD = 24


@dataclass(frozen=True)
class BoundaryConfig:
    """Detector tuning.

    delta: exponent in the concentration term, must lie in (2/3, 1).
    lipschitz_L, eps0: Lipschitz constant and density lower bound of the
        underlying density, or "auto" to estimate both from the evaluation
        sample (see _resolve_auto).
    pk_scale: multiplier on the 2*sqrt(6)/k^(delta/2) concentration term;
        1.0 is the literal threshold, smaller values make detection fire
        at moderate k.
    Each field must be a real number (or "auto" where allowed), finite and
    nonnegative, and eps0 positive; ValueError names the first that is not.
    """

    delta: float = 0.8
    lipschitz_L: Auto = "auto"
    eps0: Auto = "auto"
    pk_scale: float = 1.0

    def __post_init__(self):
        for name, v in vars(self).items():  # delta, lipschitz_L, eps0, pk_scale
            auto = " or 'auto'" if name in ("lipschitz_L", "eps0") else ""
            if auto and isinstance(v, str) and v == "auto":
                continue
            if not isinstance(v, numbers.Real):
                raise ValueError(f"{name} must be a real number{auto}, got {v!r}")
            if name == "delta" and not 2.0 / 3.0 < v < 1.0:
                raise ValueError("delta must lie in (2/3, 1)")
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            if name == "eps0" and v <= 0:  # q divides by it
                raise ValueError("eps0 must be positive")
            if v < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class BoundaryLabels:
    """Interior/boundary partition of the N evaluation points.

    nearest_interior[i] is the interior index whose point is closest to
    boundary[i] (ties by index).  threshold_used is (1-q)*K.
    """

    interior: np.ndarray
    boundary: np.ndarray
    nearest_interior: np.ndarray
    threshold_used: float
    K_used: int
    q_used: float

    @property
    def n_interior(self) -> int:
        return self.interior.size

    @property
    def n_boundary(self) -> int:
        return self.boundary.size


def p_k(k: int, delta: float) -> float:
    """Concentration half-width sqrt(6)/k^(delta/2)."""
    return math.sqrt(6.0) / k ** (delta / 2.0)


def _resolve_auto(index, points, K, config):
    """config with each "auto" constant estimated from the N evaluation
    points, index built on the points; BoundaryConfig checks the estimates
    as it checks given constants.

    eps0: 10th percentile of standard K-NN density estimates computed
    within the evaluation set (self excluded), from each point's (K+1)-th
    distance.  L: 95th percentile of |f_i - f_j| / ||X_i - X_j|| over the
    edges from each point to its K nearest past itself, whose N*K ratios
    are filled a row block of knn_query at a time.
    """
    N, d = points.shape
    radii = np.maximum(_kth_distances(index, points, (K + 1,))[:, 0], 1e-300)
    cd = unit_ball_volume(d)
    dens = K / ((N - 1) * cd * radii**d)
    if config.eps0 == "auto":
        config = replace(config, eps0=float(np.percentile(dens, 10.0)))
    if config.lipschitz_L != "auto":
        return config
    ratios = np.empty((N, K))
    for rows in _row_blocks(N, K + 1):
        res = knn_query(index, points[rows], K + 1)
        edges = res.distances[:, 1:]
        np.maximum(edges, 1e-300, out=edges)
        r = dens.take(res.indices[:, 1:])
        r -= dens[rows, None]
        np.abs(r, out=r)
        np.divide(r, edges, out=ratios[rows])
        del res, edges, r  # before the next block's query
    return replace(config, lipschitz_L=float(np.percentile(ratios, 95.0, overwrite_input=True)))


def q_threshold(K: int, N: int, k: int, d: int, config: BoundaryConfig) -> float:
    """q(K,N) = (L/eps0)*(K/(c_d*N*eps0))^(1/d) + pk_scale*2*sqrt(6)/k^(delta/2).

    The config's L and eps0 must be numbers: detect_boundary resolves
    "auto" ones first.  Emits a warning when q >= 1, in which case the
    threshold degenerates and everything is labeled interior.
    """
    L, e0 = config.lipschitz_L, config.eps0
    if isinstance(L, str) or isinstance(e0, str):
        raise ValueError("auto constants must be resolved before q_threshold")
    cd = unit_ball_volume(d)
    q = (L / e0) * (K / (cd * N * e0)) ** (1.0 / d)
    q += config.pk_scale * 2.0 * p_k(k, config.delta)
    if q >= 1.0:
        warnings.warn(
            f"q(K,N) = {q:.3f} >= 1: boundary threshold degenerates, "
            "all points will be labeled interior",
            RuntimeWarning,
            stacklevel=2,
        )
    return q


def detect_boundary(eval_points, k: int, M: int, config: BoundaryConfig = BoundaryConfig()) -> BoundaryLabels:
    """Label evaluation points interior/boundary via reverse K-NN counts.

    K = max(1, floor(k*N/M)), with M >= 1 the reference count.  Raises if
    every point ends up boundary (no interior source for extrapolation) or
    if the inputs are degenerate (all points identical, or one not finite).
    """
    eval_points = np.asarray(eval_points, dtype=np.float64)
    if eval_points.ndim != 2:
        raise ValueError(
            f"evaluation points must be an (N, d) matrix; got shape {eval_points.shape}"
        )
    N, d = eval_points.shape
    if N < 2:
        raise ValueError("need at least 2 evaluation points")
    if k < 3:
        raise ValueError("k must be >= 3")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    K = max(1, int(k * N / M))
    if K >= N:
        raise ValueError(f"K={K} must be < N={N}; adjust k or the split")
    if np.all(eval_points == eval_points[0]):
        raise ValueError("all evaluation points identical; k-NN radii are zero")
    if not np.all(np.isfinite(eval_points)):
        raise ValueError("evaluation points must be finite")
    index = None
    if "auto" in (config.lipschitz_L, config.eps0):
        index = build_index(eval_points)
        config = _resolve_auto(index, eval_points, K, config)
    q = q_threshold(K, N, k, d, config)
    if q >= 1.0:
        # threshold <= 0 <= every count: all interior, no reverse counts needed
        none = np.empty(0, dtype=np.intp)
        return BoundaryLabels(interior=np.arange(N), boundary=none, nearest_interior=none,
                              threshold_used=float((1.0 - q) * K), K_used=K, q_used=float(q))
    # at d = 1 no head is kept: the reverse counts come from sorted windows
    keep = min(K + 1, _HEAD) if d > 1 else 0
    counts, head = _self_query(index or build_index(eval_points), K + 1, keep)
    threshold = (1.0 - q) * K
    interior_mask = counts >= threshold
    interior = np.where(interior_mask)[0]
    boundary = np.where(~interior_mask)[0]
    if interior.size == 0:
        raise ValueError("no interior points; increase T or adjust config")
    # a head row lists the first of its point's K + 1 nearest in (distance,
    # index) order, so its first interior entry is the nearest interior
    # point; only rows with no interior entry need an index over the
    # interior points, whose (distance, index)-nearest is the same point
    picks = np.empty(boundary.size, dtype=np.intp)
    lonely = np.ones(boundary.size, dtype=bool)
    if keep:
        rows = head[boundary]
        hits = interior_mask[rows]
        picks = rows[np.arange(boundary.size), hits.argmax(axis=1)].astype(np.intp)
        lonely = ~hits.any(axis=1)
    if lonely.any():
        res = knn_query(build_index(eval_points[interior]), eval_points[boundary[lonely]], 1)
        picks[lonely] = interior[res.indices[:, 0]]
    return BoundaryLabels(
        interior=interior,
        boundary=boundary,
        nearest_interior=picks,
        threshold_used=float(threshold),
        K_used=K,
        q_used=float(q),
    )
