"""Intrinsic dimension from k-NN log-length statistics.

The log-length statistic L_k = (gamma/N) * sum log R_k(X_i) is linear in
log(k-1) with slope gamma/d, so contrasting two bandwidths k1 < k2 gives

    alpha_hat = (L_k2 - L_k1) / (log(k2-1) - log(k1-1)),
    d_hat     = gamma / alpha_hat.

The independent variant evaluates the two statistics on disjoint halves of
the data; the correlated variant reuses one half for both, which cancels
most of the sampling noise in the difference and lowers the variance (its
own variance theory is open, so the independent prediction is reported as
an upper bound).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .knn import _kth_distances, build_index
from .rng import make_rng

__all__ = [
    "DimensionEstimate",
    "estimate_dimension",
    "anomaly_scan",
]


@dataclass(frozen=True)
class DimensionEstimate:
    d_hat: float
    d_rounded: int
    alpha_hat: float
    k1: int
    k2: int
    gamma: float
    variant: str  # "independent" | "correlated"
    variance_estimate: Optional[float] = None

    def __post_init__(self):
        if self.d_rounded < 1:
            raise ValueError("rounded dimension must be >= 1")


def _check_params(k1, k2, gamma, alpha_frac):
    """k2 (2*k1 when None) after checking the estimate's parameters."""
    if k1 < 3:
        raise ValueError(f"k1 must be >= 3, got {k1}")
    k2 = 2 * k1 if k2 is None else k2
    if k2 <= k1:
        raise ValueError(f"k2 must exceed k1, got k1={k1} and k2={k2}")
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    if not 0.0 < alpha_frac < 1.0:
        raise ValueError(f"alpha_frac must lie in (0, 1), got {alpha_frac}")
    return k2


def _ref_count(n, alpha_frac, k2):
    """The number of ref rows alpha_frac gives an n-row half; raises unless
    it leaves at least k2 refs and 2 eval rows (the variance needs 2)."""
    M = int(round(alpha_frac * n))
    if not k2 <= M <= n - 2:
        raise ValueError(
            f"alpha_frac must leave at least k2={k2} reference and 2 evaluation "
            f"points of a {n}-point half, got {alpha_frac} ({M} references)"
        )
    return M


def _half(points, alpha_frac, k2):
    """Split one half into (eval rows, index over the ref rows)."""
    n = len(points)
    M = _ref_count(n, alpha_frac, k2)
    return points[: n - M], build_index(points[n - M :])


def _logs(r):
    """Logs of k-NN radii, the L-summands; a zero radius raises."""
    if np.any(r == 0.0):
        raise ValueError("zero k-NN radius (duplicate points)")
    return np.log(r)


def estimate_dimension(
    data: Dataset,
    k1: int,
    k2: Optional[int] = None,
    gamma: float = 1.0,
    variant: str = "correlated",
    alpha_frac: float = 0.7,
    seed: int = 0,
) -> DimensionEstimate:
    """Two-bandwidth dimension estimate on a seeded half/half partition.

    k2 defaults to 2*k1.  The data is shuffled once (seeded), split into
    halves X and Z; each half splits into eval/ref by alpha_frac, which
    must leave at least k2 refs and 2 eval rows.  The independent variant
    takes L_k1 from X and L_k2 from Z; the correlated variant takes both
    from X.
    """
    k2 = _check_params(k1, k2, gamma, alpha_frac)
    if variant not in ("independent", "correlated"):
        raise ValueError(f"unknown variant {variant!r}")
    T = data.count
    if T < 8:
        raise ValueError("need at least 8 samples")
    return _estimate(data.points, _partition(T, seed), k1, k2, gamma, variant, alpha_frac)


def _partition(T, seed):
    """The seeded shuffle of T rows whose halves are X and Z."""
    return make_rng(seed, "dimension-partition", T).permutation(T)


def _estimate(points, perm, k1, k2, gamma, variant, alpha_frac):
    """estimate_dimension on the rows of points, shuffled by perm, after
    its checks.  The correlated variant takes both k-th distances of X's
    eval rows from one search."""
    half = len(points) // 2
    ev, index = _half(points[perm[:half]], alpha_frac, k2)
    if variant == "independent":
        logs1 = _logs(_kth_distances(index, ev, (k1,))[:, 0])
        ev2, index2 = _half(points[perm[half : 2 * half]], alpha_frac, k2)
        logs2 = _logs(_kth_distances(index2, ev2, (k2,))[:, 0])
    else:
        # a contiguous row per k, so np.log runs as on one search per k
        logs1, logs2 = _logs(_kth_distances(index, ev, (k1, k2)).T.copy())
    denom = math.log(k2 - 1) - math.log(k1 - 1)
    L1 = gamma * float(np.mean(logs1))
    L2 = gamma * float(np.mean(logs2))
    alpha_hat = (L2 - L1) / denom
    if alpha_hat <= 0:
        raise ValueError("nonpositive slope; data may be degenerate")
    d_hat = gamma / alpha_hat
    # variance via kappa = -gamma*nu/alpha^2, nu = -alpha/denom, with c_v
    # the empirical variance of log f_hat ~ d * log R up to constants
    nu = -alpha_hat / denom
    kappa = -gamma * nu / alpha_hat**2
    n = len(logs1)
    c_v = d_hat**2 * float(np.var(logs1, ddof=1))
    var_d = 2.0 * kappa**2 * c_v / n
    return DimensionEstimate(
        d_hat=float(d_hat),
        d_rounded=max(1, int(round(d_hat))),
        alpha_hat=float(alpha_hat),
        k1=k1,
        k2=k2,
        gamma=gamma,
        variant=variant,
        variance_estimate=var_d,
    )


def anomaly_scan(
    series: Dataset,
    window: int,
    stride: int,
    k1: int,
    k2: Optional[int] = None,
    gamma: float = 1.0,
    alpha_frac: float = 0.7,
    seed: int = 0,
):
    """Correlated-variant dimension estimate per sliding window.

    Returns a list of (window_start, DimensionEstimate or None); windows
    whose estimate fails (e.g. duplicate-dominated) are reported as None
    rather than aborting the scan; a bad parameter raises before any
    window runs.  Each estimate is estimate_dimension's on the window; the
    partition depends only on the window length and seed, so it is drawn
    once, and each window is read as a view of the series.
    """
    k2 = _check_params(k1, k2, gamma, alpha_frac)
    if window < 8 * k2:
        raise ValueError("window must be at least 8 * k2")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    T = series.count
    if window > T:
        raise ValueError("window exceeds series length")
    _ref_count(window // 2, alpha_frac, k2)  # every window's halves
    perm = _partition(window, seed)
    out = []
    for start in range(0, T - window + 1, stride):
        try:
            est = _estimate(series.points[start : start + window], perm, k1, k2,
                            gamma, "correlated", alpha_frac)
        except ValueError:
            est = None
        out.append((start, est))
    return out
