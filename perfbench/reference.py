"""Independent recomputation of knnfunc's estimates with numpy and scipy.

Nothing here imports knnfunc.  The functions follow the definitions in the
library's docstrings (k-NN density, reverse-neighbour counts, the q(K, N)
threshold, nearest-interior substitution and the (g1, g2) bias factors),
so a benchmark check can rebuild a reported estimate from its parts.
"""

import math

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import gammaln, psi


def unit_ball_volume(d):
    return math.exp(0.5 * d * math.log(math.pi) - gammaln(0.5 * d + 1.0))


def brute_kth_distances(points, queries, k):
    """k-th nearest distance of each query row by a full scan of points."""
    out = np.empty(len(queries))
    for i, q in enumerate(queries):
        d2 = np.sum((points - q) ** 2, axis=1)
        out[i] = math.sqrt(np.partition(d2, k - 1)[k - 1])
    return out


def kth_distances(points, queries, k):
    dist, _ = cKDTree(points).query(queries, k=[k])
    return dist[:, 0]


def knn_density(radii, k, M, d):
    """Standard k-NN density (k - 1) / (M c_d r^d)."""
    return (k - 1) / (M * unit_ball_volume(d) * radii**d)


def eval_graph(points, K):
    """Distances and indices of each point's K + 1 nearest points, itself first."""
    dist, idx = cKDTree(points).query(points, k=K + 1)
    if not np.array_equal(idx[:, 0], np.arange(len(points))):
        raise ValueError("duplicate points: a point is not its own nearest neighbour")
    return dist, idx


def reverse_counts(graph):
    """Number of other points that hold each point among their K nearest."""
    _, idx = graph
    return np.bincount(idx[:, 1:].ravel(), minlength=len(idx))


def auto_constants(graph, d):
    """(L, eps0) by the "auto" rule: eps0 is the 10th percentile of the
    within-sample K-NN densities, L the 95th percentile of
    |f_i - f_j| / |X_i - X_j| over the K-NN graph edges."""
    dist, idx = graph
    N, kk = idx.shape
    radii = np.maximum(dist[:, -1], 1e-300)
    dens = max(kk - 1, 1) / ((N - 1) * unit_ball_volume(d) * radii**d)
    ratios = np.abs(dens[idx[:, 1:]] - dens[:, None]) / np.maximum(dist[:, 1:], 1e-300)
    return float(np.percentile(ratios, 95.0)), float(np.percentile(dens, 10.0))


def detector_scale(k, N, M):
    """K = max(1, floor(k N / M)), the graph scale matched to the density's."""
    return max(1, int(k * N / M))


def boundary_labels(graph, d, k, detector):
    """Interior mask and q of the reverse-count detector on an eval_graph.

    detector is a dict with delta, lipschitz_L, eps0 and pk_scale, where
    lipschitz_L and eps0 may be "auto".
    """
    N, K = len(graph[1]), graph[1].shape[1] - 1
    L, eps0 = detector["lipschitz_L"], detector["eps0"]
    if L == "auto" or eps0 == "auto":
        auto_L, auto_eps0 = auto_constants(graph, d)
        L = auto_L if L == "auto" else L
        eps0 = auto_eps0 if eps0 == "auto" else eps0
    q = (L / eps0) * (K / (unit_ball_volume(d) * N * eps0)) ** (1.0 / d)
    q += detector["pk_scale"] * 2.0 * math.sqrt(6.0) / k ** (detector["delta"] / 2.0)
    return reverse_counts(graph) >= (1.0 - q) * K, q


def corrected_density(ev, radii, k, M, interior):
    """k-NN density at ev from the k-th distances into M references, boundary
    points taking the value of their nearest interior point."""
    dens = knn_density(radii, k, M, ev.shape[1])
    inner = np.flatnonzero(interior)
    outer = np.flatnonzero(~interior)
    if outer.size:
        _, nearest = cKDTree(ev[inner]).query(ev[outer], k=1)
        dens[outer] = dens[inner[nearest]]
    return dens


def shannon_g2(k):
    return float(psi(k) - math.log(k - 1))


def renyi_g1(k, alpha):
    return math.exp(gammaln(k + 1 - alpha) - gammaln(k)) * (k - 1) ** (alpha - 1)


def shannon_bc(dens, k):
    """Bias-corrected Shannon plug-in: mean(-log f) - g2(k)."""
    return float(np.mean(-np.log(dens))) - shannon_g2(k)


def renyi_entropy_bc(dens, k, alpha):
    """Renyi entropy from the bias-corrected integral mean(f^(alpha-1)) / g1."""
    integral = float(np.mean(dens ** (alpha - 1.0))) / renyi_g1(k, alpha)
    return math.log(integral) / (1.0 - alpha)


def rate_matched_k(M, d):
    return max(3, int(round(M ** (2.0 / (2.0 + d)))))
