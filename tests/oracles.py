"""Frozen expected values and the independent oracles that produced them.

Every frozen constant here was computed by the recompute_* function next to
it (tensor Gauss-Legendre quadrature, exact Beta-moment identities, or
brute-force scans), independently of the library code paths under test.
The recompute functions are exercised by test_oracles_selfcheck at reduced
resolution so drift in either side is caught.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from knnfunc import NeighborResult
from knnfunc.rng import make_rng

# d=3 Beta(4,4)/uniform mixture, eps = 0.2 (the primary experimental density)
MIX_A = 4.0
MIX_B = 4.0
MIX_EPS = 0.2
MIX_D = 3

# Gauss-Legendre 200^3 tensor quadrature (recompute_mixture_truths):
H_SHANNON_MIX = -0.7068417010  # -int f log f
I_RENYI05_MIX = 0.8333891386  # int f^{1/2}

# Theory constants for the mixture (same quadrature; h includes the
# 1/(2(d+2)pi) normalization, checked against simulated pointwise k-NN
# density bias in test_acceptance.test_criterion_2_k_opt_fixture_value):
C1_SHANNON_MIX = -1.640024
C2_SHANNON_MIX = 0.5  # exact: E[f^2 (1/f^2)] / 2
C4_SHANNON_MIX = 1.2195964
C1_RENYI05_MIX = -1.673614
C2_RENYI05_MIX = 0.312521  # = 0.375 * I_RENYI05_MIX exactly
C4_RENYI05_MIX = 0.305463  # = 1 - I_RENYI05_MIX^2 exactly
C5_RENYI05_MIX = C4_RENYI05_MIX / 4.0  # = V[(alpha-1) f^(alpha-1)] exactly

# Block Beta(5,2)/(2,5) mixture (structure experiments), 400-pt quadrature:
H1_BLOCKMIX = -0.04752  # one coordinate
H2_BLOCKMIX = -0.37838  # dependent pair
MI_PAIR_BLOCKMIX = 2 * H1_BLOCKMIX - H2_BLOCKMIX  # 0.28334


def _beta44(x):
    return 140.0 * x**3 * (1 - x) ** 3


def _beta44_dd(x):
    return 140.0 * (6 * x * (1 - x) ** 3 - 18 * x**2 * (1 - x) ** 2 + 6 * x**3 * (1 - x))


def _hessian_weight(d):
    """Gamma((d+2)/2)^(2/d) / (2 (d+2) pi), the normalization of h."""
    return math.gamma((d + 2) / 2) ** (2.0 / d) / (2.0 * (d + 2) * math.pi)


def mixture_pdf(x):
    """Density of the d=3 mixture at the rows of x (points in the cube)."""
    x = np.atleast_2d(x)
    return (1 - MIX_EPS) * np.prod(_beta44(x), axis=1) + MIX_EPS


def mixture_h(x):
    """h(x) = hw * f(x)^(-2/d) * tr Hess f(x) for the d=3 mixture, with the
    same normalization hw as the c1 quadrature below.  E[f_hat_k(x)] - f(x)
    = h(x) (k/M)^(2/d) to leading order."""
    x = np.atleast_2d(x)
    g = _beta44(x)
    gdd = _beta44_dd(x)
    tr = (1 - MIX_EPS) * sum(
        gdd[:, i] * np.prod(np.delete(g, i, axis=1), axis=1) for i in range(MIX_D)
    )
    return _hessian_weight(MIX_D) * mixture_pdf(x) ** (-2.0 / MIX_D) * tr


def recompute_mixture_truths(n: int = 200):
    """Tensor quadrature for the d=3 mixture: returns a dict of the frozen
    values above at the requested per-axis resolution."""
    xg, wg = leggauss(n)
    x = 0.5 * (xg + 1)
    w = 0.5 * wg
    g = _beta44(x)
    W3 = w[:, None, None] * w[None, :, None] * w[None, None, :]
    F = (1 - MIX_EPS) * (g[:, None, None] * g[None, :, None] * g[None, None, :]) + MIX_EPS
    logF = np.log(F)
    gdd = _beta44_dd(x)
    TR = (
        gdd[:, None, None] * g[None, :, None] * g[None, None, :]
        + g[:, None, None] * gdd[None, :, None] * g[None, None, :]
        + g[:, None, None] * g[None, :, None] * gdd[None, None, :]
    ) * (1 - MIX_EPS)
    hw = _hessian_weight(MIX_D)
    out = {}
    out["H_shannon"] = -np.sum(W3 * F * logF)
    out["I_renyi05"] = np.sum(W3 * np.sqrt(F))
    out["c4_shannon"] = np.sum(W3 * F * logF**2) - out["H_shannon"] ** 2
    out["c1_shannon"] = -hw * np.sum(W3 * F ** (-2.0 / 3.0) * TR)
    # integrand over Lebesgue: g'(f) h f = (alpha-1) hw f^(alpha-1-2/d) trH
    out["c1_renyi05"] = (0.5 - 1.0) * hw * np.sum(W3 * F ** (0.5 - 1.0 - 2.0 / 3.0) * TR)
    out["c2_renyi05"] = 0.375 * out["I_renyi05"]
    out["c4_renyi05"] = 1.0 - out["I_renyi05"] ** 2
    return out


def _beta_pdf(x, a, b):
    return (
        math.gamma(a + b) / (math.gamma(a) * math.gamma(b)) * x ** (a - 1) * (1 - x) ** (b - 1)
    )


def recompute_blockmix_truths(n: int = 400):
    """1-d and 2-d quadrature for the Beta(5,2)/(2,5) block mixture."""
    xg, wg = leggauss(n)
    x = 0.5 * (xg + 1)
    w = 0.5 * wg
    b52 = _beta_pdf(x, 5, 2)
    b25 = _beta_pdf(x, 2, 5)
    f1 = 0.5 * b52 + 0.5 * b25
    H1 = -np.sum(w * f1 * np.log(f1))
    F2 = 0.5 * np.outer(b52, b52) + 0.5 * np.outer(b25, b25)
    W2 = np.outer(w, w)
    H2 = -np.sum(W2 * F2 * np.log(F2))
    return {"H1": H1, "H2": H2, "MI_pair": 2 * H1 - H2}


def mi_linear_smoothing_truth():
    """Exact MI of (X, (X+U)/2) with X, U independent uniform: 1/2 nat.

    H(X) = 0; the joint is uniform with density 2 on its support, so
    H(X,Y) = -log 2; f_Y is the symmetric triangle-ish density 4y on
    [0, 1/2], giving H(Y) = 1/2 - log 2.  MI = H(X)+H(Y)-H(X,Y) = 1/2.
    """
    return 0.5


def brute_force_counts(points: np.ndarray, K: int) -> np.ndarray:
    """O(N^2) reverse K-NN counts with (distance, index) tie-breaking."""
    n = len(points)
    counts = np.zeros(n, dtype=int)
    for i in range(n):
        diff = points - points[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        d2[i] = np.inf
        order = np.lexsort((np.arange(n), d2))[:K]
        counts[order] += 1
    return counts


def brute_force_knn(points, queries, k: int) -> NeighborResult:
    """O(n*m*d) full scan, ordered by (squared distance, index)."""
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    single = queries.ndim == 1
    queries = np.atleast_2d(queries)
    if not 1 <= k <= len(points):
        raise ValueError(f"k={k} outside [1, {len(points)}]")
    index = np.arange(len(points))
    dist = np.empty((len(queries), k))
    idx = np.empty((len(queries), k), dtype=np.intp)
    for i, q in enumerate(queries):
        diff = points - q
        d2 = np.einsum("ij,ij->i", diff, diff)
        order = np.lexsort((index, d2))[:k]
        dist[i] = np.sqrt(d2[order])
        idx[i] = order
    if single:
        return NeighborResult(dist[0], idx[0])
    return NeighborResult(dist, idx)


def sample(density, n, seed, *tags):
    """n draws of an analytic density as one array: its sampler's row
    blocks joined, on the stream that true_functional and constants_oracle
    draw from for the same seed and tags."""
    return np.concatenate(list(density.sampler(n, make_rng(seed, "analytic-density", *tags))))


def full_trace_hessian(pdf, x, step):
    """Central-difference trace of the pdf Hessian at each row of x, and the
    pdf there, from pdf calls on whole shifted copies of x: the reference
    for constants_oracle, which takes the trace a block of draws at a
    time."""
    n, d = x.shape
    f0 = pdf(x)
    tr = np.zeros(n)
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        tr += pdf(x + e) - 2.0 * f0 + pdf(x - e)
    return tr / step**2, f0


def where_mixture_draw(n, dim, a, b, eps, rng):
    """n draws of the Beta/uniform mixture as one np.where over a uniform
    and a Beta draw, in that order on the stream: the reference for
    beta_uniform_mixture_density's sampler."""
    use_uniform = rng.random(n) < eps
    return np.where(
        use_uniform[:, None], rng.random((n, dim)), rng.beta(a, b, size=(n, dim))
    )


def reference_load_csv(path, header: bool = False) -> np.ndarray:
    """The CSV reader as a plain loop over the file's lines, with float() on
    each cell: the reference for knnfunc.load_csv.  Raises the same
    ValueErrors, naming the 1-based line of the file.  Unlike load_csv it
    accepts what float() alone accepts, such as '_' digit separators."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if header and lineno == 1:
                continue
            line = line.strip("\r\n")
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ValueError(
                    f"row {lineno}: expected {width} columns, got {len(cells)}"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise ValueError(f"row {lineno}: non-numeric cell") from None
    if not rows:
        raise ValueError("empty input file")
    return np.array(rows, dtype=np.float64)
