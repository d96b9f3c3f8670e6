"""Plug-in estimators of density functionals G(f) = E[g(f(X))].

The estimator averages g over N evaluation points using a k-NN density
built from M disjoint reference points (a bipartite construction: density
edges run from evaluation nodes to reference nodes).  For Shannon and
Renyi functionals a multiplicative/additive correction pair (g1, g2),
defined by

    E[g((k-1)x / (M p))] = g1(k,M) * g(x) + g2(k,M) + o(1),
    p ~ Beta(k, M-k+1),

removes the O(1/k) bias term; the corrected estimator is
(plain - g2) / g1.
"""

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtri, psi

from .boundary import BoundaryConfig, detect_boundary
from .data import Dataset, SampleSplit
from .density import _labelled_density
from .knn import build_index

__all__ = [
    "Functional",
    "EstimateReport",
    "shannon_functional",
    "renyi_functional",
    "bpi_estimate",
    "bpi_estimate_bc",
    "renyi_entropy",
    "mutual_information",
]


# -- functional definitions ---------------------------------------------------

@dataclass(frozen=True)
class Functional:
    """g with derivatives in the density argument and optional (g1, g2).

    g, g_prime, g_double_prime map an array of density values to an array
    of the same shape.  bias_factors(k, M) -> (g1, g2) or None when no
    correction exists.
    """

    id: str
    g: Callable
    g_prime: Callable
    g_double_prime: Callable
    bias_factors: Optional[Callable] = None


def shannon_functional() -> Functional:
    """g(u) = -log u with additive correction g2 = psi(k) - log(k-1)."""

    def factors(k, M):
        return 1.0, float(psi(k)) - math.log(k - 1)

    return Functional(
        id="shannon",
        g=lambda u: -np.log(u),
        g_prime=lambda u: -1.0 / u,
        g_double_prime=lambda u: 1.0 / u**2,
        bias_factors=factors,
    )


def renyi_functional(alpha: float) -> Functional:
    """g(u) = u^(alpha-1), the Renyi integral integrand.

    g1(k,M) = (Gamma(k+1-alpha)/Gamma(k)) * (k-1)^(alpha-1), the exact
    multiplicative factor of the Beta(k, M-k+1) coverage moment (see the
    defining condition in the module docstring); g2 = 0.  Requires
    0 < alpha < 2, alpha != 1, and k+1-alpha > 0 at use time.
    """
    if alpha == 1.0:
        raise ValueError("alpha = 1 is the Shannon case; use shannon_functional")
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")

    def factors(k, M):
        if k + 1 - alpha <= 0:
            raise ValueError("need k + 1 - alpha > 0")
        g1 = math.exp(math.lgamma(k + 1 - alpha) - math.lgamma(k)) * (k - 1) ** (alpha - 1)
        return g1, 0.0

    return Functional(
        id="renyi",
        g=lambda u: u ** (alpha - 1.0),
        g_prime=lambda u: (alpha - 1.0) * u ** (alpha - 2.0),
        g_double_prime=lambda u: (alpha - 1.0) * (alpha - 2.0) * u ** (alpha - 3.0),
        bias_factors=factors,
    )


def _named_functional(functional_id: str, alpha=None) -> Functional:
    """The Functional a name selects: "shannon", which reads no alpha, or
    "renyi" at alpha.  The one mapping behind TrialSpec and the tune
    command."""
    if functional_id == "shannon":
        return shannon_functional()
    if functional_id != "renyi":
        raise ValueError(f"unknown functional {functional_id!r}")
    if alpha is None:
        raise ValueError("renyi requires alpha")
    return renyi_functional(alpha)


# -- reports ------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateReport:
    estimate: float
    k: int
    N: int
    M: int
    estimator_variant: str  # "bpi" | "bpi_bias_corrected"
    boundary_corrected: bool  # the detector relabelled at least one point
    variance_estimate: float
    ci: Optional[tuple] = None  # (lo, hi, level)

    def to_dict(self) -> dict:
        out = asdict(self)
        ci = out.pop("ci")
        if ci is not None:
            out["ci"] = {"lo": ci[0], "hi": ci[1], "level": ci[2]}
        return out


def normal_interval(estimate: float, variance: float, level: float):
    """CLT interval estimate +- z_{(1+level)/2} * sqrt(variance)."""
    if not 0.0 < level < 1.0:
        raise ValueError("ci level must lie in (0, 1)")
    half = float(ndtri((1.0 + level) / 2.0)) * math.sqrt(variance)
    return estimate - half, estimate + half


def _report(estimate, variance, relabelled, k, split, variant, ci_level) -> EstimateReport:
    """The report of an estimate on split, with its CLT interval when
    ci_level is given."""
    ci = None
    if ci_level is not None:
        ci = (*normal_interval(estimate, variance, ci_level), ci_level)
    return EstimateReport(estimate=estimate, k=k, N=split.n_eval, M=split.n_ref,
                          estimator_variant=variant, boundary_corrected=relabelled,
                          variance_estimate=variance, ci=ci)


# -- estimators ---------------------------------------------------------------

def _density_values(data, split, k, config):
    """knn_density at split's evaluation points from its references.

    The detector needs only the reference count, so it runs before the
    reference index is built, and each phase gathers the evaluation points
    it reads: the two phases' arrays are never alive together, and the
    detector's errors still come before the k check."""
    labels = None
    if config is not None:
        labels = detect_boundary(split.eval_points(data), k, split.n_ref, config)
    index = build_index(split.ref_points(data))
    return _labelled_density(index, split.eval_points(data), k, labels)


def _plug_in(functional, dens, M):
    """(estimate, variance, relabelled) of the plain plug-in over the N
    density values: the mean of g, the empirical c4/N + c5/M (sample
    variances of g and of u*g'(u)), and whether the detector mapped at
    least one point to an interior one.  Raises where g is not finite."""
    u = dens.values
    N = len(u)
    with np.errstate(all="ignore"):
        gv = np.asarray(functional.g(u), dtype=np.float64)
    if not np.all(np.isfinite(gv)):
        bad = int(np.argmax(~np.isfinite(gv)))
        raise ValueError(
            f"g({functional.id}) non-finite at evaluation point {bad} "
            f"(density estimate {u[bad]!r})"
        )
    c4 = float(np.var(gv, ddof=1)) if N > 1 else 0.0
    with np.errstate(all="ignore"):
        fg = u * np.asarray(functional.g_prime(u), dtype=np.float64)
    c5 = float(np.var(fg, ddof=1)) if N > 1 else 0.0
    relabelled = dens.labels is not None and dens.labels.n_boundary > 0
    return float(np.mean(gv)), c4 / N + c5 / M, relabelled


def _bias_corrected(functional, dens, k, M):
    """_plug_in corrected by functional's (g1, g2) at (k, M): the estimate
    (plain - g2) / g1 and the variance over g1^2.  The factors are exact
    moments for a ball of locally constant density, which k = M, a ball
    holding every reference, is not; so they are applied only for k < M."""
    if k >= M:
        raise ValueError(f"k={k} must be below M={M} for a bias-corrected estimate")
    g1, g2 = functional.bias_factors(k, M)
    if g1 == 0:
        raise ValueError("bias factor g1 is zero")
    plain, variance, relabelled = _plug_in(functional, dens, M)
    return (plain - g2) / g1, variance / g1**2, relabelled


def bpi_estimate(
    data: Dataset,
    split: SampleSplit,
    functional: Functional,
    k: int,
    config: Optional[BoundaryConfig] = None,
    ci_level: Optional[float] = None,
) -> EstimateReport:
    """Plain plug-in estimate (1/N) sum g(f_tilde(X_i)).

    With config = None the standard k-NN density is plugged in; a
    BoundaryConfig runs its detector on the evaluation points and plugs in
    the corrected density f_tilde.  The report's boundary_corrected is
    true only when the detector relabelled at least one point.  The
    variance estimate is the empirical c4/N + c5/M (sample variances of g
    and of u*g'(u)).
    """
    dens = _density_values(data, split, k, config)
    return _report(*_plug_in(functional, dens, split.n_ref), k, split, "bpi", ci_level)


def bpi_estimate_bc(
    data: Dataset,
    split: SampleSplit,
    functional: Functional,
    k: int,
    config: Optional[BoundaryConfig] = None,
    ci_level: Optional[float] = None,
) -> EstimateReport:
    """Bias-corrected plug-in estimate (plain - g2(k,M)) / g1(k,M).

    The density is the one bpi_estimate plugs in for the same config: a
    detector runs only when config is a BoundaryConfig.  Raises when the
    functional carries no bias factors (no general correction exists),
    when k = M or when g1 = 0.
    """
    if functional.bias_factors is None:
        raise ValueError(
            f"functional {functional.id!r} has no bias-correction factors"
        )
    dens = _density_values(data, split, k, config)
    return _report(*_bias_corrected(functional, dens, k, split.n_ref),
                   k, split, "bpi_bias_corrected", ci_level)


def renyi_entropy(
    data: Dataset,
    split: SampleSplit,
    alpha: float,
    k: int,
    config: Optional[BoundaryConfig] = None,
    ci_level: Optional[float] = None,
) -> EstimateReport:
    """Renyi entropy log(I_alpha) / (1 - alpha) from the bias-corrected
    integral I_alpha of bpi_estimate_bc.

    Variance propagated by the delta method: Var(H) = Var(I) / ((1-alpha)*I)^2.
    """
    integral = bpi_estimate_bc(data, split, renyi_functional(alpha), k, config)
    if integral.estimate <= 0:
        raise ValueError(f"nonpositive Renyi integral estimate {integral.estimate}")
    ent = math.log(integral.estimate) / (1.0 - alpha)
    var = integral.variance_estimate / ((1.0 - alpha) * integral.estimate) ** 2
    return _report(ent, var, integral.boundary_corrected, k, split, "bpi_bias_corrected",
                   ci_level)


def mutual_information(
    data: Dataset,
    split: SampleSplit,
    x_cols,
    y_cols,
    k: int,
    config: Optional[BoundaryConfig] = None,
    ci_level: Optional[float] = None,
) -> EstimateReport:
    """Shannon mutual information H(X) + H(Y) - H(X,Y).

    All three entropies are bias-corrected Shannon plug-ins computed on the
    same split (joint on all named columns, marginals on their blocks).
    The variance estimate is the empirical variance of
    log(f_X * f_Y / f_XY) times (1/N + 1/M).  boundary_corrected is true
    when the detector relabelled a point in any of the three entropies.
    Raises when a block is empty, or a column index is outside [0, d),
    repeated within a block, or shared by the two blocks.
    """
    x_cols = list(x_cols)
    y_cols = list(y_cols)
    for name, cols in (("x", x_cols), ("y", y_cols)):
        if not cols:
            raise ValueError(f"{name} column block is empty")
        for i, c in enumerate(cols):
            if not 0 <= c < data.dim:
                raise ValueError(f"{name} column {c} outside 0..{data.dim - 1}")
            if c in cols[:i]:
                raise ValueError(f"{name} column {c} repeated")
    if set(x_cols) & set(y_cols):
        raise ValueError("x and y column blocks overlap")
    dens = [_density_values(Dataset._of(data.points.take(cols, axis=1)), split, k, config)
            for cols in (x_cols, y_cols, x_cols + y_cols)]
    (hx, _, rx), (hy, _, ry), (hxy, _, rxy) = (
        _bias_corrected(shannon_functional(), f, k, split.n_ref) for f in dens
    )
    lx, ly, lxy = (np.log(f.values) for f in dens)
    ratio = lx + ly - lxy
    N, M = split.n_eval, split.n_ref
    c_v = float(np.var(ratio, ddof=1)) if N > 1 else 0.0
    return _report(hx + hy - hxy, c_v * (1.0 / N + 1.0 / M), rx or ry or rxy,
                   k, split, "bpi_bias_corrected", ci_level)
