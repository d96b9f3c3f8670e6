"""Theory constants, MSE-optimal k, and bias/variance predictions.

The estimator's leading error terms are

    bias     ~  c1 * (k/M)^(2/d)  +  c2 / k  +  c3
    variance ~  c4 / N  +  c5 / M

with c1 = E[g'(f(Z)) h(Z)], c2 = E[f(Z)^2 g''(f(Z))] / 2,
c4 = V[g(f(Z))], c5 = V[f(Z) g'(f(Z))], and

    h(x) = Gamma((d+2)/2)^(2/d) / (2 (d+2) pi) * f(x)^(-2/d) * tr Hess f(x).

The 1/(2(d+2)pi) factor is the normalization the coverage Taylor expansion
actually produces (checked against simulated pointwise k-NN density bias);
h is sometimes quoted without it, which over-predicts by 2(d+2)pi.
"""

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

import numpy as np

from .data import AnalyticDensity, _draw_blocks
from .functionals import Functional

__all__ = [
    "TheoryConstants",
    "hessian_weight",
    "constants_oracle",
    "optimal_k",
    "rate_matched_k",
    "predict_bias_variance",
]


@dataclass(frozen=True)
class TheoryConstants:
    """c1..c5 plus provenance, each constant a finite real.  The oracle
    mode does not model the boundary term and reports c3 = 0."""

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    mode: str  # "oracle"

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4", "c5"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Real) or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite real, got {v!r}")
        if self.c4 < 0 or self.c5 < 0:
            raise ValueError("variance constants must be nonnegative")


def hessian_weight(d: int) -> float:
    """Gamma((d+2)/2)^(2/d) / (2 (d+2) pi)."""
    return math.gamma((d + 2) / 2.0) ** (2.0 / d) / (2.0 * (d + 2) * math.pi)


def _trace_hessian(density: AnalyticDensity, x, step):
    """Central-difference trace of the pdf Hessian at each row of x, and
    the pdf there, from the pdf's product form.

    A step along axis i changes only factor i, so phi is evaluated once at
    each coordinate and once at each coordinate +- step.  Each shifted
    product starts from the prefix product of the factors before axis i
    and multiplies on the rest left to right, the order np.prod takes, and
    the trace accumulates (f+ - 2 f) + f- axis by axis: every value is the
    one that whole pdf calls at the shifted points give, bit for bit."""
    z = np.ascontiguousarray(x.T)  # one contiguous row per axis
    phi = density.factor(z)
    prefix = list(accumulate(phi, np.multiply))  # prefix[i] = phi[0] * ... * phi[i]

    def shifted(i, moved):
        p = reduce(np.multiply, phi[i + 1:], moved if i == 0 else prefix[i - 1] * moved)
        return (1 - density.eps) * p + density.eps

    f = (1 - density.eps) * prefix[-1] + density.eps
    tr = np.zeros(len(x))
    for i in range(len(z)):
        tr += (shifted(i, density.factor(z[i] + step)) - 2.0 * f
               + shifted(i, density.factor(z[i] - step)))
    tr /= step**2
    return tr, f


def constants_oracle(
    density: AnalyticDensity,
    functional: Functional,
    n_mc: int,
    seed: int,
) -> TheoryConstants:
    """Monte Carlo theory constants using the analytic density.

    Draws Z ~ f, evaluates h(Z) with a finite-difference Hessian trace, and
    averages.  c3 (the boundary-extrapolation term) is not modeled: it is
    reported as 0.0.  Raises ValueError for n_mc < 2, and warns below 10^5
    draws.  Raises ValueError naming the first draw at which, or one
    difference step (1e-4) from which along an axis, the pdf is not
    finite, as a Beta pdf with a non-integer shape is past the edge of its
    support.

    The pdf, the Hessian trace and h are computed on each block of draws
    as the sampler yields it, and only f and h are kept.  The constants'
    products are then formed in place, so at most three n_mc-long arrays
    are alive at once, whatever the dimension.
    """
    if n_mc < 2:
        raise ValueError(f"n_mc must be at least 2, got {n_mc}")
    if n_mc < 100_000:
        warnings.warn(
            f"n_mc = {n_mc} < 1e5: oracle constants will be noisy", RuntimeWarning
        )
    d = density.dim
    step = 1e-4
    f = np.empty(n_mc)
    h = np.empty(n_mc)
    for rows, z in _draw_blocks(density, n_mc, seed, "oracle-constants", functional.id):
        with np.errstate(invalid="ignore"):
            tr, fb = _trace_hessian(density, z, step)
        bad = ~(np.isfinite(fb) & np.isfinite(tr))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"the density's pdf is not finite at draw {rows.start + i} {z[i]} or at a "
                f"point one finite-difference step ({step:g}) from it along an axis; the "
                "Hessian trace needs a finite pdf within the step of every draw"
            )
        f[rows] = fb
        h[rows] = fb ** (-2.0 / d) * hessian_weight(d) * tr
    gp = np.asarray(functional.g_prime(f), dtype=np.float64)
    h *= gp
    c1 = float(np.mean(h))
    del h
    fgp = f * gp
    del gp
    c5 = float(np.var(fgp, ddof=1))
    del fgp
    gpp = np.asarray(functional.g_double_prime(f), dtype=np.float64)
    c2_terms = f**2
    c2_terms *= gpp
    del gpp
    c2_terms /= 2.0
    c2 = float(np.mean(c2_terms))
    del c2_terms
    g = np.asarray(functional.g(f), dtype=np.float64)
    del f
    c4 = float(np.var(g, ddof=1))
    return TheoryConstants(c1=c1, c2=c2, c3=0.0, c4=c4, c5=c5, mode="oracle")


def rate_matched_k(M: int, d: int) -> int:
    """k = M^(2/(2+d)) rounded, floored at 3: balances the two bias rates
    without knowing the density's constants."""
    if M < 2:
        raise ValueError("M must be >= 2")
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")
    return max(3, int(round(M ** (2.0 / (2.0 + d)))))


def optimal_k(c0: float, c2: float, d: int, M: int) -> int:
    """MSE-optimal k = round(k0 * M^(2/(2+d))), clamped to [3, M].

    k0 = (|c2| d / (2 |c0|))^(d/(d+2)) when c0*c2 > 0 (interior optimum of
    |bias|), and (|c2|/|c0|)^(d/(d+2)) when the signs differ (bias zero
    crossing).  c0 is the constant bias coefficient c1 + c3 (the oracle
    reports c3 = 0); c0 = 0 falls back to the rate-matched rule with a
    warning.
    """
    k_rate_matched = rate_matched_k(M, d)  # checks M and d
    if c0 == 0.0:
        warnings.warn("c0 = 0: falling back to rate-matched k", RuntimeWarning)
        return k_rate_matched
    if c2 == 0.0:
        warnings.warn("c2 = 0: k0 degenerates, clamping to 3", RuntimeWarning)
        return 3
    if c0 * c2 > 0:
        k0 = (abs(c2) * d / (2.0 * abs(c0))) ** (d / (d + 2.0))
    else:
        k0 = (abs(c2) / abs(c0)) ** (d / (d + 2.0))
    k = int(round(k0 * M ** (2.0 / (2.0 + d))))
    return min(max(k, 3), M)


def predict_bias_variance(constants: TheoryConstants, k: int, N: int, M: int, d: int):
    """Leading-term predictions (bias, variance) at the given (k, N, M)."""
    bias = constants.c1 * (k / M) ** (2.0 / d) + constants.c2 / k + constants.c3
    variance = constants.c4 / N + constants.c5 / M
    return bias, variance
