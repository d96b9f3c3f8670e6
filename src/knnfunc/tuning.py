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

import numpy as np

from .data import AnalyticDensity
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


# rows of the draws per block of _trace_hessian
_HESSIAN_BLOCK_ROWS = 1 << 13


def hessian_weight(d: int) -> float:
    """Gamma((d+2)/2)^(2/d) / (2 (d+2) pi)."""
    return math.gamma((d + 2) / 2.0) ** (2.0 / d) / (2.0 * (d + 2) * math.pi)


def _trace_hessian(pdf, x, step):
    """Central-difference trace of the pdf Hessian at each row of x, and
    the pdf there.  Each pdf value comes from its own row alone, so the
    rows are stepped _HESSIAN_BLOCK_ROWS at a time, which keeps the seven
    shifted copies of a block in cache: the same bits as on all of x.
    """
    n, d = x.shape
    f0 = np.empty(n)
    tr = np.empty(n)
    for start in range(0, n, _HESSIAN_BLOCK_ROWS):
        rows = slice(start, start + _HESSIAN_BLOCK_ROWS)
        xb = x[rows]
        f = f0[rows] = pdf(xb)
        t = np.zeros(len(xb))
        for i in range(d):
            e = np.zeros(d)
            e[i] = step
            t += pdf(xb + e) - 2.0 * f + pdf(xb - e)
        tr[rows] = t
    return tr / step**2, f0


def constants_oracle(
    density: AnalyticDensity,
    functional: Functional,
    n_mc: int,
    seed: int,
) -> TheoryConstants:
    """Monte Carlo theory constants using the analytic density.

    Draws Z ~ f, evaluates h(Z) with a finite-difference Hessian trace, and
    averages.  c3 (the boundary-extrapolation term) is not modeled: it is
    reported as 0.0.  Warns below 10^5 draws.  Raises ValueError naming
    the first draw at which, or one difference step (1e-4) from which
    along an axis, the pdf is not finite, as a Beta pdf with a non-integer
    shape is past the edge of its support.
    """
    if n_mc < 100_000:
        warnings.warn(
            f"n_mc = {n_mc} < 1e5: oracle constants will be noisy", RuntimeWarning
        )
    z = density.sample(n_mc, seed, "oracle-constants", functional.id)
    step = 1e-4
    with np.errstate(invalid="ignore"):
        tr, f = _trace_hessian(density.pdf, z, step)
    bad = ~(np.isfinite(f) & np.isfinite(tr))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"the density's pdf is not finite at draw {i} {z[i]} or at a point one "
            f"finite-difference step ({step:g}) from it along an axis; the Hessian "
            "trace needs a finite pdf within the step of every draw"
        )
    d = density.dim
    h = hessian_weight(d) * f ** (-2.0 / d) * tr
    gp = np.asarray(functional.g_prime(f), dtype=np.float64)
    gpp = np.asarray(functional.g_double_prime(f), dtype=np.float64)
    gv = np.asarray(functional.g(f), dtype=np.float64)
    return TheoryConstants(
        c1=float(np.mean(gp * h)),
        c2=float(np.mean(f**2 * gpp / 2.0)),
        c3=0.0,
        c4=float(np.var(gv, ddof=1)),
        c5=float(np.var(f * gp, ddof=1)),
        mode="oracle",
    )


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
    if M < 2:
        raise ValueError("M must be >= 2")
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")
    if c0 == 0.0:
        warnings.warn("c0 = 0: falling back to rate-matched k", RuntimeWarning)
        return rate_matched_k(M, d)
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
