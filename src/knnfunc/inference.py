"""Confidence intervals, the Monte Carlo harness, and diagnostics.

The CLT for the plug-in estimator justifies intervals
estimate +- z * sqrt(c4/N + c5/M).  The harness replays a TrialSpec
n_trials times with per-trial derived seeds, so results are reproducible
for a fixed (spec, n_trials) and independent of execution order.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .boundary import BoundaryConfig
from .data import (
    Dataset,
    sample_beta_uniform_mixture,
    sample_block_beta_mixture,
    sample_projected_manifold,
    split as make_split,
)
from .functionals import (
    bpi_estimate,
    bpi_estimate_bc,
    renyi_functional,
    shannon_functional,
)
from .rng import derive_key, make_rng
from .tuning import TheoryConstants, optimal_k, rate_matched_k

__all__ = [
    "normal_quantile",
    "normal_cdf",
    "confidence_interval",
    "TrialSpec",
    "TrialResults",
    "generate_dataset",
    "monte_carlo",
    "normality_diagnostics",
    "rate_fit",
]


# Wichura's AS 241 (PPND16): rational approximations on three regions.
_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
      2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
      1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
      7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def _poly(coeffs, x):
    out = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out = out * x + c
    return out


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (AS 241, abs error < 1e-15)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _poly(_A, r) / _poly(_B, r)
    r = p if q < 0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        val = _poly(_C, r) / _poly(_D, r)
    else:
        r -= 5.0
        val = _poly(_E, r) / _poly(_F, r)
    return -val if q < 0 else val


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def confidence_interval(
    estimate: float, c4: float, c5: float, N: int, M: int, level: float
):
    """estimate +- z_{(1+level)/2} * sqrt(c4/N + c5/M)."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if c4 < 0 or c5 < 0:
        raise ValueError("variance constants must be nonnegative")
    half = normal_quantile((1.0 + level) / 2.0) * math.sqrt(c4 / N + c5 / M)
    return estimate - half, estimate + half


# -- Monte Carlo harness ------------------------------------------------------

def generate_dataset(name: str, T: int, seed: int, params: dict) -> Dataset:
    """Dispatch to the synthetic generators by name."""
    if name == "beta_uniform_mixture":
        return sample_beta_uniform_mixture(
            T, params["d"], params["a"], params["b"], params["eps"], seed
        )
    if name == "uniform":
        rng = make_rng(seed, "uniform-cube", T, params["d"])
        return Dataset(rng.random((T, params["d"])))
    if name == "projected_manifold":
        return sample_projected_manifold(
            T, params["intrinsic_d"], params["ambient_D"], seed
        )
    if name == "block_beta_mixture":
        return sample_block_beta_mixture(T, params["block_sizes"], seed)
    raise ValueError(f"unknown generator {name!r}")


@dataclass(frozen=True)
class TrialSpec:
    """One reproducible experiment configuration.

    k_rule is "fixed" (uses k), "rate" (rate-matched in M), or "optimal"
    (needs oracle constants).  When constants are present the confidence
    interval uses the oracle c4/c5; otherwise the per-trial empirical
    variance estimate.
    """

    generator: str
    generator_params: dict
    T: int
    alpha_frac: float
    functional_id: str  # "shannon" | "renyi"
    k_rule: str = "rate"
    k: Optional[int] = None
    alpha: Optional[float] = None
    boundary_correct: bool = True
    bias_correct: bool = True
    boundary_config: BoundaryConfig = field(default_factory=BoundaryConfig)
    constants: Optional[TheoryConstants] = None
    truth: Optional[float] = None
    ci_level: float = 0.95
    base_seed: int = 0

    def __post_init__(self):
        if self.bias_correct and not self.boundary_correct:
            raise ValueError(
                "bias_correct=True with boundary_correct=False is not supported: "
                "the bias-corrected estimator always boundary-corrects"
            )

    def resolve_k(self, M: int, d: int) -> int:
        if self.k_rule == "fixed":
            if self.k is None:
                raise ValueError("fixed k rule requires k")
            return self.k
        if self.k_rule == "rate":
            return rate_matched_k(M, d)
        if self.k_rule == "optimal":
            if self.constants is None or self.constants.c1 is None:
                raise ValueError("optimal k rule requires oracle constants")
            c0 = self.constants.c1 + (self.constants.c3 or 0.0)
            return optimal_k(c0, self.constants.c2, d, M)
        raise ValueError(f"unknown k rule {self.k_rule!r}")

    def functional(self):
        if self.functional_id == "shannon":
            return shannon_functional()
        if self.functional_id == "renyi":
            if self.alpha is None:
                raise ValueError("renyi requires alpha")
            return renyi_functional(self.alpha)
        raise ValueError(f"unknown functional {self.functional_id!r}")


@dataclass(frozen=True)
class TrialResults:
    estimates: np.ndarray
    ks: np.ndarray
    truth: Optional[float]
    coverage: Optional[np.ndarray]

    @property
    def summary(self) -> dict:
        est = self.estimates
        out = {
            "n_trials": int(est.size),
            "mean": float(np.mean(est)),
            "variance": float(np.var(est, ddof=1)) if est.size > 1 else 0.0,
        }
        if self.truth is not None:
            out["truth"] = float(self.truth)
            out["bias"] = out["mean"] - self.truth
            out["mse"] = float(np.mean((est - self.truth) ** 2))
        if self.coverage is not None:
            out["coverage"] = float(np.mean(self.coverage))
        return out


def run_trial(spec: TrialSpec, trial: int):
    """One end-to-end estimate for the given trial index."""
    seed = derive_key(spec.base_seed, "trial", trial) % (2**63)
    data = generate_dataset(spec.generator, spec.T, seed, spec.generator_params)
    sp = make_split(data, spec.alpha_frac, seed)
    k = spec.resolve_k(sp.n_ref, data.dim)
    func = spec.functional()
    if spec.bias_correct:
        report = bpi_estimate_bc(data, sp, func, k, config=spec.boundary_config)
    else:
        report = bpi_estimate(
            data, sp, func, k,
            boundary_correct=spec.boundary_correct,
            config=spec.boundary_config,
        )
    return report


def monte_carlo(spec: TrialSpec, n_trials: int) -> TrialResults:
    """n_trials independent end-to-end runs with derived per-trial seeds."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    estimates = np.empty(n_trials)
    ks = np.empty(n_trials, dtype=int)
    cover = np.empty(n_trials, dtype=bool) if spec.truth is not None else None
    for t in range(n_trials):
        try:
            report = run_trial(spec, t)
        except Exception as exc:
            raise RuntimeError(f"trial {t} failed: {exc}") from exc
        estimates[t] = report.estimate
        ks[t] = report.k
        if cover is not None:
            if spec.constants is not None:
                lo, hi = confidence_interval(
                    report.estimate, spec.constants.c4, spec.constants.c5,
                    report.N, report.M, spec.ci_level,
                )
            else:
                half = normal_quantile((1 + spec.ci_level) / 2) * math.sqrt(
                    report.variance_estimate
                )
                lo, hi = report.estimate - half, report.estimate + half
            cover[t] = lo <= spec.truth <= hi
    return TrialResults(estimates=estimates, ks=ks, truth=spec.truth, coverage=cover)


# -- diagnostics --------------------------------------------------------------

def _kolmogorov_sf(lam: float) -> float:
    """P(sup |B(t)| > lam), the Kolmogorov asymptotic tail."""
    if lam <= 0:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
    return max(0.0, min(1.0, 2.0 * total))


def normality_diagnostics(estimates):
    """KS test of standardized estimates against the standard normal.

    Returns (ks_statistic, p_value, qq_pairs) where qq_pairs is an (n, 2)
    array of (theoretical, empirical) quantiles.  The p-value uses the
    asymptotic Kolmogorov distribution at sqrt(n) * D; with mean and sd
    estimated from the sample it is conservative (biased large), which is
    the safe direction for a p > threshold acceptance check.
    """
    x = np.asarray(estimates, dtype=np.float64)
    if x.size < 20:
        raise ValueError("need at least 20 samples")
    sd = np.std(x, ddof=1)
    if sd == 0:
        raise ValueError("zero sample variance")
    z = np.sort((x - np.mean(x)) / sd)
    n = z.size
    cdf = np.array([normal_cdf(v) for v in z])
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    ks = max(d_plus, d_minus)
    p = _kolmogorov_sf(math.sqrt(n) * ks)
    theo = np.array([normal_quantile((j - 0.5) / n) for j in i])
    return float(ks), float(p), np.column_stack([theo, z])


def rate_fit(sizes, errors):
    """OLS fit of log(error) on log(size): (slope, intercept, r_squared)."""
    sizes = np.asarray(sizes, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if sizes.size < 3:
        raise ValueError("need at least 3 points")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive")
    x = np.log(sizes)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)
