"""The Monte Carlo harness and diagnostics.

The CLT for the plug-in estimator justifies intervals
estimate +- z * sqrt(c4/N + c5/M) (functionals.normal_interval), which the
harness checks against the truth.  It replays a TrialSpec
n_trials times with per-trial derived seeds, so results are reproducible
for a fixed (spec, n_trials) and independent of execution order.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtri

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
    normal_interval,
    _named_functional,
)
from .knn import _ordered_map
from .rng import derive_key, make_rng
from .tuning import TheoryConstants, rate_matched_k

__all__ = [
    "TrialSpec",
    "TrialResults",
    "generate_dataset",
    "monte_carlo",
    "normality_diagnostics",
    "rate_fit",
]


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

    k_rule is "fixed" (uses k) or "rate" (rate-matched in M, and takes no
    k); the MSE-optimal k runs as "fixed" with k = tuning.optimal_k(...).
    alpha is the Renyi order: "renyi" needs one that renyi_functional
    accepts, and "shannon" takes none.  The rule, k, functional_id and
    alpha are checked when the spec is built, before any trial runs.
    boundary_config is passed to the estimator as its config: None plugs
    in the standard k-NN density.  constants serve only the confidence
    interval: when present it uses the oracle c4/c5, otherwise the
    per-trial empirical variance estimate.
    """

    generator: str
    generator_params: dict
    T: int
    alpha_frac: float
    functional_id: str  # "shannon" | "renyi"
    k_rule: str = "rate"
    k: Optional[int] = None
    alpha: Optional[float] = None
    bias_correct: bool = True
    boundary_config: Optional[BoundaryConfig] = None
    constants: Optional[TheoryConstants] = None
    truth: Optional[float] = None
    ci_level: float = 0.95
    base_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci level must lie in (0, 1)")
        if self.k_rule not in ("fixed", "rate"):
            raise ValueError(f"unknown k rule {self.k_rule!r}")
        if self.k_rule == "fixed" and self.k is None:
            raise ValueError("fixed k rule requires k")
        if self.k_rule == "rate" and self.k is not None:
            raise ValueError(
                f"rate k rule picks k from M, so k={self.k} would be ignored; "
                "use k_rule 'fixed'"
            )
        if self.functional_id == "shannon" and self.alpha is not None:
            raise ValueError(
                f"shannon takes no alpha, so alpha={self.alpha} would be ignored; "
                "use functional_id 'renyi'"
            )
        self.functional()  # an unknown name, or an alpha renyi_functional rejects, raises

    def resolve_k(self, M: int, d: int) -> int:
        return self.k if self.k_rule == "fixed" else rate_matched_k(M, d)

    def functional(self):
        return _named_functional(self.functional_id, self.alpha)


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
    estimator = bpi_estimate_bc if spec.bias_correct else bpi_estimate
    return estimator(data, sp, spec.functional(), k, config=spec.boundary_config)


def monte_carlo(spec: TrialSpec, n_trials: int) -> TrialResults:
    """n_trials independent end-to-end runs with derived per-trial seeds.

    The trials run concurrently (knn._ordered_map) and are collected in
    trial order; each draws from its own generator, so the results are
    those of running them one after another.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    outcomes = _ordered_map(lambda t: _trial_outcome(spec, t), range(n_trials))
    estimates, ks, cover = zip(*outcomes)
    return TrialResults(
        estimates=np.array(estimates),
        ks=np.array(ks, dtype=int),
        truth=spec.truth,
        coverage=np.array(cover, dtype=bool) if spec.truth is not None else None,
    )


def _trial_outcome(spec: TrialSpec, t: int):
    """(estimate, k, whether the interval covers the truth) of trial t."""
    try:
        report = run_trial(spec, t)
    except Exception as exc:
        raise RuntimeError(f"trial {t} failed: {exc}") from exc
    if spec.truth is None:
        return report.estimate, report.k, None
    c = spec.constants
    variance = report.variance_estimate if c is None else c.c4 / report.N + c.c5 / report.M
    lo, hi = normal_interval(report.estimate, variance, spec.ci_level)
    return report.estimate, report.k, lo <= spec.truth <= hi


# -- diagnostics --------------------------------------------------------------

def normality_diagnostics(estimates):
    """KS test of standardized estimates against the standard normal.

    Returns (ks_statistic, p_value, qq_pairs) where qq_pairs is an (n, 2)
    array of (theoretical, empirical) quantiles.  The p-value uses the
    asymptotic Kolmogorov distribution at sqrt(n) * D; with mean and sd
    estimated from the sample it is conservative (biased large), which is
    the safe direction for a p > threshold acceptance check.
    """
    # here, not at the top: scipy.stats takes about 0.5 s to import
    from scipy.stats import kstest

    x = np.asarray(estimates, dtype=np.float64)
    if x.size < 20:
        raise ValueError("need at least 20 samples")
    sd = np.std(x, ddof=1)
    if sd == 0:
        raise ValueError("zero sample variance")
    z = np.sort((x - np.mean(x)) / sd)
    n = z.size
    ks = kstest(z, "norm", method="asymp")
    theo = ndtri((np.arange(1, n + 1) - 0.5) / n)
    return float(ks.statistic), float(ks.pvalue), np.column_stack([theo, z])


def rate_fit(sizes, errors):
    """OLS fit of log(error) on log(size): (slope, intercept, r_squared).
    Needs sizes and errors as 1-d sequences of one length, at least 3, and
    two distinct sizes."""
    sizes = np.asarray(sizes, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if sizes.ndim != 1 or sizes.shape != errors.shape:
        raise ValueError("sizes and errors must be 1-d and of one length")
    if sizes.size < 3:
        raise ValueError("need at least 3 points")
    if not np.all(np.isfinite(sizes) & (sizes > 0)):
        raise ValueError("sizes must be finite and positive")
    if not np.all(np.isfinite(errors) & (errors > 0)):
        raise ValueError("errors must be finite and positive")
    if np.all(sizes == sizes[0]):
        raise ValueError("sizes are all equal: the slope is undefined")
    x = np.log(sizes)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)
