"""Disjoint factor-graph comparison via surrogate cross-entropy tests.

For a factorization into disjoint variable blocks the cross-entropy
against the true density is the sum of block Shannon entropies, so two
candidate models compare through

    Hc_hat(model_n) - Hc_hat(model_l)  <>  0,

each block entropy estimated on its own disjoint slice of the sample.
Bias cancels between models whose factor-order histograms (the dimension
vector) match, which is what makes same-dimension comparisons far more
reliable than cross-dimension ones.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boundary import BoundaryConfig
from .data import Dataset, split
from .functionals import bpi_estimate_bc, shannon_functional
from .rng import make_rng

__all__ = [
    "Factorization",
    "cross_entropy_estimate",
    "ModelComparison",
    "compare_models",
]


@dataclass(frozen=True)
class Factorization:
    """Disjoint variable blocks covering {0..d-1}, plus a label."""

    factors: tuple
    label: str

    def __post_init__(self):
        factors = tuple(tuple(sorted(int(c) for c in f)) for f in self.factors)
        object.__setattr__(self, "factors", factors)
        seen = set()
        for f in factors:
            if not f:
                raise ValueError("empty factor")
            for c in f:
                if c in seen:
                    raise ValueError(f"column {c} appears in two factors")
                seen.add(c)

    def validate_cover(self, d: int):
        cols = sorted(c for f in self.factors for c in f)
        if cols != list(range(d)):
            raise ValueError(
                f"factors of {self.label!r} do not partition the {d} columns"
            )


def _entropy_on_slice(data, rows, cols, k, alpha_frac, config, seed):
    sub = Dataset(data.points[np.ix_(rows, list(cols))])
    sp = split(sub, alpha_frac, seed)
    if k >= sp.n_ref:
        raise ValueError(
            f"k={k} >= slice reference count {sp.n_ref}; shrink k or factors"
        )
    report = bpi_estimate_bc(sub, sp, shannon_functional(), k, config=config)
    return report.estimate


def cross_entropy_estimate(
    data: Dataset,
    factorization: Factorization,
    k: int,
    slice_rows,
    alpha_frac: float = 0.5,
    config: Optional[BoundaryConfig] = None,
    seed: int = 0,
) -> float:
    """Sum of per-factor Shannon entropies, one disjoint slice per factor.

    slice_rows is a list of row-index arrays, one per factor, normally
    produced by compare_models; they must be pairwise disjoint for the
    independence the variance formula assumes.
    """
    factorization.validate_cover(data.dim)
    if len(slice_rows) != len(factorization.factors):
        raise ValueError("need exactly one row slice per factor")
    total = 0.0
    for j, (fac, rows) in enumerate(zip(factorization.factors, slice_rows)):
        total += _entropy_on_slice(
            data, rows, fac, k, alpha_frac, config, seed + j
        )
    return total


@dataclass(frozen=True)
class ModelComparison:
    statistic: float  # Hc_hat(model_n) - Hc_hat(model_l)
    decision: str  # label of the lower-cross-entropy model
    model_n: str
    model_l: str


def compare_models(
    data: Dataset,
    model_n: Factorization,
    model_l: Factorization,
    k: int,
    budget: Optional[int] = None,
    alpha_frac: float = 0.5,
    config: Optional[BoundaryConfig] = None,
    seed: int = 0,
) -> ModelComparison:
    """Surrogate cross-entropy test between two factorizations.

    The V available rows (or ``budget`` of them) are partitioned into
    m1+m2 equal disjoint slices, assigned to factors in a canonical order
    (models sorted by label), so swapping the argument order reuses the
    identical slices and flips the statistic's sign exactly.  The
    decision names model_n when the statistic is negative, else model_l.
    """
    d = data.dim
    model_n.validate_cover(d)
    model_l.validate_cover(d)
    if model_n.label == model_l.label and model_n.factors != model_l.factors:
        raise ValueError("distinct models must carry distinct labels")
    V = data.count if budget is None else min(budget, data.count)
    m_total = len(model_n.factors) + len(model_l.factors)
    size = V // m_total
    if size < 8:
        raise ValueError("budget infeasible: fewer than 8 rows per factor slice")
    rng = make_rng(seed, "structure-slices", V, m_total)
    perm = rng.permutation(data.count)[:V]
    slices = [perm[j * size : (j + 1) * size] for j in range(m_total)]
    first, second = sorted([model_n, model_l], key=lambda m: m.label)
    cut = len(first.factors)
    assign = {first.label: slices[:cut], second.label: slices[cut:]}
    hc_n = cross_entropy_estimate(
        data, model_n, k, assign[model_n.label], alpha_frac, config, seed
    )
    hc_l = cross_entropy_estimate(
        data, model_l, k, assign[model_l.label], alpha_frac, config, seed
    )
    statistic = hc_n - hc_l
    decision = model_n.label if statistic < 0 else model_l.label
    return ModelComparison(
        statistic=statistic,
        decision=decision,
        model_n=model_n.label,
        model_l=model_l.label,
    )
