"""Seeded Monte Carlo truths for the d = 3 Beta(4,4)/uniform mixture.

The experiment scripts compare against these values.  Each is computed by
the library from the analytic density and printed with its standard
error, so a script's verdict can be read against the truth's own noise.
"""

import math

import numpy as np

from knnfunc import (
    beta_uniform_mixture_density,
    constants_oracle,
    renyi_functional,
    shannon_functional,
    true_functional,
)

MIXTURE = {"d": 3, "a": 4.0, "b": 4.0, "eps": 0.2}
DENSITY = beta_uniform_mixture_density(
    MIXTURE["d"], MIXTURE["a"], MIXTURE["b"], MIXTURE["eps"])
SEED = 0
FUNCTIONAL_DRAWS = 4_000_000  # standard error about 5e-4 for H
CONSTANT_BATCHES = 10  # the oracle constants' standard error is the spread
BATCH_DRAWS = 100_000  # between independently seeded batches


def functional_truth(alpha=None):
    """E[g(f(X))]: the entropy H, or with alpha the Renyi integral I_alpha."""
    functional = shannon_functional() if alpha is None else renyi_functional(alpha)
    value, se = true_functional(DENSITY, functional, FUNCTIONAL_DRAWS, SEED)
    name = "H" if alpha is None else f"I_{alpha}"
    print(f"truth {name} = {value:.5f} +- {se:.5f}")
    return value


def shannon_constants(*names):
    """The named Shannon theory constants (c1, c2, ...): means over the
    seeded batches of constants_oracle."""
    batches = [
        constants_oracle(DENSITY, shannon_functional(), BATCH_DRAWS, SEED + b)
        for b in range(CONSTANT_BATCHES)
    ]
    out = []
    for name in names:
        values = np.array([getattr(c, name) for c in batches])
        value = float(np.mean(values))
        se = float(np.std(values, ddof=1)) / math.sqrt(CONSTANT_BATCHES)
        print(f"truth {name} = {value:.5f} +- {se:.5f}")
        out.append(value)
    return out
