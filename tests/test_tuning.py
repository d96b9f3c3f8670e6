import math

import numpy as np
import pytest

from knnfunc import (
    BoundaryConfig,
    Functional,
    beta_uniform_mixture_density,
    bpi_estimate,
    constants_oracle,
    optimal_k,
    predict_bias_variance,
    rate_matched_k,
    renyi_functional,
    shannon_functional,
    split,
    uniform_density,
)
from knnfunc.data import _HESSIAN_BLOCK_ROWS
from knnfunc.inference import generate_dataset
from knnfunc.rng import make_rng
from knnfunc.tuning import TheoryConstants, _trace_hessian, hessian_weight

import oracles


def test_constants_oracle_uniform_shannon():
    dens = uniform_density(3)
    c = constants_oracle(dens, shannon_functional(), 120_000, seed=1)
    assert abs(c.c1) < 1e-6  # trace of a constant pdf's Hessian is 0
    assert abs(c.c2 - 0.5) < 1e-12  # f^2 g'' / 2 = 1/2 pointwise
    assert abs(c.c4) < 1e-12  # g(f) constant
    assert abs(c.c5) < 1e-12  # f g'(f) = -1 constant
    assert c.c3 == 0.0


def test_constants_oracle_mixture_shannon_fixtures():
    dens = beta_uniform_mixture_density(3, 4, 4, 0.2)
    c = constants_oracle(dens, shannon_functional(), 300_000, seed=2)
    # MC standard errors at 3e5 draws: se(c1) ~ 0.010, se(c4) ~ 0.006
    assert abs(c.c1 - oracles.C1_SHANNON_MIX) < 0.05
    assert abs(c.c2 - oracles.C2_SHANNON_MIX) < 1e-12
    assert abs(c.c4 - oracles.C4_SHANNON_MIX) < 0.03
    assert c.c5 < 1e-12


def test_constants_oracle_mixture_renyi_fixtures():
    dens = beta_uniform_mixture_density(3, 4, 4, 0.2)
    c = constants_oracle(dens, renyi_functional(0.5), 300_000, seed=3)
    assert abs(c.c1 - oracles.C1_RENYI05_MIX) < 0.05
    assert abs(c.c2 - oracles.C2_RENYI05_MIX) < 0.005
    assert abs(c.c4 - oracles.C4_RENYI05_MIX) < 0.01
    # exact identity: c5 = (alpha-1)^2 c4 = c4/4 for alpha = 1/2
    assert abs(c.c5 - c.c4 / 4.0) < 1e-12


def test_constants_oracle_warns_small_mc():
    with pytest.warns(RuntimeWarning, match="noisy"):
        constants_oracle(uniform_density(2), shannon_functional(), 20_000, seed=0)


def test_constants_oracle_needs_two_draws():
    for n_mc in (-5, 0, 1):
        with pytest.raises(ValueError, match=f"n_mc must be at least 2, got {n_mc}"):
            constants_oracle(uniform_density(2), shannon_functional(), n_mc, seed=0)


def test_block_hessian_equals_full_array_central_difference():
    # constants_oracle takes the trace from the product form on each block
    # the sampler yields, the reference from whole pdf calls on the whole
    # draw; 70,001 rows are no whole number of row blocks.  The a = 0.7
    # factor has no real value left of 0, so some traces are nan there
    n = 70_001
    assert n > _HESSIAN_BLOCK_ROWS and n % _HESSIAN_BLOCK_ROWS
    for dens in (beta_uniform_mixture_density(3, 4.0, 4.0, 0.2),
                 beta_uniform_mixture_density(1, 2.0, 5.0, 0.1),
                 beta_uniform_mixture_density(2, 4.0, 4.0, 0.2),
                 beta_uniform_mixture_density(4, 2.0, 5.0, 0.1),
                 beta_uniform_mixture_density(5, 4.0, 2.0, 0.3),
                 beta_uniform_mixture_density(6, 2.0, 3.0, 0.3),
                 beta_uniform_mixture_density(2, 0.7, 3.0, 0.2),
                 uniform_density(3)):
        blocks = list(dens.sampler(n, make_rng(3, "hessian")))
        with np.errstate(invalid="ignore"):
            got = zip(*(_trace_hessian(dens, z, 1e-4) for z in blocks))
            want = oracles.full_trace_hessian(dens.pdf, np.concatenate(blocks), 1e-4)
        for a, b in zip(got, want):
            assert np.array_equal(np.concatenate(a), b, equal_nan=True), dens.dim


@pytest.mark.parametrize("functional", [shannon_functional(), renyi_functional(0.5)],
                         ids=["shannon", "renyi0.5"])
def test_constants_oracle_equals_the_full_array_expressions(functional):
    dens = beta_uniform_mixture_density(2, 4.0, 4.0, 0.2)
    n = 100_001
    z = oracles.sample(dens, n, 6, "oracle-constants", functional.id)
    tr, f = oracles.full_trace_hessian(dens.pdf, z, 1e-4)
    h = hessian_weight(2) * f ** (-2.0 / 2) * tr
    gp = functional.g_prime(f)
    got = constants_oracle(dens, functional, n, 6)
    assert (got.c1, got.c2, got.c3, got.c4, got.c5) == (
        float(np.mean(gp * h)),
        float(np.mean(f**2 * functional.g_double_prime(f) / 2.0)),
        0.0,
        float(np.var(functional.g(f), ddof=1)),
        float(np.var(f * gp, ddof=1)),
    )


def test_constants_oracle_memory_is_three_arrays(traced_peak):
    # f and h are kept, built a block of draws at a time, and the
    # constants' products are formed in place: no n x d array of draws,
    # so the bound holds at any d
    dens = beta_uniform_mixture_density(6, 4.0, 4.0, 0.2)
    n = 200_000
    _, peak = traced_peak(lambda: constants_oracle(dens, shannon_functional(), n, 1))
    assert peak <= 3 * 8 * n + (2 << 20)


def test_hessian_weight_d3_value():
    # Gamma(2.5)^(2/3) / (10 pi)
    expected = math.gamma(2.5) ** (2.0 / 3.0) / (10.0 * math.pi)
    assert math.isclose(hessian_weight(3), expected, rel_tol=1e-14)


# The empirical constants are bpi_estimate's plug-ins: variance_estimate is
# c4/N + c5/M with c4 = V[g(f_hat)] and c5 = V[f_hat g'(f_hat)].  For Shannon
# f_hat g'(f_hat) = -1, so c5 = 0 up to rounding and variance_estimate * N
# is c4.

def _empirical_c4(data, sp, k, **kwargs):
    rep = bpi_estimate(data, sp, shannon_functional(), k, **kwargs)
    return rep.variance_estimate * rep.N


def test_constants_empirical_uniform_c4_shrinks():
    # true c4 is 0; the plug-in carries the estimator's own sampling noise
    # (var(log f_hat) ~ 1/k plus boundary spread), so k must be largish
    # and the detector live for the median to drop to 0.05 at T = 1e4
    cfg = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.02)
    vals = []
    for t in range(10):
        data = generate_dataset("uniform", 10_000, 100 + t, {"d": 3})
        sp = split(data, 0.7, 100 + t)
        vals.append(_empirical_c4(data, sp, 60, config=cfg))
    assert np.median(vals) <= 0.05


def test_constants_empirical_constant_functional_zero_variance():
    data = generate_dataset("uniform", 2000, 5, {"d": 2})
    sp = split(data, 0.7, 5)
    f = Functional(id="constant", g=np.ones_like, g_prime=np.zeros_like,
                   g_double_prime=np.zeros_like)
    rep = bpi_estimate(data, sp, f, 10)
    assert rep.variance_estimate == 0.0


def test_constants_empirical_mixture_c4_vs_oracle():
    vals = []
    for t in range(10):
        data = generate_dataset("beta_uniform_mixture", 10_000, 200 + t,
                                {"d": 3, "a": 4, "b": 4, "eps": 0.2})
        sp = split(data, 0.7, 200 + t)
        vals.append(_empirical_c4(data, sp, 35))
    med = float(np.median(vals))
    assert abs(med - oracles.C4_SHANNON_MIX) / oracles.C4_SHANNON_MIX < 0.25


def test_empirical_c4_equals_two_pass_variance():
    from knnfunc import build_index, knn_density

    data = generate_dataset("beta_uniform_mixture", 3000, 6,
                            {"d": 2, "a": 4, "b": 4, "eps": 0.2})
    sp = split(data, 0.7, 6)
    c4 = _empirical_c4(data, sp, 10)
    dens = knn_density(build_index(sp.ref_points(data)), sp.eval_points(data), 10)
    g = -np.log(dens.values)
    mean = sum(g) / len(g)
    twopass = sum((v - mean) ** 2 for v in g) / (len(g) - 1)
    assert abs(c4 - twopass) < 1e-12


def test_optimal_k_mixture_fixture_value():
    # with the quadrature constants (normalized h), the Shannon mixture
    # recommendation at M = 7000 is k = 17 (c1 c2 < 0: bias zero crossing)
    k = optimal_k(oracles.C1_SHANNON_MIX, oracles.C2_SHANNON_MIX, 3, 7000)
    assert k == 17


def test_optimal_k_degenerate_and_unit_cases():
    with pytest.warns(RuntimeWarning, match="rate-matched"):
        assert optimal_k(0.0, 0.5, 3, 7000) == rate_matched_k(7000, 3)
    with pytest.warns(RuntimeWarning, match="clamping"):
        assert optimal_k(1.0, 0.0, 3, 7000) == 3
    # |c2| d / (2 |c0|) = 1 with matching signs: k0 = 1
    d, M = 3, 7000
    c2 = 0.5
    c0 = c2 * d / 2.0
    assert optimal_k(c0, c2, d, M) == round(M ** (2.0 / (2.0 + d)))


def test_optimal_k_matches_grid_scan():
    for c0, c2, d, M in [(-1.64, 0.5, 3, 7000), (0.75, 0.5, 3, 7000),
                         (-0.3, 0.4, 2, 5000), (2.0, 1.0, 4, 20000)]:
        k_formula = optimal_k(c0, c2, d, M)
        ks = np.arange(3, M + 1)
        bias = c0 * (ks / M) ** (2.0 / d) + c2 / ks
        k_grid = int(ks[np.argmin(np.abs(bias))])
        assert abs(k_formula - k_grid) <= 1, (c0, c2, d, M, k_formula, k_grid)


def test_rate_matched_values():
    assert rate_matched_k(7000, 3) == 35
    assert rate_matched_k(32, 2) == 6
    assert rate_matched_k(3, 5) == 3


@pytest.mark.parametrize("d", [0, -2])
def test_non_positive_dimension_is_named(d):
    # otherwise d = 0 gives k = M silently, and d = -2 divides by zero
    with pytest.raises(ValueError, match=f"dimension d must be >= 1, got {d}"):
        rate_matched_k(100, d)
    with pytest.raises(ValueError, match=f"dimension d must be >= 1, got {d}"):
        optimal_k(1.0, 1.0, d, 100)
    for make in (uniform_density, lambda dim: beta_uniform_mixture_density(dim, 4, 4, 0.2)):
        with pytest.raises(ValueError, match=f"density dimension must be >= 1, got {d}"):
            make(d)


def test_predict_bias_variance():
    c = TheoryConstants(c1=0.0, c2=0.5, c3=0.0, c4=1.0, c5=2.0, mode="oracle")
    bias, var = predict_bias_variance(c, k=10, N=100, M=200, d=3)
    assert math.isclose(bias, 0.05)
    assert math.isclose(var, 1.0 / 100 + 2.0 / 200)
    bias2, _ = predict_bias_variance(c, k=20, N=100, M=200, d=3)
    assert math.isclose(bias2, bias / 2)  # the c2 term halves exactly
    # variance monotone decreasing in N and M
    _, v_bigN = predict_bias_variance(c, 10, 200, 200, 3)
    _, v_bigM = predict_bias_variance(c, 10, 100, 400, 3)
    assert v_bigN < var and v_bigM < var
    # every constant is a float: one without c1 cannot be built
    with pytest.raises(ValueError, match="c1"):
        TheoryConstants(c1=None, c2=0.5, c3=0.0, c4=1.0, c5=0.0, mode="oracle")


def test_theory_constants_validation():
    with pytest.raises(ValueError):
        TheoryConstants(c1=0.0, c2=0.5, c3=0.0, c4=-1.0, c5=0.0, mode="oracle")
    for name, bad in (("c3", None), ("c2", math.nan), ("c5", math.inf), ("c1", "0.1")):
        values = dict(c1=0.0, c2=0.5, c3=0.0, c4=1.0, c5=0.0)
        values[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be a finite real"):
            TheoryConstants(**values, mode="oracle")
