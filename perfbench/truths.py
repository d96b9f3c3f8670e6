"""Ground truths for the benchmark's densities, computed without knnfunc.

The Beta(a, b)/uniform mixture f(x) = (1 - eps) prod_i Beta(x_i; a, b) + eps
on [0, 1]^d and the block Beta(5,2)/(2,5) mixtures are integrated here by
tensor Gauss-Legendre quadrature (d <= 3) or by a seeded numpy Monte Carlo
(d = 6).  Every value is recomputed on each call; nothing is cached on disk.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

MIX_A = 4.0
MIX_B = 4.0
MIX_EPS = 0.2
RENYI_ALPHA = 0.5
MC_SEED = 20_240_601


def _beta_pdf(x, a, b):
    lognorm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    return math.exp(lognorm) * x ** (a - 1) * (1 - x) ** (b - 1)


def _unit_nodes(n):
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _tensor_mean(phi_of_product, d, n):
    """Integral over [0,1]^d of phi(prod_i B(x_i)) by n^d tensor quadrature,
    accumulated one leading node at a time to bound memory."""
    x, w = _unit_nodes(n)
    b = _beta_pdf(x, MIX_A, MIX_B)
    if d == 1:
        return float(np.sum(w * phi_of_product(b)))
    inner_b, inner_w = np.ones(1), np.ones(1)
    for _ in range(d - 2):
        inner_b = np.multiply.outer(inner_b, b).ravel()
        inner_w = np.multiply.outer(inner_w, w).ravel()
    total = 0.0
    for bi, wi in zip(b, w):
        vals = phi_of_product(bi * np.multiply.outer(inner_b, b))
        total += wi * float(inner_w @ vals @ w)
    return total


def mixture_truths(d, n=200):
    """(Shannon entropy, Renyi(0.5) entropy) of the d-dim mixture, d <= 3."""
    if d > 3:
        raise ValueError("tensor quadrature is used for d <= 3 only")

    def dens(p):
        return (1 - MIX_EPS) * p + MIX_EPS

    shannon = -_tensor_mean(lambda p: dens(p) * np.log(dens(p)), d, n)
    integral = _tensor_mean(lambda p: dens(p) ** RENYI_ALPHA, d, n)
    return shannon, math.log(integral) / (1 - RENYI_ALPHA)


def mixture_truths_mc(d, draws=2_000_000, seed=MC_SEED, chunk=250_000):
    """Monte Carlo (Shannon, Renyi(0.5)) entropies with their standard errors.

    Returns ((h, se_h), (h_renyi, se_renyi)); the Renyi standard error is
    propagated from the integral by the delta method.
    """
    rng = np.random.default_rng(seed)
    logs, roots = [], []
    done = 0
    while done < draws:
        m = min(chunk, draws - done)
        uniform = rng.random(m) < MIX_EPS
        x = np.where(uniform[:, None], rng.random((m, d)), rng.beta(MIX_A, MIX_B, (m, d)))
        f = (1 - MIX_EPS) * np.prod(_beta_pdf(x, MIX_A, MIX_B), axis=1) + MIX_EPS
        logs.append(-np.log(f))
        roots.append(f ** (RENYI_ALPHA - 1))
        done += m
    logs = np.concatenate(logs)
    roots = np.concatenate(roots)
    se = lambda v: float(np.std(v, ddof=1) / math.sqrt(v.size))
    integral = float(np.mean(roots))
    h_renyi = math.log(integral) / (1 - RENYI_ALPHA)
    return (float(np.mean(logs)), se(logs)), (h_renyi, se(roots) / ((1 - RENYI_ALPHA) * integral))


def _block_pdf(x, w=0.5):
    """Density of one block of the block Beta mixture; x is (..., m)."""
    first = np.prod(_beta_pdf(x, 5.0, 2.0), axis=-1)
    second = np.prod(_beta_pdf(x, 2.0, 5.0), axis=-1)
    return w * first + (1 - w) * second


def block_entropies(n=400):
    """(H of a one-column block, H of a two-column block) by quadrature."""
    x, w = _unit_nodes(n)
    f1 = _block_pdf(x[:, None])
    h1 = -float(np.sum(w * f1 * np.log(f1)))
    grid = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
    f2 = _block_pdf(grid)
    h2 = -float(w @ (f2 * np.log(f2)) @ w)
    return h1, h2


def block_mi_within():
    """MI between the two columns of a two-column block: 2 H1 - H2."""
    h1, h2 = block_entropies()
    return 2 * h1 - h2


def shannon_constants_d3(n=120, M=7000):
    """Quadrature c1, c2 of the d=3 Shannon functional, the standard
    deviation of its c1 summand g'(f) h under f, and the k_opt they give.

    h(x) = Gamma((d+2)/2)^(2/d) / (2 (d+2) pi) f^(-2/d) tr Hess f, g'(u) = -1/u.
    """
    d = 3
    x, w = _unit_nodes(n)
    b = _beta_pdf(x, MIX_A, MIX_B)
    # B'' for Beta(4,4) = 140 x^3 (1-x)^3
    bdd = 140.0 * (6 * x * (1 - x) ** 3 - 18 * x**2 * (1 - x) ** 2 + 6 * x**3 * (1 - x))
    g = np.stack(np.meshgrid(b, b, b, indexing="ij"))
    gdd = np.stack(np.meshgrid(bdd, bdd, bdd, indexing="ij"))
    ww = np.einsum("i,j,k->ijk", w, w, w)
    prod = g[0] * g[1] * g[2]
    f = (1 - MIX_EPS) * prod + MIX_EPS
    tr = (1 - MIX_EPS) * (gdd[0] * g[1] * g[2] + g[0] * gdd[1] * g[2] + g[0] * g[1] * gdd[2])
    hw = math.gamma((d + 2) / 2) ** (2.0 / d) / (2.0 * (d + 2) * math.pi)
    summand = (-1.0 / f) * hw * f ** (-2.0 / d) * tr
    c1 = float(np.sum(ww * f * summand))
    sd = math.sqrt(float(np.sum(ww * f * summand**2)) - c1**2)
    c2 = 0.5
    k_opt = (c2 / abs(c1)) ** (d / (d + 2)) * M ** (2 / (d + 2))
    return c1, c2, sd, k_opt
