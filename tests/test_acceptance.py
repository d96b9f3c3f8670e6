"""Acceptance criteria, one test (or clause) per numbered criterion.

Each test prints a single [criterion N] PASS/FAIL line with the measured
quantities before asserting, so the tee'd suite output doubles as the
acceptance report.  Two clauses assert targets this estimator does not
reach and keep them as stated: 1a (uniform-cube Shannon bias, held back
by the boundary detector's recall) and 9c (low-true-vs-high-false
structure error, on a density that vanishes on the cube's faces).  The
docstrings of those two tests give the measured cause of each failure.

Detector configurations are per-experiment (each TrialSpec documents its
own), because the reverse-neighbor threshold trades interior purity
against boundary coverage differently in each regime.
"""

import math

import numpy as np
import pytest
from scipy.special import psi

from knnfunc import (
    BoundaryConfig,
    TrialSpec,
    bpi_estimate,
    bpi_estimate_bc,
    monte_carlo,
    mutual_information,
    normality_diagnostics,
    rate_fit,
    renyi_functional,
    shannon_functional,
    split,
)
from knnfunc import (
    Dataset,
    Factorization,
    build_index,
    compare_models,
    count_reverse_neighbors,
    estimate_dimension,
    knn_query,
    optimal_k,
    rate_matched_k,
    sample_block_beta_mixture,
    sample_projected_manifold,
)
from knnfunc.inference import generate_dataset
from knnfunc.rng import make_rng

import oracles

MIX_PARAMS = {"d": 3, "a": 4.0, "b": 4.0, "eps": 0.2}

# Frozen oracle-constant fixtures (tests/oracles.py; quadrature, normalized h)
C_SHANNON = {"c1": oracles.C1_SHANNON_MIX, "c2": oracles.C2_SHANNON_MIX,
             "c4": oracles.C4_SHANNON_MIX, "c5": 0.0}
K_OPT_FIXTURE = optimal_k(C_SHANNON["c1"], C_SHANNON["c2"], 3, 7000)

# per-experiment detector settings (see module docstring)
CFG_SWEEP = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)
CFG_UNIFORM = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.02)
CFG_ORDERING = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.15)


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# -- 1. uniform sanity ---------------------------------------------------

def test_criterion_1_uniform_shannon():
    """Shannon BPI-BC on uniform [0,1]^3, T=1e4, rate-matched k: the
    20-trial mean is required to sit within 0.05 of 0.

    Known red, measured on these 20 trials (k = 35, M = 7000, N = 3000):
    51% of evaluation points have k-NN balls that overspill a face.  The
    reverse-count detector (K = 15 graph on the evaluation points,
    threshold 0.98 K) flags 44%, with recall 0.52 and precision 0.60;
    among points within r_k/2 of a face its recall is 0.71.  The
    nearest-interior correction is not the limit: with the true overspill
    labels it gives -0.014, against +0.162 uncorrected and +0.090 with the
    detector.  Detectors that find more of the overspill (reverse counts
    over all T points at K = kT/M: +0.032; reverse counts in the
    reference k-NN graph: +0.023) turn criterion 4 red.  On the sloped
    mixture a constant nearest-interior value carries an O(r grad f) bias,
    and the present detector's misses offset it: with the true labels
    criterion 4's BC MSE at T = 2500 is 1.8e-2 against plain 3.4e-3, and
    criterion 7's coverage is 0.000.
    """
    spec = TrialSpec(
        generator="uniform", generator_params={"d": 3}, T=10_000,
        alpha_frac=0.7, functional_id="shannon", k_rule="rate",
        boundary_config=CFG_UNIFORM, base_seed=101,
    )
    res = monte_carlo(spec, 20)
    mean = res.summary["mean"]
    ok = abs(mean) <= 0.05
    _report("1a", ok, f"uniform Shannon BPI-BC 20-trial mean {mean:+.4f} "
                      f"(target |mean| <= 0.05)")
    assert ok, f"uniform Shannon mean {mean:+.4f} exceeds 0.05"


def test_criterion_1_uniform_renyi():
    spec = TrialSpec(
        generator="uniform", generator_params={"d": 3}, T=10_000,
        alpha_frac=0.7, functional_id="renyi", alpha=0.5, k_rule="rate",
        boundary_config=CFG_UNIFORM, base_seed=102,
    )
    res = monte_carlo(spec, 20)
    mean = res.summary["mean"]
    ok = abs(mean - 1.0) <= 0.05
    _report("1b", ok, f"uniform Renyi(0.5) integral 20-trial mean {mean:.4f} "
                      f"(target within 0.05 of 1)")
    assert ok, f"Renyi integral mean {mean:.4f} outside 1 +- 0.05"


# -- 2 & 3. the k sweep on the mixture ------------------------------------

KS_SWEEP = list(range(5, 151, 5))
N_TRIALS_SWEEP = 50


@pytest.fixture(scope="module")
def mixture_k_sweep():
    """Per-k mean and se of the plain Shannon BPI estimator (boundary
    corrected density, no bias-correction factor) at N=3000, M=7000."""
    means, ses = {}, {}
    for k in KS_SWEEP:
        spec = TrialSpec(
            generator="beta_uniform_mixture", generator_params=MIX_PARAMS,
            T=10_000, alpha_frac=0.7, functional_id="shannon",
            k_rule="fixed", k=k, bias_correct=False,
            boundary_config=CFG_SWEEP, base_seed=20_000 + k,
        )
        res = monte_carlo(spec, N_TRIALS_SWEEP)
        means[k] = res.summary["mean"]
        ses[k] = math.sqrt(res.summary["variance"] / N_TRIALS_SWEEP)
    return means, ses


def test_criterion_2_optimal_k_window(mixture_k_sweep):
    means, _ = mixture_k_sweep
    bias = {k: means[k] - oracles.H_SHANNON_MIX for k in KS_SWEEP}
    minimizer = min(KS_SWEEP, key=lambda k: abs(bias[k]))
    ok = abs(minimizer - K_OPT_FIXTURE) <= 15
    _report("2a", ok,
            f"empirical |bias| minimizer k={minimizer}, oracle k_opt="
            f"{K_OPT_FIXTURE}, |diff|={abs(minimizer-K_OPT_FIXTURE)} (<=15)")
    assert ok


def _simulated_centre_bias(k, M, draws, seed, batch=100):
    """Monte Carlo E[f_hat_k(x0)] - f(x0) at the mixture's centre x0, with
    its standard error: `draws` independent M-point reference samples,
    drawn here with numpy directly rather than through the library."""
    rng = np.random.default_rng(seed)
    cd = math.pi ** 1.5 / math.gamma(2.5)
    vals = []
    for start in range(0, draws, batch):
        b = min(batch, draws - start)
        pts = rng.beta(MIX_PARAMS["a"], MIX_PARAMS["b"], size=(b, M, 3))
        uni = rng.random((b, M)) < MIX_PARAMS["eps"]
        pts[uni] = rng.random((int(uni.sum()), 3))
        r2 = np.partition(np.sum((pts - 0.5) ** 2, axis=2), k - 1, axis=1)[:, k - 1]
        vals.append((k - 1) / (M * cd * r2**1.5))
    vals = np.concatenate(vals)
    bias = float(np.mean(vals) - oracles.mixture_pdf(np.full(3, 0.5))[0])
    return bias, float(np.std(vals, ddof=1) / math.sqrt(draws))


def test_criterion_2_k_opt_fixture_value():
    """The oracle-constant fixture equals the k_opt derived here from the
    quadrature, and the quadrature's h normalization matches simulation.

    Derivation: for the mixture c1 = E[g'(f) h] = -1.6400 (tensor
    quadrature, oracles.recompute_mixture_truths) and c2 = 1/2 exactly.
    c1 c2 < 0, so the bias model c1 (k/M)^(2/d) + c2/k crosses zero at
    k_opt = (c2/|c1|)^(d/(d+2)) M^(2/(d+2)) = 17 for d = 3, M = 7000, the
    same value test_tuning.test_optimal_k_mixture_fixture_value asserts of
    optimal_k.  Criterion 2a's sweep puts the |bias| minimizer at k = 25.

    The normalization of h is what fixes |c1|, so it is checked against a
    seeded simulation of the pointwise k-NN density bias at the centre
    (k = 100, M = 7000, 2000 draws; at k = 50, 4000 draws give
    -0.209 +- 0.019 against h's -0.205).  The leading-order prediction
    h(x0) (k/M)^(2/d) must lie within 3 standard errors, and the
    predictions of the rival constants must lie more than 5 away: the
    unnormalized h (c1 larger by 2(d+2)pi, k_opt = 3) and either c1 that
    would give k_opt = 52 (c1 = -0.252 on the zero-crossing branch,
    +0.378 on the interior-minimum branch).
    """
    d, M = MIX_PARAMS["d"], 7000
    c1 = oracles.recompute_mixture_truths(n=80)["c1_shannon"]
    c2 = oracles.C2_SHANNON_MIX
    k_derived = round((c2 / abs(c1)) ** (d / (d + 2)) * M ** (2 / (d + 2)))

    k_sim = 100
    bias, se = _simulated_centre_bias(k_sim, M, draws=2000, seed=2_002)
    pred = oracles.mixture_h(np.full(3, 0.5))[0] * (k_sim / M) ** (2 / d)
    k0_52 = 52 / M ** (2 / (d + 2))
    rivals = {
        "unnormalized h": c1 * 2 * (d + 2) * math.pi,
        "k_opt=52 (crossing)": -c2 / k0_52 ** ((d + 2) / d),
        "k_opt=52 (minimum)": c2 * d / 2 / k0_52 ** ((d + 2) / d),
    }
    z_rivals = {name: abs(bias - pred * c / c1) / se for name, c in rivals.items()}
    z_lib = abs(bias - pred) / se
    ok = (K_OPT_FIXTURE == k_derived and z_lib <= 3
          and all(z > 5 for z in z_rivals.values()))
    _report("2b", ok,
            f"oracle-constants k_opt = {K_OPT_FIXTURE} (derived {k_derived}); "
            f"centre bias at k={k_sim}: simulated {bias:+.4f} +- {se:.4f}, "
            f"h predicts {pred:+.4f} ({z_lib:.1f} se, <= 3); rivals at "
            + ", ".join(f"{n} {z:.0f} se" for n, z in z_rivals.items())
            + " (> 5)")
    assert K_OPT_FIXTURE == k_derived, f"k_opt fixture {K_OPT_FIXTURE} != {k_derived}"
    assert z_lib <= 3, f"h predicts {pred:+.4f}, simulation {bias:+.4f} +- {se:.4f}"
    assert all(z > 5 for z in z_rivals.values()), z_rivals


def test_criterion_3_bc_bias_monotone(mixture_k_sweep):
    """Bias-corrected estimator's |bias| is nondecreasing over the sweep.

    Reading of the tolerance clause: adjacent-pair decreases within Monte
    Carlo noise (2x the pooled standard error of the difference of two
    50-trial means) do not count as inversions, and one inversion beyond
    that allowance is tolerated.  At a 2-sigma per-pair allowance across
    29 adjacent pairs, ~0.7 exceedances are expected from noise alone, so
    this calibration still rejects any systematic dip.
    """
    means, ses = mixture_k_sweep
    # exact additive identity turns the plain sweep into the BC one
    bc_bias = {
        k: (means[k] + math.log(k - 1) - float(psi(k))) - oracles.H_SHANNON_MIX
        for k in KS_SWEEP
    }
    violations = []
    for a, b in zip(KS_SWEEP, KS_SWEEP[1:]):
        drop = abs(bc_bias[a]) - abs(bc_bias[b])
        allowance = 2.0 * math.hypot(ses[a], ses[b])
        if drop > allowance:
            violations.append((a, b, round(drop, 4), round(allowance, 4)))
    ok = len(violations) <= 1
    _report("3", ok, f"BC |bias| nondecreasing over k grid: "
                     f"{len(violations)} above-noise inversions (<= 1 allowed) "
                     f"{violations[:3]}")
    assert ok


# -- 4. estimator ordering (Renyi) -----------------------------------------

def test_criterion_4_renyi_mse_ordering():
    Ts = [2500, 5000, 10_000, 20_000]
    mse_bc, mse_plain = [], []
    for T in Ts:
        common = dict(
            generator="beta_uniform_mixture", generator_params=MIX_PARAMS,
            T=T, alpha_frac=0.5, functional_id="renyi", alpha=0.5,
            k_rule="fixed", k=8, base_seed=40_000 + T,
        )
        res_bc = monte_carlo(
            TrialSpec(bias_correct=True, boundary_config=CFG_ORDERING,
                      truth=oracles.I_RENYI05_MIX, **common),
            50,
        )
        res_plain = monte_carlo(
            TrialSpec(bias_correct=False, truth=oracles.I_RENYI05_MIX, **common),
            50,
        )
        mse_bc.append(res_bc.summary["mse"])
        mse_plain.append(res_plain.summary["mse"])
    ordering = all(b < p for b, p in zip(mse_bc, mse_plain))
    slope_bc, _, _ = rate_fit(Ts, mse_bc)
    slope_plain, _, _ = rate_fit(Ts, mse_plain)
    ok = ordering and slope_bc <= -0.8 and slope_plain > slope_bc
    _report("4", ok,
            f"MSE(BC)={['%.2e' % m for m in mse_bc]} < "
            f"MSE(plain)={['%.2e' % m for m in mse_plain]} at every T: "
            f"{ordering}; slopes BC={slope_bc:.2f} (<= -0.8), "
            f"plain={slope_plain:.2f} (shallower)")
    assert ordering
    assert slope_bc <= -0.8
    assert slope_plain > slope_bc


# -- 5. variance law --------------------------------------------------------

def test_criterion_5_variance_law():
    T = 10_000
    ratios = []
    for M in (4000, 6000, 8000):
        N = T - M
        spec = TrialSpec(
            generator="beta_uniform_mixture", generator_params=MIX_PARAMS,
            T=T, alpha_frac=M / T, functional_id="shannon",
            k_rule="rate", bias_correct=False,
            boundary_config=CFG_SWEEP, base_seed=50_000 + M,
        )
        res = monte_carlo(spec, 200)
        predicted = C_SHANNON["c4"] / N + C_SHANNON["c5"] / M
        ratios.append(res.summary["variance"] / predicted)
    ok = all(1 / 1.5 <= r <= 1.5 for r in ratios)
    _report("5", ok, f"empirical/predicted variance ratios at M=4k,6k,8k: "
                     f"{[f'{r:.3f}' for r in ratios]} (within factor 1.5)")
    assert ok


# -- 6. CLT ------------------------------------------------------------------

def test_criterion_6_clt_ks():
    spec = TrialSpec(
        generator="beta_uniform_mixture", generator_params=MIX_PARAMS,
        T=10_000, alpha_frac=0.7, functional_id="shannon",
        k_rule="fixed", k=52, bias_correct=False,
        boundary_config=CFG_SWEEP, base_seed=60_000,
    )
    res = monte_carlo(spec, 200)
    ks, p, qq = normality_diagnostics(res.estimates)
    ok = p > 0.01
    _report("6", ok, f"KS of 200 normalized Shannon estimates: D={ks:.4f}, "
                     f"p={p:.3f} (> 0.01)")
    assert ok
    assert qq.shape == (200, 2)


# -- 7. coverage --------------------------------------------------------------

def test_criterion_7_coverage():
    from knnfunc.tuning import TheoryConstants

    constants = TheoryConstants(
        c1=C_SHANNON["c1"], c2=C_SHANNON["c2"], c3=0.0,
        c4=C_SHANNON["c4"], c5=C_SHANNON["c5"], mode="oracle",
    )
    spec = TrialSpec(
        generator="beta_uniform_mixture", generator_params=MIX_PARAMS,
        T=10_000, alpha_frac=0.7, functional_id="shannon",
        k_rule="fixed", k=K_OPT_FIXTURE, bias_correct=True,
        boundary_config=CFG_SWEEP, constants=constants,
        truth=oracles.H_SHANNON_MIX, ci_level=0.95, base_seed=70_000,
    )
    res = monte_carlo(spec, 500)
    coverage = res.summary["coverage"]
    ok = 0.83 <= coverage <= 1.0
    _report("7", ok, f"95% CI empirical coverage over 500 trials: "
                     f"{coverage:.3f} (within [0.83, 1.00])")
    assert ok


# -- 8. dimension --------------------------------------------------------------

def test_criterion_8_dimension():
    d_ind, d_cor = [], []
    for t in range(50):
        data = sample_projected_manifold(10_000, 2, 3, seed=80_000 + t)
        d_ind.append(estimate_dimension(data, 25, 50, variant="independent",
                                        seed=81_000 + t))
        d_cor.append(estimate_dimension(data, 25, 50, variant="correlated",
                                        seed=81_000 + t))
    hit_ind = np.mean([e.d_rounded == 2 for e in d_ind])
    hit_cor = np.mean([e.d_rounded == 2 for e in d_cor])
    var_ind = np.var([e.d_hat for e in d_ind], ddof=1)
    var_cor = np.var([e.d_hat for e in d_cor], ddof=1)
    ok = hit_ind >= 0.95 and hit_cor >= 0.95 and var_cor <= var_ind
    _report("8", ok, f"round(d)=2 rate: independent {hit_ind:.2f}, "
                     f"correlated {hit_cor:.2f} (>= 0.95); variances "
                     f"{var_ind:.2e} vs {var_cor:.2e} (correlated <=)")
    assert ok


# -- 9. structure ---------------------------------------------------------------

L_TRUE = Factorization(((0, 1, 3, 4), (2,)), "l_true")
L_FALSE = Factorization(((0, 1, 2, 3), (4,)), "l_false")
M_TRUE = Factorization(((0, 1), (3, 4), (2,)), "m_true")
M_FALSE = Factorization(((0, 2), (1, 3), (4,)), "m_false")


def _structure_error_rate(model_true, model_false, n_trials=200, k=20):
    errors = 0
    for t in range(n_trials):
        data = sample_block_beta_mixture(20_000, [1, 1, 1, 2],
                                         seed=90_000 + t)
        cmp_ = compare_models(data, model_true, model_false, k,
                              alpha_frac=0.5, config=CFG_SWEEP,
                              seed=91_000 + t)
        errors += int(cmp_.decision == model_false.label)
    return errors / n_trials


def test_criterion_9_same_dimension_error():
    err = _structure_error_rate(M_TRUE, M_FALSE)
    ok = err < 0.25
    _report("9a", ok, f"same-dimension true-vs-false error {err:.3f} (< 0.25)")
    assert ok


def test_criterion_9_high_true_vs_low_false():
    err = _structure_error_rate(L_TRUE, M_FALSE)
    ok = err < 0.05
    _report("9b", ok, f"high-true vs low-false error {err:.3f} (< 0.05)")
    assert ok


def test_criterion_9_low_true_vs_high_false():
    """Low-dimensional true model vs high-dimensional false model: the
    criterion requires the error rate to exceed 0.4 (bias tilting the test
    toward high-dimensional models).

    Known red.  The block Beta(5,2)/(2,5) density vanishes on the cube's
    faces, so it is not bounded below on its support and the paper's bias
    rates do not cover it.  Measured over the first 30 trials: the
    statistic Hc(m_true) - Hc(l_false) is -0.451 +- 0.026 (sd) against a
    truth of -0.283, chiefly because the 4-variable factor's entropy is
    biased upward by +0.14.  That pushes the test away from the
    high-dimensional false model, not toward it.  With the true overspill
    labels the statistic is -0.094 and the error is still 0/30; reverse
    counts over all T points leave it at -0.452 (0/30).
    """
    err = _structure_error_rate(M_TRUE, L_FALSE)
    ok = err > 0.4
    _report("9c", ok, f"low-true vs high-false error {err:.3f} (> 0.4)")
    assert ok, f"low-vs-high error {err:.3f} does not exceed 0.4"


# -- 10. oracle equivalence -------------------------------------------------------

def test_criterion_10_index_equals_brute_force():
    rng = np.random.default_rng(1001)
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(10, 1000))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, 21))
        k = min(k, n)
        pts = rng.random((n, d))
        queries = rng.random((4, d))
        fast = knn_query(build_index(pts), queries, k)
        slow = oracles.brute_force_knn(pts, queries, k)
        if not (np.array_equal(fast.indices, slow.indices)
                and np.allclose(fast.distances, slow.distances, atol=1e-12)):
            mismatches += 1
    counts_ok = True
    for t in range(20):
        pts = np.random.default_rng(2000 + t).random((150, 2))
        K = 7
        if not np.array_equal(count_reverse_neighbors(pts, K),
                              oracles.brute_force_counts(pts, K)):
            counts_ok = False
    ok = mismatches == 0 and counts_ok
    _report("10", ok, f"index vs brute force: {200 - mismatches}/200 configs "
                      f"exact; reverse counts exact: {counts_ok}")
    assert ok


# -- 11. exact identities ----------------------------------------------------------

def test_criterion_11_exact_identities():
    tol = 1e-10
    data = generate_dataset("beta_uniform_mixture", 4000, 110,
                            {"d": 3, "a": 4, "b": 4, "eps": 0.2})
    sp = split(data, 0.7, 110)
    k = 15
    sh = shannon_functional()
    plain = bpi_estimate(data, sp, sh, k, config=CFG_SWEEP)
    bc = bpi_estimate_bc(data, sp, sh, k, config=CFG_SWEEP)
    id_bc = abs((bc.estimate - plain.estimate) - (math.log(k - 1) - psi(k)))

    shifted = Dataset(data.points + 0.37)
    id_shift = abs(
        bpi_estimate(shifted, sp, sh, k, config=CFG_SWEEP).estimate
        - plain.estimate
    )
    s = 2.0
    scaled = Dataset(data.points * s)
    id_scale = abs(
        bpi_estimate(scaled, sp, sh, k, config=CFG_SWEEP).estimate
        - (plain.estimate + 3 * math.log(s))
    )
    mi_a = mutual_information(data, sp, [0], [1, 2], k, config=CFG_SWEEP)
    mi_b = mutual_information(data, sp, [1, 2], [0], k, config=CFG_SWEEP)
    id_mi = abs(mi_a.estimate - mi_b.estimate)

    mani = sample_projected_manifold(6000, 2, 3, seed=111)
    dvals = [estimate_dimension(mani, 12, 24, gamma=g, variant="correlated",
                                seed=112).d_hat for g in (0.5, 1.0, 2.0)]
    id_gamma = max(abs(dvals[0] - dvals[1]), abs(dvals[1] - dvals[2]))

    worst = max(id_bc, id_shift, id_scale, id_mi, id_gamma)
    ok = worst < tol
    _report("11", ok,
            f"identities: bc/plain {id_bc:.1e}, shift {id_shift:.1e}, "
            f"scale {id_scale:.1e}, MI symmetry {id_mi:.1e}, "
            f"gamma-invariance {id_gamma:.1e} (all < 1e-10)")
    assert ok
