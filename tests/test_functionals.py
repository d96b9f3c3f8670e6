import math
import re
import warnings

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as scistats

from knnfunc import (
    BoundaryConfig,
    Dataset,
    Functional,
    bpi_estimate,
    bpi_estimate_bc,
    mutual_information,
    renyi_entropy,
    renyi_functional,
    shannon_functional,
    split,
)
import knnfunc.functionals
from knnfunc.data import SampleSplit
from knnfunc.density import knn_density
from knnfunc.functionals import _density_values
from knnfunc.inference import generate_dataset
from knnfunc.knn import build_index
from knnfunc.rng import make_rng

import oracles

EULER_GAMMA = 0.5772156649015329

# detector configuration used by estimator-level distributional checks;
# the default (pk_scale=1) never fires at these sample sizes
FIRING = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)


def _uniform_data(T, d, seed):
    return Dataset(make_rng(seed, "test-uniform", T, d).random((T, d)))


# -- functional definitions ----------------------------------------------

def test_shannon_functional_values():
    f = shannon_functional()
    assert f.g(np.array([1.0]))[0] == 0.0
    g1, g2 = f.bias_factors(2, 1000)
    # additive correction log(k-1) - psi(k) at k=2 is -(1 - gamma_E)
    assert g1 == 1.0
    assert abs((-g2) - (-(1 - EULER_GAMMA))) < 1e-10
    _, g2_large = f.bias_factors(10**6, 10**7)
    assert abs(g2_large) < 1e-6


def test_shannon_g2_harmonic_identity():
    # psi(k) = H_{k-1} - gamma_E at integer k, so g2 = H_{k-1} - gamma_E - log(k-1)
    f = shannon_functional()
    for k in (2, 10, 87):
        harmonic = math.fsum(1.0 / j for j in range(1, k))
        expected = harmonic - EULER_GAMMA - math.log(k - 1)
        assert abs(f.bias_factors(k, 10 * k)[1] - expected) < 1e-12


def test_renyi_g1_exact_moment_identity():
    # defining property: E[g((k-1)x/(M p))] = g1 g(x) + g2 for
    # p ~ Beta(k, M-k+1); the Beta moment E[p^(1-alpha)] is exact in
    # log-gamma form, so the identity can be checked to rounding error.
    alpha, k, M, x = 0.5, 10, 5000, 2.0
    f = renyi_functional(alpha)
    g1, g2 = f.bias_factors(k, M)
    exact_moment = math.exp(
        sps.gammaln(k + 1 - alpha) - sps.gammaln(k)
        + sps.gammaln(M + 1) - sps.gammaln(M + 2 - alpha)
    )
    lhs = ((k - 1) * x / M) ** (alpha - 1) * exact_moment
    assert g2 == 0.0
    # g1 matches the k-part of the moment; the M-part is the o(1) residual
    assert abs(lhs / (x ** (alpha - 1)) - g1) < 2e-4
    # Gamma-recurrence cross-check of the same factor at alpha=0.5, k=10:
    # Gamma(10.5)/Gamma(10) = 9.5 * 8.5 * ... * 0.5 * Gamma(0.5) / Gamma(10)
    prod = math.sqrt(math.pi)
    for j in range(10):
        prod *= 0.5 + j
    ratio = prod / math.factorial(9)
    assert abs(g1 - ratio / 3.0) < 1e-12


def test_renyi_g1_correct_direction_by_beta_mc():
    # simulated check that dividing by g1 debiases (and that the reciprocal
    # would double the bias instead)
    alpha, k, M, x = 0.5, 7, 4000, 1.7
    rng = np.random.default_rng(11)
    p = rng.beta(k, M - k + 1, size=400_000)
    sim = np.mean(((k - 1) * x / (M * p)) ** (alpha - 1))
    g1, _ = renyi_functional(alpha).bias_factors(k, M)
    corrected = sim / g1
    inverted = sim * g1
    truth = x ** (alpha - 1)
    assert abs(corrected - truth) < abs(inverted - truth) / 10


def test_renyi_functional_simple_cases():
    for alpha in (0.3, 0.5, 1.5):
        f = renyi_functional(alpha)
        assert f.g(np.array([1.0]))[0] == 1.0
        g1, _ = f.bias_factors(10**6, 10**7)
        assert abs(g1 - 1.0) < 1e-5
    with pytest.raises(ValueError):
        renyi_functional(1.0)
    with pytest.raises(ValueError):
        renyi_functional(2.5)


# -- plug-in estimates -----------------------------------------------------

def test_bpi_uniform_shannon_small_bias():
    # truth is 0; the residual is the boundary-overspill floor of the
    # corrected estimator at this scale, measured at ~+0.10 (the k-NN ball
    # of roughly half the points overlaps a cube face at T=1e4, d=3)
    data = _uniform_data(10_000, 3, 21)
    sp = split(data, 0.7, 21)
    from knnfunc.tuning import rate_matched_k

    k = rate_matched_k(sp.n_ref, 3)
    cfg = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.02)
    rep = bpi_estimate(data, sp, shannon_functional(), k, config=cfg)
    assert abs(rep.estimate) < 0.12
    assert rep.variance_estimate > 0


def test_bpi_single_eval_point():
    data = Dataset(np.array([[0.1], [0.4], [0.8], [0.9]]))
    sp = split(data, 0.75, 3)
    assert sp.n_eval == 1
    rep = bpi_estimate(data, sp, shannon_functional(), 3)
    from knnfunc import build_index, knn_density

    dens = knn_density(build_index(sp.ref_points(data)), sp.eval_points(data), 3)
    assert rep.estimate == -math.log(dens.values[0])


def test_bc_plain_shannon_identity_exact():
    data = generate_dataset("beta_uniform_mixture", 3000, 5,
                            {"d": 3, "a": 4, "b": 4, "eps": 0.2})
    sp = split(data, 0.7, 5)
    k = 15
    plain = bpi_estimate(data, sp, shannon_functional(), k, config=FIRING)
    bc = bpi_estimate_bc(data, sp, shannon_functional(), k, config=FIRING)
    expected_diff = math.log(k - 1) - sps.psi(k)
    assert abs((bc.estimate - plain.estimate) - expected_diff) < 1e-10


def test_shannon_shift_and_scale_laws():
    data = generate_dataset("beta_uniform_mixture", 2000, 6,
                            {"d": 2, "a": 4, "b": 4, "eps": 0.2})
    sp = split(data, 0.7, 6)
    base = bpi_estimate(data, sp, shannon_functional(), 8, config=FIRING)
    shifted = Dataset(data.points + np.array([5.0, -3.0]))
    rep_shift = bpi_estimate(shifted, sp, shannon_functional(), 8, config=FIRING)
    assert abs(rep_shift.estimate - base.estimate) < 1e-10
    s = 2.0
    scaled = Dataset(data.points * s)
    rep_scale = bpi_estimate(scaled, sp, shannon_functional(), 8, config=FIRING)
    assert abs(rep_scale.estimate - (base.estimate + 2 * math.log(s))) < 1e-10


@pytest.mark.parametrize("s", [1e-3, 1e-6, 1e-9])
def test_shannon_scale_law_at_small_scales(s):
    # scaling by s adds d log s, however small the scaled sample's spread
    data = generate_dataset("beta_uniform_mixture", 2000, 9,
                            {"d": 3, "a": 4, "b": 4, "eps": 0.2})
    sp = split(data, 0.7, 9)
    base = bpi_estimate_bc(data, sp, shannon_functional(), 10)
    scaled = bpi_estimate_bc(Dataset(data.points * s), sp, shannon_functional(), 10)
    assert abs(scaled.estimate - (base.estimate + 3 * math.log(s))) < 1e-10


def test_permutation_invariance_of_estimate():
    data = generate_dataset("beta_uniform_mixture", 1500, 8,
                            {"d": 2, "a": 4, "b": 4, "eps": 0.2})
    sp = split(data, 0.6, 8)
    rep = bpi_estimate(data, sp, shannon_functional(), 6)
    # permute rows but keep the same physical eval/ref sets
    rng = np.random.default_rng(0)
    perm = rng.permutation(data.count)
    inv = np.argsort(perm)
    data2 = Dataset(data.points[perm])
    sp2 = SampleSplit(eval_indices=inv[sp.eval_indices], ref_indices=inv[sp.ref_indices])
    rep2 = bpi_estimate(data2, sp2, shannon_functional(), 6)
    assert abs(rep.estimate - rep2.estimate) < 1e-12


# -- estimator-level properties of bpi_estimate_bc ---------------------------

@st.composite
def _samples(draw, min_T=60):
    """(data, split, k): a seeded uniform sample, split 0.7, and a k < M."""
    d = draw(st.integers(1, 4))
    T = draw(st.integers(min_T, 400))
    seed = draw(st.integers(0, 2**32 - 1))
    data = Dataset(np.random.default_rng(seed).random((T, d)))
    sp = split(data, 0.7, seed)
    return data, sp, draw(st.integers(3, min(12, sp.n_ref - 1)))


@settings(max_examples=30, deadline=None)
@given(_samples(), st.sampled_from([None, FIRING]), st.randoms(use_true_random=False))
def test_bc_estimate_ignores_row_order(sample, config, rnd):
    # the same eval and ref points in other rows: within 1e-12, the
    # summation order of the mean being all that moves
    data, sp, k = sample
    perm = np.array(rnd.sample(range(data.count), data.count))
    inv = np.argsort(perm)
    moved = SampleSplit(eval_indices=inv[sp.eval_indices], ref_indices=inv[sp.ref_indices])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # q >= 1
        a = bpi_estimate_bc(data, sp, shannon_functional(), k, config=config)
        b = bpi_estimate_bc(Dataset(data.points[perm]), moved, shannon_functional(), k,
                            config=config)
    assert abs(a.estimate - b.estimate) <= 1e-12
    assert abs(a.variance_estimate - b.variance_estimate) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(_samples(), st.floats(-100.0, 100.0), st.floats(1e-3, 1e3))
def test_bc_estimate_shift_and_scale_laws(sample, shift, s):
    # H(X + c) = H(X) and H(sX) = H(X) + d log s.  Shifting moves each
    # k-th radius by rounding of about 1e-16 |c| / r and scaling by about
    # 1e-16 r, so 1e-9 holds with room at these sizes
    data, sp, k = sample
    f = shannon_functional()
    base = bpi_estimate_bc(data, sp, f, k).estimate
    shifted = bpi_estimate_bc(Dataset(data.points + shift), sp, f, k).estimate
    scaled = bpi_estimate_bc(Dataset(data.points * s), sp, f, k).estimate
    assert abs(shifted - base) <= 1e-9
    assert abs(scaled - (base + data.dim * math.log(s))) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(_samples(), st.integers(1, 4))
def test_bc_estimate_rejects_duplicates_and_k_equal_to_M(sample, distinct):
    data, sp, k = sample
    with pytest.raises(ValueError, match=f"k={sp.n_ref} must be below M={sp.n_ref}"):
        bpi_estimate_bc(data, sp, shannon_functional(), sp.n_ref)
    # every row one of a few points: some eval point has k copies among
    # the refs, so its k-th radius is zero
    dup = Dataset(data.points[np.arange(data.count) % distinct])
    ref_copies = np.bincount(sp.ref_indices % distinct, minlength=distinct)
    assume((ref_copies[sp.eval_indices % distinct] >= k).any())
    with pytest.raises(ValueError, match="zero k-NN distance"):
        bpi_estimate_bc(dup, sp, shannon_functional(), k)


def test_bc_requires_factors():
    data = _uniform_data(500, 2, 9)
    sp = split(data, 0.6, 9)
    f = Functional(
        id="identity",
        g=lambda u: u,
        g_prime=np.ones_like,
        g_double_prime=np.zeros_like,
        bias_factors=None,
    )
    with pytest.raises(ValueError, match="bias-correction factors"):
        bpi_estimate_bc(data, sp, f, 5)


def test_bc_plain_converge_for_large_k():
    # psi(k) = log(k-1) + O(1/k): the two variants differ by O(1/k)
    data = generate_dataset("beta_uniform_mixture", 4000, 10,
                            {"d": 3, "a": 4, "b": 4, "eps": 0.2})
    sp = split(data, 0.7, 10)
    diffs = []
    for k in (10, 40, 160):
        plain = bpi_estimate(data, sp, shannon_functional(), k)
        bc_est = plain.estimate + math.log(k - 1) - sps.psi(k)
        diffs.append(abs(bc_est - plain.estimate))
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 1.0 / 160


def test_renyi_entropy_wrapper():
    data = _uniform_data(10_000, 3, 11)
    sp = split(data, 0.7, 11)
    from knnfunc.tuning import rate_matched_k

    k = rate_matched_k(sp.n_ref, 3)
    cfg = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.02)
    rep = renyi_entropy(data, sp, 0.5, k, config=cfg)
    assert abs(rep.estimate) < 0.15
    # monotone transform of the integral: identical ordering on two datasets
    intg = bpi_estimate_bc(data, sp, renyi_functional(0.5), k, config=cfg)
    assert math.isclose(
        rep.estimate, math.log(intg.estimate) / (1 - 0.5), rel_tol=1e-12
    )


def test_renyi_entropy_on_mixture_smoke():
    data = generate_dataset("beta_uniform_mixture", 4000, 12,
                            {"d": 3, "a": 4, "b": 4, "eps": 0.2})
    sp = split(data, 0.7, 12)
    rep = renyi_entropy(data, sp, 0.5, 12, config=FIRING)
    assert np.isfinite(rep.estimate)


def test_mi_independent_uniforms_near_zero():
    data = _uniform_data(10_000, 2, 13)
    sp = split(data, 0.7, 13)
    rep = mutual_information(data, sp, [0], [1], 20, config=FIRING, ci_level=0.95)
    half = (rep.ci[1] - rep.ci[0]) / 2
    assert abs(rep.estimate) < 2 * half + 1e-9


def test_mi_linear_smoothing_vs_exact():
    # X uniform, Y = (X+U)/2: exact MI = 1/2 nat (tests/oracles.py)
    rng = make_rng(14, "mi-construct")
    x = rng.random(12_000)
    y = (x + rng.random(12_000)) / 2.0
    data = Dataset(np.column_stack([x, y]))
    sp = split(data, 0.7, 14)
    rep = mutual_information(data, sp, [0], [1], 25, config=FIRING)
    assert abs(rep.estimate - oracles.mi_linear_smoothing_truth()) < 0.1


def test_mi_symmetry_exact():
    data = generate_dataset("beta_uniform_mixture", 4000, 15,
                            {"d": 2, "a": 4, "b": 4, "eps": 0.2})
    sp = split(data, 0.7, 15)
    a = mutual_information(data, sp, [0], [1], 12, config=FIRING)
    b = mutual_information(data, sp, [1], [0], 12, config=FIRING)
    assert abs(a.estimate - b.estimate) < 1e-10


def test_mi_overlapping_blocks_rejected():
    data = _uniform_data(200, 2, 16)
    sp = split(data, 0.6, 16)
    with pytest.raises(ValueError, match="overlap"):
        mutual_information(data, sp, [0], [0], 5)
    for x_cols, message in (([2], "x column 2 outside 0..1"),
                            ([-1], "x column -1 outside 0..1"),
                            ([0, 0], "x column 0 repeated")):
        with pytest.raises(ValueError, match=message):
            mutual_information(data, sp, x_cols, [1], 5)
    with pytest.raises(ValueError, match="y column 1 repeated"):
        mutual_information(data, sp, [0], [1, 1], 5)
    # an empty block is named, not reported as a T x 0 point matrix
    with pytest.raises(ValueError, match="x column block is empty"):
        mutual_information(data, sp, [], [1], 5)
    with pytest.raises(ValueError, match="y column block is empty"):
        mutual_information(data, sp, [0], [], 5)


def test_boundary_corrected_reports_whether_points_were_relabelled():
    # with no config no detector runs; the live one relabels points near
    # the faces of the d = 3 mixture
    data = generate_dataset("beta_uniform_mixture", 4000, 3,
                            {"d": 3, "a": 4, "b": 4, "eps": 0.2})
    sp = split(data, 0.7, 3)
    shannon = shannon_functional()
    assert not bpi_estimate_bc(data, sp, shannon, 20).boundary_corrected
    assert not renyi_entropy(data, sp, 0.5, 20).boundary_corrected
    assert not mutual_information(data, sp, [0], [1, 2], 20).boundary_corrected
    assert not bpi_estimate(data, sp, shannon, 20).boundary_corrected
    assert bpi_estimate(data, sp, shannon, 20, config=FIRING).boundary_corrected
    assert bpi_estimate_bc(data, sp, shannon, 20, config=FIRING).boundary_corrected
    assert renyi_entropy(data, sp, 0.5, 20, config=FIRING).boundary_corrected
    assert mutual_information(data, sp, [0], [1, 2], 20, config=FIRING).boundary_corrected


def test_report_ci_ordering_and_serialization():
    data = _uniform_data(2000, 2, 17)
    sp = split(data, 0.7, 17)
    rep = bpi_estimate(data, sp, shannon_functional(), 10, ci_level=0.9)
    lo, hi, level = rep.ci
    assert lo <= rep.estimate <= hi and level == 0.9
    payload = rep.to_dict()
    assert payload["ci"]["lo"] == lo and payload["estimator_variant"] == "bpi"


# -- the detector runs before the reference index is built --------------------

def _mixture(T, d, seed):
    data = generate_dataset("beta_uniform_mixture", T, seed,
                            {"d": d, "a": 4, "b": 4, "eps": 0.2})
    return data, split(data, 0.7, seed)


def _density_outcome(call, *args):
    """(values, labels' arrays and numbers) of call(*args), or the message
    of its ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # q >= 1
        try:
            dens = call(*args)
        except ValueError as exc:
            return str(exc)
    if dens.labels is None:
        return dens.values, None
    lab = dens.labels
    return dens.values, (lab.interior, lab.boundary, lab.nearest_interior,
                         lab.threshold_used, lab.K_used, lab.q_used)


def _index_first(data, sp, k, config):
    """knn_density on an index built before the detector runs."""
    return knn_density(build_index(sp.ref_points(data)), sp.eval_points(data), k, config)


def _same_outcome(got, want):
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    (gv, gl), (wv, wl) = got, want
    return (np.array_equal(gv, wv) and (gl is None) == (wl is None)
            and (wl is None or all(np.array_equal(a, b) for a, b in zip(gl, wl))))


# pk_scale = 1 puts q above 1 at these k, so every point is interior
_Q_ABOVE_ONE = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=1.0)


@pytest.mark.parametrize("d", [1, 3, 6])
@pytest.mark.parametrize("ties", [False, True], ids=["continuous", "tied"])
@pytest.mark.parametrize("config", [None, FIRING, _Q_ABOVE_ONE],
                         ids=["standard", "live", "q>=1"])
def test_density_values_are_knn_densitys(d, ties, config):
    # bit for bit, labels included.  Tied input rounds the mixture to a
    # grid (1/1024 at d = 1, 1/16 at d = 3, 1/8 at d = 6), where rows repeat
    # and distances tie, yet no k-NN radius is zero
    data, sp = _mixture(3000, d, 21 + d)
    if ties:
        grid = {1: 1024, 3: 16, 6: 8}[d]
        data = Dataset(np.round(data.points * grid) / grid)
    k = 12 if d < 6 else 5
    got = _density_outcome(_density_values, data, sp, k, config)
    assert _same_outcome(got, _density_outcome(_index_first, data, sp, k, config))
    assert not isinstance(got, str), got
    if config is not None:
        # the live detector relabels points; q >= 1 labels all interior
        assert (got[1][1].size > 0) == (config is FIRING)


@pytest.mark.parametrize("case", ["k below 3", "k above M", "k at M", "identical"])
@pytest.mark.parametrize("config", [None, FIRING], ids=["standard", "live"])
def test_density_values_raise_knn_densitys_errors(case, config):
    # the detector's errors come before the k check; with N < M its graph
    # scale K = floor(k*N/M) reaches N at k = M
    data, sp = _mixture(400, 3, 5)
    k = {"k below 3": 2, "k above M": sp.n_ref + 1, "k at M": sp.n_ref}.get(case, 10)
    if case == "identical":
        points = data.points.copy()
        points[sp.eval_indices] = 0.5
        data = Dataset(points)
    got = _density_outcome(_density_values, data, sp, k, config)
    assert _same_outcome(got, _density_outcome(_index_first, data, sp, k, config))
    message = {
        "k below 3": "k must be >= 3" if config else r"k=2 outside \[3, 280\]",
        "k above M": "K=120 must be < N=120" if config else r"k=281 outside \[3, 280\]",
        "k at M": "K=120 must be < N=120" if config else None,
        "identical": "all evaluation points identical" if config else None,
    }[case]
    if message is None:
        assert not isinstance(got, str)
    else:
        assert isinstance(got, str) and re.match(message, got), got


@pytest.mark.parametrize("estimate", [
    lambda data, sp: bpi_estimate(data, sp, shannon_functional(), 10, config=FIRING),
    lambda data, sp: bpi_estimate_bc(data, sp, shannon_functional(), 10, config=FIRING),
    lambda data, sp: renyi_entropy(data, sp, 0.5, 10, config=FIRING),
    lambda data, sp: mutual_information(data, sp, [0], [1, 2], 10, config=FIRING),
], ids=["bpi", "bpi_bc", "renyi", "mi"])
def test_reference_index_is_built_after_the_detector_returns(monkeypatch, estimate):
    events = []

    def detector(*args):
        events.append("detect")
        labels = detect_boundary(*args)
        events.append("detected")
        return labels

    def index(points):
        events.append("build")
        return build(points)

    detect_boundary, build = knnfunc.functionals.detect_boundary, knnfunc.functionals.build_index
    monkeypatch.setattr(knnfunc.functionals, "detect_boundary", detector)
    monkeypatch.setattr(knnfunc.functionals, "build_index", index)
    estimate(*_mixture(2000, 3, 8))
    calls = len(events) // 3
    assert calls >= 1 and events == ["detect", "detected", "build"] * calls


def test_corrected_estimate_holds_one_phase_at_a_time(traced_peak):
    # the reference tree is built once the detector's head and block are
    # gone: the peak was 2.47x the sample's bytes with both alive, and is
    # about 1.9x
    data, sp = _mixture(20_000, 6, 5)
    renyi = renyi_functional(0.5)
    bpi_estimate_bc(data, sp, renyi, 11, config=FIRING)  # imports and caches
    report, peak = traced_peak(lambda: bpi_estimate_bc(data, sp, renyi, 11, config=FIRING))
    assert report.boundary_corrected
    assert peak < 2.2 * data.points.nbytes, peak / data.points.nbytes
