import dataclasses
import math
import sys
import time

import numpy as np
import pytest
import scipy.special as sps

import knnfunc.inference
import knnfunc.knn
from knnfunc import (
    BoundaryConfig,
    TrialSpec,
    bpi_estimate,
    bpi_estimate_bc,
    detect_boundary,
    monte_carlo,
    normality_diagnostics,
    rate_fit,
    renyi_functional,
    shannon_functional,
    split,
)
from knnfunc.functionals import normal_interval
from knnfunc.inference import generate_dataset, run_trial
from knnfunc.rng import derive_key
from knnfunc.tuning import TheoryConstants


def test_confidence_interval_halfwidth():
    # c4/N + c5/M = 1 at 95%: half-width is the 0.975 normal quantile
    lo, hi = normal_interval(0.0, 100.0 / 100 + 0.0 / 10, 0.95)
    assert abs(hi - 1.959964) < 1e-6 and abs(lo + 1.959964) < 1e-6
    lo, hi = normal_interval(3.0, 0.0, 0.95)
    assert lo == hi == 3.0
    with pytest.raises(ValueError):
        normal_interval(0.0, 1.0, 1.5)


def test_ci_width_identity():
    # with oracle constants a trial's interval is estimate +- z *
    # sqrt(c4/N + c5/M); so half^2 * N -> z^2 c4 as M -> infinity
    c4, level = 2.0, 0.9
    z = sps.ndtri(0.95)
    lo, hi = normal_interval(0.0, c4 / 1000 + 5.0 / 10**12, level)
    half = (hi - lo) / 2
    assert abs(half**2 * 1000 - z**2 * c4) < 1e-6
    c = TheoryConstants(c1=0.0, c2=0.0, c3=0.0, c4=0.25, c5=0.1, mode="oracle")
    spec = dataclasses.replace(_SPEC, T=400, constants=c, truth=0.0, ci_level=level)
    res = monte_carlo(spec, 8)
    want = []
    for t in range(8):
        r = run_trial(spec, t)
        half = float(sps.ndtri((1.0 + level) / 2.0)) * math.sqrt(c.c4 / r.N + c.c5 / r.M)
        want.append(r.estimate - half <= 0.0 <= r.estimate + half)
    assert res.coverage.tolist() == want
    assert 0 < sum(want) < 8


_SPEC = TrialSpec(
    generator="uniform",
    generator_params={"d": 2},
    T=2000,
    alpha_frac=0.7,
    functional_id="shannon",
    k_rule="fixed",
    k=8,
    boundary_config=BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0,
                                   pk_scale=0.3),
    base_seed=4242,
)


def test_monte_carlo_single_trial_matches_direct_call():
    res = monte_carlo(_SPEC, 1)
    seed = derive_key(4242, "trial", 0) % (2**63)
    data = generate_dataset("uniform", 2000, seed, {"d": 2})
    sp = split(data, 0.7, seed)
    direct = bpi_estimate_bc(data, sp, shannon_functional(), 8,
                             config=_SPEC.boundary_config)
    assert res.estimates[0] == direct.estimate


def test_monte_carlo_deterministic():
    a = monte_carlo(_SPEC, 5)
    b = monte_carlo(_SPEC, 5)
    assert np.array_equal(a.estimates, b.estimates)


def test_results_do_not_depend_on_worker_count(monkeypatch):
    # N = 6000, M = 14000, k = 20, K = 8: the radii and the detector's
    # graph both cross the worker gate, so cpus = 2 runs them threaded
    spec = dataclasses.replace(_SPEC, T=20000, k=20)
    data = generate_dataset("uniform", spec.T, 5, {"d": 2})
    sp = split(data, spec.alpha_frac, 5)
    out = {}
    for cpus in (1, 2):
        monkeypatch.setattr(knnfunc.knn, "_CPUS", cpus)
        assert knnfunc.knn._workers(len(sp.eval_indices), 9) == cpus
        labels = detect_boundary(data.points[sp.eval_indices], spec.k,
                                 len(sp.ref_indices), spec.boundary_config)
        report = bpi_estimate_bc(data, sp, shannon_functional(), spec.k,
                                 config=spec.boundary_config)
        trials = monte_carlo(spec, 3)
        out[cpus] = (labels, report, trials)
    (la, ra, ta), (lb, rb, tb) = out[1], out[2]
    assert la.n_boundary > 0
    assert np.array_equal(la.interior, lb.interior)
    assert np.array_equal(la.boundary, lb.boundary)
    assert np.array_equal(la.nearest_interior, lb.nearest_interior)
    assert (la.q_used, la.threshold_used) == (lb.q_used, lb.threshold_used)
    assert ra == rb
    assert np.array_equal(ta.estimates, tb.estimates)
    assert np.array_equal(ta.ks, tb.ks)


def test_trial_results_identical_for_any_cpu_count(monkeypatch):
    # five trials on one, two and four threads (more than this host may
    # have), switching threads often, with a truth so coverage is kept
    spec = dataclasses.replace(_SPEC, truth=0.0)
    out = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cpus in (1, 2, 4):
            monkeypatch.setattr(knnfunc.knn, "_CPUS", cpus)
            out[cpus] = monte_carlo(spec, 5)
    finally:
        sys.setswitchinterval(interval)
    for cpus in (2, 4):
        for field in ("estimates", "ks", "coverage"):
            x, y = getattr(out[1], field), getattr(out[cpus], field)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (cpus, field)


def test_tree_calls_inside_pool_trials_run_on_one_worker(monkeypatch):
    # N = 6000 and k = 20 put the radii query over the worker gate, which
    # would give it both CPUs outside the pool
    spec = dataclasses.replace(_SPEC, T=20000, k=20)
    monkeypatch.setattr(knnfunc.knn, "_CPUS", 2)
    real = knnfunc.knn._workers
    seen = []

    def workers(rows, k):
        n = real(rows, k)
        seen.append((rows * k >= knnfunc.knn._THREAD_MIN_SLOTS, n))
        return n

    monkeypatch.setattr(knnfunc.knn, "_workers", workers)
    monte_carlo(spec, 3)
    assert any(gated for gated, _ in seen)
    assert {n for _, n in seen} == {1}


def test_failing_trials_name_the_lowest_failing_trial(monkeypatch):
    # trial 4 fails at once while trial 2 is still running and fails later;
    # the error names trial 2, as the serial loop's would, and trials not
    # started by then never run
    started = []

    def fake_trial(spec, t):
        started.append(t)
        if t == 4:
            raise ValueError("early")
        time.sleep(0.3 if t == 2 else 0.05)
        if t == 2:
            raise ValueError("late")
        return run_trial(spec, 0)

    monkeypatch.setattr(knnfunc.knn, "_CPUS", 2)
    monkeypatch.setattr(knnfunc.inference, "run_trial", fake_trial)
    with pytest.raises(RuntimeError, match="trial 2 failed: late"):
        monte_carlo(dataclasses.replace(_SPEC, T=400), 12)
    assert 11 not in started


def test_monte_carlo_mean_consistency():
    # harness mean equals the mean of the individually replayed trials,
    # and the uniform-cube Shannon estimate sits within its known
    # boundary-bias floor of the truth 0
    res = monte_carlo(_SPEC, 20)
    singles = [run_trial(_SPEC, t).estimate for t in range(20)]
    assert np.array_equal(res.estimates, singles)
    assert abs(res.summary["mean"]) < 0.25


def test_monte_carlo_coverage_and_summary():
    spec = TrialSpec(
        generator="uniform",
        generator_params={"d": 1},
        T=1500,
        alpha_frac=0.7,
        functional_id="shannon",
        k_rule="fixed",
        k=10,
        bias_correct=False,
        truth=0.0,
        base_seed=7,
    )
    res = monte_carlo(spec, 10)
    s = res.summary
    assert s["n_trials"] == 10
    assert math.isclose(s["mse"], np.mean((res.estimates - 0.0) ** 2))
    assert res.coverage is not None and 0.0 <= s["coverage"] <= 1.0


def test_ci_level_outside_unit_interval_raises_on_every_path():
    data = generate_dataset("uniform", 400, 1, {"d": 2})
    sp = split(data, 0.7, 1)
    for level in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="ci level"):
            bpi_estimate(data, sp, shannon_functional(), 5,
                         config=_SPEC.boundary_config, ci_level=level)
        with pytest.raises(ValueError, match="ci level"):
            normal_interval(0.0, 1.0, level)
        with pytest.raises(ValueError, match="ci level"):
            spec = dataclasses.replace(_SPEC, T=400, ci_level=level, truth=0.0)
            monte_carlo(spec, 1)


def test_trial_spec_validation():
    with pytest.raises(ValueError):
        TrialSpec(generator="uniform", generator_params={"d": 2}, T=100,
                  alpha_frac=0.5, functional_id="shannon", k_rule="fixed").resolve_k(50, 2)
    with pytest.raises(ValueError):
        TrialSpec(generator="uniform", generator_params={"d": 2}, T=100,
                  alpha_frac=0.5, functional_id="nope", k_rule="rate").functional()
    with pytest.raises(ValueError):
        monte_carlo(_SPEC, 0)
    # rejected when built, before any trial runs, with or without a truth
    with pytest.raises(ValueError, match="ci level"):
        dataclasses.replace(_SPEC, ci_level=1.5)
    with pytest.raises(ValueError, match="unknown k rule 'optimal'"):
        dataclasses.replace(_SPEC, k_rule="optimal")
    with pytest.raises(ValueError, match="fixed k rule requires k"):
        dataclasses.replace(_SPEC, k=None)
    # the default "rate" rule picks k itself, so a k given with it is an error
    with pytest.raises(ValueError, match="k=40 would be ignored"):
        TrialSpec(generator="uniform", generator_params={"d": 2}, T=2000,
                  alpha_frac=0.7, functional_id="shannon", k=40)
    with pytest.raises(ValueError, match="unknown functional 'nope'"):
        dataclasses.replace(_SPEC, functional_id="nope")


def test_trial_spec_checks_alpha_when_built():
    # raised by the constructor, so before any trial generates its data
    renyi = dict(generator="uniform", generator_params={"d": 2}, T=2000,
                 alpha_frac=0.7, functional_id="renyi")
    with pytest.raises(ValueError, match="^renyi requires alpha$"):
        TrialSpec(**renyi)
    for alpha in (1.0, 0.0, 2.0, -0.5):
        with pytest.raises(ValueError) as err:
            TrialSpec(**renyi, alpha=alpha)
        with pytest.raises(ValueError) as want:
            renyi_functional(alpha)
        assert str(err.value) == str(want.value)
    assert TrialSpec(**renyi, alpha=0.5).functional().id == "renyi"
    # a Shannon spec would run Shannon and ignore the alpha
    with pytest.raises(ValueError, match="alpha=0.5 would be ignored"):
        TrialSpec(**dict(renyi, functional_id="shannon"), alpha=0.5)


def test_trial_spec_rejects_bias_correction_without_boundary_correction():
    # bias correction with no detector is a valid estimate: the default
    # boundary_config None runs the BC estimator on the standard density
    spec = dataclasses.replace(_SPEC, boundary_config=None)
    seed = derive_key(4242, "trial", 0) % (2**63)
    data = generate_dataset("uniform", 2000, seed, {"d": 2})
    sp = split(data, 0.7, seed)
    direct = bpi_estimate_bc(data, sp, shannon_functional(), 8, config=None)
    assert run_trial(spec, 0) == direct
    assert TrialSpec(generator="uniform", generator_params={"d": 2}, T=100,
                     alpha_frac=0.5, functional_id="shannon").boundary_config is None


def test_normality_self_check():
    # KS p-value implementation: >= 98% of 50 clean-normal batches pass
    passing = 0
    rng = np.random.default_rng(99)
    for _ in range(50):
        draws = rng.normal(size=10_000)
        _, p, _ = normality_diagnostics(draws)
        passing += int(p > 0.01)
    assert passing >= 49


def test_normality_statistic_matches_scipy():
    import scipy.stats  # kept out of module scope: it is slow to import

    rng = np.random.default_rng(3)
    x = rng.normal(size=500)
    ks, p, qq = normality_diagnostics(x)
    z = (x - x.mean()) / x.std(ddof=1)
    ref = scipy.stats.kstest(z, "norm", method="asymp")
    assert abs(ks - ref.statistic) < 1e-12
    assert abs(p - ref.pvalue) < 1e-12
    assert 0.0 <= ks <= 1.0
    assert qq.shape == (500, 2)
    assert np.allclose(qq[:, 0], scipy.stats.norm.ppf((np.arange(500) + 0.5) / 500))


def test_normality_equals_the_asymptotic_kolmogorov_formula():
    # the statistic is max(D+, D-) of the sorted standardized sample and the
    # p-value the Kolmogorov survival function at sqrt(n) * D, to the bit
    rng = np.random.default_rng(41)
    for n in (20, 21, 57, 200, 1000):
        for x in (rng.normal(size=n), rng.standard_t(3, size=n), rng.random(n) * 9 - 4):
            ks, p, qq = normality_diagnostics(x)
            z = np.sort((x - np.mean(x)) / np.std(x, ddof=1))
            cdf = sps.ndtr(z)
            i = np.arange(1, n + 1)
            d = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
            assert (ks, p) == (float(d), float(sps.kolmogorov(math.sqrt(n) * d)))
            assert np.array_equal(qq, np.column_stack([sps.ndtri((i - 0.5) / n), z]))


def test_normality_affine_invariance_and_errors():
    rng = np.random.default_rng(4)
    x = rng.normal(size=200)
    ks1, _, _ = normality_diagnostics(x)
    ks2, _, _ = normality_diagnostics(5.0 * x - 11.0)
    assert abs(ks1 - ks2) < 1e-12
    with pytest.raises(ValueError):
        normality_diagnostics(np.ones(50))
    with pytest.raises(ValueError):
        normality_diagnostics(np.arange(5))


def test_rate_fit():
    sizes = np.array([100, 200, 400, 800])
    slope, intercept, r2 = rate_fit(sizes, 1.0 / sizes)
    assert abs(slope + 1.0) < 1e-12 and abs(r2 - 1.0) < 1e-12
    slope, _, _ = rate_fit(sizes, 3.0 * sizes ** (-0.8))
    assert abs(slope + 0.8) < 1e-12
    with pytest.raises(ValueError):
        rate_fit(sizes, [1, -1, 1, 1])
    with pytest.raises(ValueError):
        rate_fit([10, 20], [1, 2])
    # the logs of the fit need finite positive sizes and errors
    for bad in ([0, 10, 100], [-1, 10, 100], [np.inf, 10, 100], [np.nan, 10, 100]):
        with pytest.raises(ValueError, match="sizes must be finite and positive"):
            rate_fit(bad, [1, 0.5, 0.2])
    for bad in ([np.nan, 0.5, 0.2], [np.inf, 0.5, 0.2]):
        with pytest.raises(ValueError, match="errors must be finite and positive"):
            rate_fit([1, 10, 100], bad)
    # equal sizes leave the slope undefined: polyfit would only warn
    with pytest.raises(ValueError, match="sizes are all equal"):
        rate_fit([5, 5, 5], [1, 2, 3])
    # shapes that np.polyfit rejects with a TypeError
    for s, e in (([[100, 200, 400]], [[1, 2, 3]]), ([100, 200, 400], [1, 2, 3, 4]),
                 ([100, 200, 400], [[1, 2, 3]])):
        with pytest.raises(ValueError, match="must be 1-d and of one length"):
            rate_fit(s, e)
