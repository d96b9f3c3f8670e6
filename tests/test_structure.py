import numpy as np
import pytest

from knnfunc import (
    BoundaryConfig,
    Factorization,
    compare_models,
    sample_block_beta_mixture,
    shannon_functional,
    split,
)
from knnfunc.structure import cross_entropy_estimate
from knnfunc.functionals import bpi_estimate_bc
from knnfunc.data import Dataset

CFG = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)


def test_factorization_validation():
    with pytest.raises(ValueError, match="two factors"):
        Factorization(((0, 1), (1, 2)), "bad")
    incomplete = Factorization(((0, 1),), "inc")
    with pytest.raises(ValueError, match="partition"):
        incomplete.validate_cover(3)
    with pytest.raises(ValueError):
        Factorization(((0,), ()), "empty")


def test_cross_entropy_single_factor_equals_entropy():
    data = sample_block_beta_mixture(4000, [1], seed=1)
    rows = np.arange(4000)
    f = Factorization(((0,),), "single")
    val = cross_entropy_estimate(data, f, 15, [rows], alpha_frac=0.5,
                                 config=CFG, seed=3)
    sub = Dataset(data.points[rows][:, [0]])
    sp = split(sub, 0.5, 3)
    direct = bpi_estimate_bc(sub, sp, shannon_functional(), 15, config=CFG)
    assert val == direct.estimate


def test_cross_entropy_uniform_near_zero():
    rng = np.random.default_rng(2)
    data = Dataset(rng.random((12_000, 4)))
    f = Factorization(((0, 1), (2,), (3,)), "u")
    rows = np.arange(12_000)
    slices = [rows[:4000], rows[4000:8000], rows[8000:]]
    val = cross_entropy_estimate(data, f, 15, slices, alpha_frac=0.5,
                                 config=CFG, seed=4)
    assert abs(val) < 0.15


def test_compare_models_antisymmetry():
    data = sample_block_beta_mixture(16_000, [1, 1, 1, 2], seed=5)
    m_true = Factorization(((0, 1), (3, 4), (2,)), "m_true")
    m_false = Factorization(((0, 2), (1, 3), (4,)), "m_false")
    ab = compare_models(data, m_true, m_false, 15, config=CFG, seed=6)
    ba = compare_models(data, m_false, m_true, 15, config=CFG, seed=6)
    assert abs(ab.statistic + ba.statistic) < 1e-12
    assert ab.decision == ba.decision


def test_compare_models_deterministic():
    data = sample_block_beta_mixture(12_000, [1, 1, 1, 2], seed=7)
    a = Factorization(((0, 1), (3, 4), (2,)), "a")
    b = Factorization(((0, 2), (1, 3), (4,)), "b")
    r1 = compare_models(data, a, b, 12, config=CFG, seed=8)
    r2 = compare_models(data, a, b, 12, config=CFG, seed=8)
    assert r1.statistic == r2.statistic


def test_compare_models_budget_infeasible():
    data = sample_block_beta_mixture(100, [1, 1, 1, 2], seed=11)
    a = Factorization(((0, 1), (2,), (3, 4)), "a")
    b = Factorization(((0, 2), (1, 3), (4,)), "b")
    with pytest.raises(ValueError, match="budget"):
        compare_models(data, a, b, 12, budget=30, seed=12)


def test_compare_models_decision_sign_convention():
    data = sample_block_beta_mixture(16_000, [1, 1, 1, 2], seed=13)
    # truth (0)(1)(2)(3,4): model keeping the (3,4) block beats one that
    # breaks it, by about the pair's mutual information
    good = Factorization(((3, 4), (0,), (1,), (2,)), "good")
    bad = Factorization(((1, 3), (0,), (2,), (4,)), "bad")
    cmp_ = compare_models(data, good, bad, 15, config=CFG, seed=14)
    assert cmp_.statistic < 0
    assert cmp_.decision == "good"
