import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import chdtrc, fdtrc

from factorlens import (
    Regime,
    chi2_quantile,
    f_cdf,
    f_quantile,
    normal_quantile,
    select_regime,
    tij_noncentral_approx_power,
    tij_null_pvalue,
    tj_boundary_pvalue,
    tj_noncentral_approx_power,
    tj_standardize,
    tlr_standardize,
)
from factorlens.asymptotics import (
    BOUNDARY,
    CONCENTRATION,
    SIGMA_AS_DEVIATION,
    lr_clt_mean,
    lr_clt_sigma,
    tj_boundary_critical,
    tj_mean_adjustment,
    tj_variance_adjustment,
)
from factorlens.errors import DegenerateDof, DomainError


def test_regime_construction():
    r = Regime.concentration(0.2)
    assert r.kind == CONCENTRATION and r.c == 0.2 and r.d is None
    b = Regime.boundary(4.0)
    assert b.kind == BOUNDARY and b.d == 4.0 and b.c is None
    with pytest.raises(DomainError):
        Regime.concentration(1.2)
    with pytest.raises(DomainError):
        Regime.boundary(-1.0)
    with pytest.raises(DomainError):
        Regime(kind=CONCENTRATION, c=0.5, d=3.0)


def test_select_regime_cutoff():
    assert select_regime(100, 510, 10).kind == CONCENTRATION
    r = select_regime(200, 215, 10)
    assert r.kind == BOUNDARY and r.d == 5.0
    with pytest.warns(UserWarning):
        select_regime(200, 212, 10)  # d = 2 < 4 warns


def test_tij_null_pvalue():
    reg = Regime.concentration(0.3)
    assert tij_null_pvalue(0.0, reg) == 1.0
    assert_allclose(tij_null_pvalue(chi2_quantile(0.95, 1), reg), 0.05, atol=1e-12)
    bd = Regime.boundary(9.0)
    assert_allclose(tij_null_pvalue(f_quantile(0.95, 1, 10), bd), 0.05, atol=1e-12)
    with pytest.raises(DomainError):
        tij_null_pvalue(-1.0, reg)


def test_tij_null_pvalue_is_a_survival_function():
    # 1 - cdf would round these to 0; chdtrc(1, 100) = 1.52e-23
    reg, bd = Regime.concentration(0.2), Regime.boundary(5.0)
    for t in (0.5, 3.0, 40.0, 100.0, 300.0):
        assert_allclose(tij_null_pvalue(t, reg), float(chdtrc(1, t)), rtol=1e-12)
        assert_allclose(tij_null_pvalue(t, bd), float(fdtrc(1, 6.0, t)), rtol=1e-12)
    assert 0.0 < tij_null_pvalue(100.0, reg) < 1e-22


def test_tij_f_limit_close_to_chi2_for_large_denominator():
    # F(1, n) and chi-square(1) tails differ by < 0.01 uniformly once n >= 400
    reg_c = Regime.concentration(0.2)
    reg_d = Regime.boundary(399.0)  # F(1, 400)
    for t in np.linspace(0.0, 30.0, 121):
        diff = abs(tij_null_pvalue(float(t), reg_c) - tij_null_pvalue(float(t), reg_d))
        assert diff < 0.01


def test_tj_standardize_trivial_points():
    assert tj_standardize(1.0, 100, 500, 10, mode="limit") == 0.0
    mu = tj_mean_adjustment(100, 500, 10)
    assert_allclose(tj_standardize(mu, 100, 500, 10), 0.0, atol=1e-12)


def test_tj_adjustment_values():
    # p=100, T=500, K=10: mu = 391/389, var = 2*488*391^2/(387*389^2)
    mu = tj_mean_adjustment(100, 500, 10)
    var = tj_variance_adjustment(100, 500, 10)
    assert_allclose(mu, 391.0 / 389.0, rtol=1e-15)
    assert_allclose(var, 2.0 * 488.0 * 391.0**2 / (387.0 * 389.0**2), rtol=1e-15)


def test_tj_standardize_mode_agreement_when_slack_large():
    # limit and adjusted modes agree within 0.05 over the null bulk of t_j
    p, T, K = 25, 300, 10  # slack T-K-p = 265 >= 200
    mu = tj_mean_adjustment(p, T, K)
    sd = math.sqrt(tj_variance_adjustment(p, T, K) / (p - 1))
    for t in np.linspace(mu - 2 * sd, mu + 2 * sd, 41):
        a = tj_standardize(float(t), p, T, K, mode="limit")
        b = tj_standardize(float(t), p, T, K, mode="finite_sample_adjusted")
        assert abs(a - b) <= 0.05


def test_tj_standardize_errors():
    with pytest.raises(DegenerateDof):
        tj_standardize(1.0, 10, 14, 1)  # slack 3, adjusted mode impossible
    with pytest.raises(DomainError):
        tj_standardize(1.0, 10, 10, 0, mode="limit")  # c = 1 outside (0, 1)
    with pytest.raises(DomainError):
        tj_standardize(1.0, 10, 100, 0, mode="nonsense")


def test_tj_boundary_pvalue_inversion():
    d = 4.0
    t = (d + 1.0) / chi2_quantile(0.05, d + 1.0)
    assert_allclose(tj_boundary_pvalue(t, d), 0.05, atol=1e-12)
    assert tj_boundary_pvalue(1e9, d) < 1e-6
    with pytest.raises(DomainError):
        tj_boundary_pvalue(0.0, d)


@pytest.mark.parametrize(
    "pvalue",
    [
        lambda t: tij_null_pvalue(t, Regime.concentration(0.2)),
        lambda t: tij_null_pvalue(t, Regime.boundary(5.0)),
        lambda t: tj_boundary_pvalue(t, 5.0),
        lambda t: tj_boundary_pvalue(t, 0.5),
    ],
    ids=["tij-concentration", "tij-boundary", "tj-boundary-5", "tj-boundary-0.5"],
)
def test_pvalue_array_input_matches_scalar_calls(pvalue):
    t = np.concatenate([[1e-300, 0.01, 0.5, 1.0, 3.0, 40.0, 300.0, 1e6, np.inf],
                        np.random.default_rng(5).gamma(2.0, 2.0, 49)])
    got = pvalue(t)
    assert isinstance(got, np.ndarray) and got.shape == t.shape
    want = [pvalue(float(v)) for v in t]
    assert all(isinstance(w, float) for w in want)
    assert got.tobytes() == np.array(want).tobytes()
    assert got.reshape(2, -1).tobytes() == pvalue(t.reshape(2, -1)).tobytes()
    assert isinstance(pvalue(np.float64(3.0)), float)
    for bad in (np.array([1.0, -1e-300, 2.0]), np.array([[3.0], [-2.0]])):
        with pytest.raises(DomainError):
            pvalue(bad)


def test_boundary_pvalue_rejects_a_zero_entry():
    with pytest.raises(DomainError):
        tj_boundary_pvalue(np.array([2.0, 0.0, 1.0]), 4.0)
    # a zero pair statistic is in the domain
    assert tij_null_pvalue(np.array([0.0, 1.0]), Regime.concentration(0.2))[0] == 1.0


def test_lr_clt_constants_worked_example():
    # p=100, T-K=500 (K=10, T=510)
    mu = lr_clt_mean(100, 510, 10)
    sigma = lr_clt_sigma(100, 510, 10)
    assert_allclose(mu, (-399.5) * math.log(0.8) - (499.0 / 500.0) * 100.0, rtol=1e-12)
    assert_allclose(mu, -10.6545, atol=5e-4)  # quoted figure is a 4-dp display
    assert_allclose(sigma, -2.0 * (0.2 + math.log(0.8)), rtol=1e-12)
    assert_allclose(sigma, 0.0462867, atol=1e-6)  # quoted figure is a display rounding


def test_lr_clt_sigma_positive_on_unit_interval():
    # -x - ln(1-x) > 0 for all 0 < x < 1
    for n, T, K in [(500, 510, 10), (250, 260, 10)]:
        for p in range(1, n, 7):
            assert lr_clt_sigma(p, T, K) > 0.0


def test_tlr_standardize_conventions_differ_by_sqrt_sigma():
    p, T, K = 100, 510, 10
    sigma = lr_clt_sigma(p, T, K)
    z_var = tlr_standardize(50.0, p, T, K)
    z_dev = tlr_standardize(50.0, p, T, K, sigma_convention=SIGMA_AS_DEVIATION)
    assert_allclose(z_dev * math.sqrt(sigma), z_var, rtol=1e-12)
    with pytest.raises(DomainError):
        tlr_standardize(50.0, p, T, K, sigma_convention="junk")
    with pytest.raises(DomainError):
        tlr_standardize(50.0, 600, 510, 10)


def test_tlr_standardize_vectorized():
    z = tlr_standardize(np.array([0.0, 10.0, 20.0]), 100, 510, 10)
    assert z.shape == (3,)
    assert np.all(np.diff(z) > 0)


def test_tij_noncentral_power_null_and_limits():
    crit = chi2_quantile(0.95, 1)
    assert_allclose(
        tij_noncentral_approx_power(crit, 0.0, 100, 500, 10), 0.05, atol=1e-9
    )
    assert tij_noncentral_approx_power(crit, 50.0, 100, 500, 10) > 0.999999
    grid = [tij_noncentral_approx_power(crit, l, 100, 500, 10) for l in (0.0, 0.01, 0.05, 0.2)]
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_tij_noncentral_power_close_to_exact_density():
    # shifted-chi-square approximation against the exact tail integral
    from factorlens import ZjDensityParams, marginal_power_Z

    p, T, K = 100, 500, 10
    dof = T - K - p + 1
    lam = 0.05
    crit = f_quantile(0.95, 1, dof)
    approx = tij_noncentral_approx_power(crit, lam, p, T, K)
    exact = marginal_power_Z(crit, ZjDensityParams(q=1, n=dof, lam=lam))
    assert abs(approx - exact) <= 0.03


def test_tj_noncentral_power_null_case():
    reg = Regime.concentration(0.2)
    p, T, K = 100, 510, 10
    # at lambda = 0 the normal approximation gives alpha at the normal critical
    crit = 1.0 + normal_quantile(0.95) * math.sqrt((2.0 / 0.8) / (p - 1.0))
    assert_allclose(tj_noncentral_approx_power(crit, 0.0, reg, p, T, K), 0.05, atol=1e-9)


def test_tj_noncentral_power_boundary_inversion():
    reg = Regime.boundary(4.0)
    lam = 0.7
    beta = 0.8
    crit = (1.0 + lam) * 5.0 / chi2_quantile(beta, 5.0)
    power = tj_noncentral_approx_power(crit, lam, reg, 100, 205, 1)
    assert_allclose(power, beta, atol=1e-12)
    assert tj_noncentral_approx_power(0.0, lam, reg, 100, 205, 1) == 1.0


def test_tj_boundary_critical_size():
    d = 6.0
    crit = tj_boundary_critical(0.05, d)
    assert_allclose(tj_boundary_pvalue(crit, d), 0.05, atol=1e-12)


def test_tlr_standardized_null_sample_moments():
    # operational check of the log-determinant CLT at two concentrations
    from factorlens import simulate_null_statistics

    for p, T, K, seed in [(60, 310, 10, 5), (60, 177, 10, 6)]:
        out = simulate_null_statistics(
            ("T_LR_standardized",), p, T, K, reps=4000, master_seed=seed
        )
        z = out["T_LR_standardized"]
        assert abs(z.mean()) <= 0.08
        assert 0.9 <= z.var() <= 1.1
